// Async jobs: the journaled, crash-safe half of the serving API.
//
// POST /v1/jobs appends the canonical request to the write-ahead journal and
// fsyncs it BEFORE the 202 acknowledgment leaves the server, so the ack is a
// durable promise: kill -9 the process at any instant after the 202 and the
// restarted server replays the submit entry, re-executes the simulation and —
// by the repo's determinism guarantee — produces the byte-identical body the
// dead process would have. GET /v1/jobs/{id} reports state, phase and
// progress (streamed as NDJSON with ?stream=1; sharded runs report per
// conservative window through the node.WithProgress hook); GET
// /v1/jobs/{id}/result serves the finished body from the content-addressed
// store under the exact key a synchronous request would have used.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Job states, in lifecycle order.
const (
	JobPending = "pending" // acknowledged, waiting for a worker slot
	JobRunning = "running" // simulating
	JobDone    = "done"    // result persisted and fetchable
	JobFailed  = "failed"  // terminal failure; the result will never exist
)

// job is one acknowledged asynchronous simulation.
type job struct {
	id      string
	mode    string // "run" or "replicate"
	key     string // result content address
	idem    string
	compute func(ctx context.Context) ([]byte, error)

	mu       sync.Mutex
	state    string
	progress float64 // virtual-time fraction in [0, 1]
	errMsg   string
	errCode  string
	done     chan struct{} // closed on reaching JobDone or JobFailed
}

// snapshot reads the job's mutable state under its lock.
func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:        j.id,
		State:     j.state,
		Progress:  j.progress,
		Key:       j.key,
		Error:     j.errMsg,
		ErrorCode: j.errCode,
	}
}

// setState transitions the job; terminal states close done exactly once.
func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	if state == JobDone {
		j.progress = 1
	}
	terminal := state == JobDone || state == JobFailed
	j.mu.Unlock()
	if terminal {
		close(j.done)
	}
}

// fail records a terminal failure with its stable code.
func (j *job) fail(code, msg string) {
	j.mu.Lock()
	j.errCode, j.errMsg = code, msg
	j.mu.Unlock()
	j.setState(JobFailed)
}

// jobStatus is the wire shape of GET /v1/jobs/{id} (and each NDJSON stream
// line).
type jobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Progress  float64 `json:"progress"`
	Key       string  `json:"key"`
	Error     string  `json:"error,omitempty"`
	ErrorCode string  `json:"errorCode,omitempty"`
}

// jobAccepted is the body of a 202 from POST /v1/jobs.
type jobAccepted struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Key   string `json:"key"`
}

// jobTable indexes the server's jobs. Completed jobs stay queryable for the
// process lifetime (and, via journal replay, across restarts); only the
// active-by-key index is cleared at completion, so a resubmission of finished
// work becomes a fresh — and, store hit, instant — job.
type jobTable struct {
	mu     sync.Mutex
	seq    uint64
	byID   map[string]*job
	byIdem map[string]string // idempotency key → job ID
	active map[string]string // result key → pending/running job ID
}

func (t *jobTable) init() {
	t.byID = make(map[string]*job)
	t.byIdem = make(map[string]string)
	t.active = make(map[string]string)
}

// nextID mints a fresh job ID. Replay bumps seq past every journaled ID
// first, so IDs never collide across restarts.
func (t *jobTable) nextID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("j%06d", t.seq)
}

// bumpSeq raises the ID sequence to at least n.
func (t *jobTable) bumpSeq(n uint64) {
	t.mu.Lock()
	if n > t.seq {
		t.seq = n
	}
	t.mu.Unlock()
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

// lookupDup returns an existing job this submission should collapse onto: by
// idempotency key first (exact resubmission of an acknowledged request), then
// by active result key (identical work currently pending or running).
func (t *jobTable) lookupDup(idem, key string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idem != "" {
		if id, ok := t.byIdem[idem]; ok {
			return t.byID[id], true
		}
	}
	if id, ok := t.active[key]; ok {
		return t.byID[id], true
	}
	return nil, false
}

// register adds a job to every applicable index.
func (t *jobTable) register(j *job) {
	t.mu.Lock()
	t.byID[j.id] = j
	if j.idem != "" {
		t.byIdem[j.idem] = j.id
	}
	t.active[j.key] = j.id
	t.mu.Unlock()
}

// settle clears the active-by-key index entry once a job reaches a terminal
// state.
func (t *jobTable) settle(j *job) {
	t.mu.Lock()
	if t.active[j.key] == j.id {
		delete(t.active, j.key)
	}
	t.mu.Unlock()
}

// jobRequest is the body of POST /v1/jobs: a simulation request plus the
// endpoint mode it should run as.
type jobRequest struct {
	// Mode selects the simulation shape: "run" (default) or "replicate".
	Mode string `json:"mode,omitempty"`
	simRequest
}

// handleJobSubmit serves POST /v1/jobs: validate, journal, acknowledge.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, &httpError{status: http.StatusServiceUnavailable, code: CodeDraining,
			msg: "server is draining; resubmit to a live replica"})
		return
	}
	var req jobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, badRequest("decoding request: %v", err))
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = "run"
	}
	if mode != "run" && mode != "replicate" {
		s.writeError(w, badRequest(`unknown mode %q ("run" or "replicate")`, mode))
		return
	}
	sp, err := s.resolveSpec(req.simRequest)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var seeds []int64
	if mode == "run" {
		seeds = []int64{req.Seed}
	} else if seeds, err = resolveSeeds(req.simRequest); err != nil {
		s.writeError(w, err)
		return
	}
	canon, err := scenario.Canonical(sp)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	if err := checkShards(sp, req.Shards); err != nil {
		s.writeError(w, err)
		return
	}
	key := resultKey(s.cfg.Version, mode, canon, seeds...)
	idem := r.Header.Get("Idempotency-Key")

	if dup, ok := s.jobs.lookupDup(idem, key); ok {
		s.writeAccepted(w, dup)
		return
	}

	j := &job{
		id:   s.jobs.nextID(),
		mode: mode,
		key:  key,
		idem: idem,
		done: make(chan struct{}),
	}
	if mode == "run" {
		j.compute = computeRun(sp, seeds[0], req.Shards, key)
	} else {
		j.compute = computeReplicate(sp, seeds, req.Shards, key)
	}
	j.state = JobPending
	if s.journal != nil {
		entry := store.JobEntry{
			ID: j.id, Op: store.OpSubmit, Mode: mode, Key: key,
			Spec: canon, Seeds: seeds, Shards: req.Shards, Idem: idem,
		}
		if err := s.journal.Append(entry); err != nil {
			// No durable promise can be made; refuse rather than acknowledge
			// something a crash would forget.
			s.writeError(w, fmt.Errorf("journaling job: %w", err))
			return
		}
	}
	s.jobs.register(j)
	s.stats.jobsSubmitted.Add(1)
	s.stats.jobsActive.Add(1)
	s.startJob(j)
	s.writeAccepted(w, j)
}

// writeAccepted emits the 202 acknowledgment for a (possibly deduplicated)
// job.
func (s *Server) writeAccepted(w http.ResponseWriter, j *job) {
	st := j.snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	body, _ := marshalBody(jobAccepted{ID: st.ID, State: st.State, Key: st.Key})
	w.Write(body)
}

// startJob launches the job's executor goroutine under the server's
// wait-group (Drain waits for it, Close cancels it).
func (s *Server) startJob(j *job) {
	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		s.runJob(j)
	}()
}

// runJob executes one job to a terminal state. The path mirrors deliver's:
// store tiers first (a job for already-computed work completes instantly),
// then a worker slot, then the guarded compute with the progress hook
// installed; the result is written through both tiers and the terminal
// outcome journaled. A job cancelled by server shutdown journals NOTHING
// terminal — the restarted server replays it — while a job that fails on its
// own (panic, invalid dynamics, timeout) journals OpFail: determinism makes
// such failures permanent, so replaying them would be wasted work.
func (s *Server) runJob(j *job) {
	if body, ok := s.cache.get(j.key); ok {
		s.finishJob(j, body, true)
		return
	}
	if body, ok := s.diskGet(j.key); ok {
		s.cache.put(j.key, body)
		s.finishJob(j, body, true)
		return
	}
	select {
	case s.work <- struct{}{}:
	case <-s.jobCtx.Done():
		return // shutdown before start: stays incomplete in the journal
	}
	defer func() { <-s.work }()

	j.setState(JobRunning)
	ctx, cancel := context.WithTimeout(s.jobCtx, s.cfg.JobTimeout)
	defer cancel()
	ctx = node.WithProgress(ctx, func(now, horizon float64) {
		j.mu.Lock()
		if frac := now / horizon; frac > j.progress {
			j.progress = frac
		}
		j.mu.Unlock()
	})
	body, err := computeGuarded(ctx, j.key, j.compute)
	if err != nil {
		if s.jobCtx.Err() != nil {
			// Shutdown took the job down, not the job itself: leave the journal
			// entry incomplete so the restarted server re-executes it.
			return
		}
		code := CodeInternal
		var he *httpError
		switch {
		case errors.As(err, &he):
			code = he.code
		case errors.Is(err, context.DeadlineExceeded):
			code = CodeDeadline
		}
		s.failJob(j, code, err.Error())
		return
	}
	s.persist(j.key, body)
	s.finishJob(j, body, false)
}

// finishJob moves a job to done: result persisted (instant completions pass
// preStored), journal terminal entry appended, indexes settled.
func (s *Server) finishJob(j *job, body []byte, preStored bool) {
	if preStored {
		s.cache.put(j.key, body)
	}
	if s.journal != nil {
		s.journal.Append(store.JobEntry{ID: j.id, Op: store.OpDone, Key: j.key})
	}
	j.setState(JobDone)
	s.jobs.settle(j)
	s.stats.jobsCompleted.Add(1)
	s.stats.jobsActive.Add(-1)
}

// failJob moves a job to failed with a terminal journal entry.
func (s *Server) failJob(j *job, code, msg string) {
	if s.journal != nil {
		s.journal.Append(store.JobEntry{ID: j.id, Op: store.OpFail, Key: j.key, Error: msg})
	}
	j.fail(code, msg)
	s.jobs.settle(j)
	s.stats.jobsFailed.Add(1)
	s.stats.jobsActive.Add(-1)
}

// handleJobStatus serves GET /v1/jobs/{id}: a point-in-time status snapshot,
// or — with ?stream=1 — an NDJSON stream of snapshots, one line per visible
// progress change, ending with the terminal state (or when the server starts
// draining).
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, notFound("unknown job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("stream") == "" {
		s.writeJSON(w, j.snapshot())
		return
	}
	s.streamJobStatus(w, r, j)
}

// jobStreamPoll is the cadence at which a status stream samples the job; the
// progress hook updates far more often, so this bounds line rate, not
// resolution.
const jobStreamPoll = 25 * time.Millisecond

// streamJobStatus writes NDJSON status lines until the job settles.
func (s *Server) streamJobStatus(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Result-Key", j.key)
	flusher, _ := w.(http.Flusher)
	writeLine := func(st jobStatus) {
		body, _ := marshalBody(st)
		w.Write(body)
		if flusher != nil {
			flusher.Flush()
		}
	}
	last := j.snapshot()
	writeLine(last)
	ticker := time.NewTicker(jobStreamPoll)
	defer ticker.Stop()
	for {
		select {
		case <-j.done:
			writeLine(j.snapshot())
			return
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			writeLine(j.snapshot())
			return
		case <-ticker.C:
			if st := j.snapshot(); st != last {
				last = st
				writeLine(st)
			}
		}
	}
}

// handleJobResult serves GET /v1/jobs/{id}/result: the finished body, byte-
// identical to what the synchronous endpoint would have returned (it IS the
// stored body under the same content address).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, notFound("unknown job %q", r.PathValue("id")))
		return
	}
	st := j.snapshot()
	switch st.State {
	case JobFailed:
		s.writeError(w, &httpError{status: http.StatusGone, code: CodeJobFailed,
			msg: fmt.Sprintf("job %s failed: %s", st.ID, st.Error)})
		return
	case JobDone:
	default:
		s.writeError(w, &httpError{status: http.StatusConflict, code: CodeNotReady,
			msg: fmt.Sprintf("job %s is %s; poll GET /v1/jobs/%s", st.ID, st.State, st.ID)})
		return
	}
	body, ok := s.cache.get(j.key)
	if !ok {
		if body, ok = s.diskGet(j.key); ok {
			s.cache.put(j.key, body)
		}
	}
	if !ok {
		// Memory-only server whose LRU evicted the body: the promise is gone
		// with the process's memory. Resubmitting recomputes it.
		s.writeError(w, notFound("result for job %s evicted; resubmit the job", st.ID))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Result-Key", j.key)
	w.Write(body)
}

// replayJobs restores the jobs subsystem from a journal replay: terminal jobs
// come back queryable in their final state, and every acknowledged-but-
// incomplete job is re-executed — the crash-recovery half of the 202
// contract. An incomplete job whose result already sits in the disk store
// (the crash hit between the store write and the journal's OpDone) is
// completed without re-running: the stored bytes are already the answer.
func (s *Server) replayJobs(entries []store.JobEntry) {
	var maxSeq uint64
	for _, e := range entries {
		if n, err := strconv.ParseUint(strings.TrimPrefix(e.ID, "j"), 10, 64); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	s.jobs.bumpSeq(maxSeq)

	pending, terminal := store.Incomplete(entries)

	// Submit entries by ID, for rebuilding terminal jobs' metadata.
	submits := make(map[string]store.JobEntry)
	for _, e := range entries {
		if e.Op == store.OpSubmit {
			if _, dup := submits[e.ID]; !dup {
				submits[e.ID] = e
			}
		}
	}
	for id, term := range terminal {
		sub := submits[id]
		j := &job{id: id, mode: sub.Mode, key: sub.Key, idem: sub.Idem, done: make(chan struct{})}
		if term.Op == store.OpDone {
			j.state = JobDone
			j.progress = 1
		} else {
			j.state = JobFailed
			j.errMsg = term.Error
			j.errCode = CodeJobFailed
		}
		close(j.done)
		s.jobs.mu.Lock()
		s.jobs.byID[id] = j
		if j.idem != "" {
			s.jobs.byIdem[j.idem] = id
		}
		s.jobs.mu.Unlock()
	}

	for _, e := range pending {
		j := &job{id: e.ID, mode: e.Mode, key: e.Key, idem: e.Idem, done: make(chan struct{}), state: JobPending}
		sp, err := scenario.Decode(e.Spec)
		if err != nil {
			// A journaled spec that no longer decodes means the schema moved
			// underneath the journal; the promise is unkeepable.
			s.jobs.register(j)
			s.stats.jobsActive.Add(1)
			s.failJob(j, CodeBadRequest, fmt.Sprintf("replayed spec no longer decodes: %v", err))
			continue
		}
		if e.Mode == "replicate" {
			j.compute = computeReplicate(sp, e.Seeds, e.Shards, e.Key)
		} else {
			seed := int64(0)
			if len(e.Seeds) > 0 {
				seed = e.Seeds[0]
			}
			j.compute = computeRun(sp, seed, e.Shards, e.Key)
		}
		s.jobs.register(j)
		s.stats.jobsActive.Add(1)
		s.stats.jobsReplayed.Add(1)
		s.startJob(j)
	}
}
