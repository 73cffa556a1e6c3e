package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pas "repro"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// The serve workload's traffic. Misses simulate small registry scenarios
// (30–60 nodes, about 1–7 ms each); plume is left out because its PDE
// stimulus makes one miss cost about 0.5 s.
var smallScenarios = []string{"paper", "irregular", "gasleak", "twinspill", "grid", "poisson", "churn", "drift"}

const (
	hotKeys      = 96  // distinct /v1/runs keys in the hot set
	cacheEntries = 32  // ServeConfig.CacheEntries: below the hot set, so cold hot keys answer from disk
	zipfS        = 1.1 // skew of the hot-key popularity

	// requestsPerSecond sizes the load: a run sends this many requests per
	// second of --seconds, about what the closed loop completes on a
	// two-core host, so the phase lasts about --seconds there.
	requestsPerSecond = 1500

	failedMs = 60000 // the latency a failed request counts as: over any limit

	// An untraced run sends the load in serveParts parts and times the
	// arith reference refsPerPart times between two set-ups or parts
	// (reference.go).
	serveParts  = 20
	refsPerPart = 2
)

const (
	kindHot = iota
	kindFresh
	kindReplicate
	kindJob
)

// request is one request of the load.
type request struct {
	kind  int
	path  string
	body  []byte
	name  string
	seeds []int64 // one seed for runs and jobs, eight for replicate
}

// generator draws the request sequence from the workload seed. Seeds of the
// different key kinds come from disjoint ranges, so a fresh key is never
// seen twice.
type generator struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	hot   []request
	rank  []int // Zipf rank → hot key
	fresh int64
	repl  int64
	jobs  int64
}

func newGenerator(seed int64) *generator {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	g := &generator{
		rng:   rng,
		zipf:  rand.NewZipf(rng, zipfS, 1, hotKeys-1),
		rank:  rng.Perm(hotKeys),
		fresh: 1_000_000_000 + seed*10_000_000,
		repl:  2_000_000_000 + seed*10_000_000,
		jobs:  3_000_000_000 + seed*10_000_000,
	}
	for i := 0; i < hotKeys; i++ {
		name := smallScenarios[i%len(smallScenarios)]
		g.hot = append(g.hot, runRequest(kindHot, name, 1_000*(seed+1)+int64(i/len(smallScenarios))))
	}
	return g
}

func runRequest(kind int, name string, seed int64) request {
	path, fields := "/v1/runs", map[string]any{"name": name, "seed": seed}
	if kind == kindJob {
		path, fields["mode"] = "/v1/jobs", "run"
	}
	body, _ := json.Marshal(fields)
	return request{kind: kind, path: path, body: body, name: name, seeds: []int64{seed}}
}

// mixBlock is the request mix as exact counts in each block of a hundred
// requests, shuffled within the block, so that every seed sends the same
// mix and only the order and the keys differ. The counts, zipfS and the key
// counts are assumptions, not measured traffic: README.md gives the reason
// for each.
var mixBlock = []struct{ kind, count int }{
	{kindHot, 83}, {kindFresh, 10}, {kindReplicate, 5}, {kindJob, 2},
}

// sequence draws the next n requests of the mix.
func (g *generator) sequence(n int) []request {
	var block []int
	for _, m := range mixBlock {
		for range m.count {
			block = append(block, m.kind)
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block[:min(len(block), n-len(out))] {
			out = append(out, g.next(kind))
		}
	}
	return out
}

// next draws one request of the given kind. Fresh runs and jobs take the
// small scenarios in turn, so each scenario gets the same share of them
// whatever the seed.
func (g *generator) next(kind int) request {
	switch kind {
	case kindHot:
		return g.hot[g.rank[g.zipf.Uint64()]]
	case kindFresh:
		g.fresh++
		return runRequest(kindFresh, smallScenarios[g.fresh%int64(len(smallScenarios))], g.fresh)
	case kindReplicate:
		// The paper workload replicated over eight fresh seeds, as
		// pasbench replicates it.
		seeds := make([]int64, 8)
		for k := range seeds {
			seeds[k] = g.repl
			g.repl++
		}
		body, _ := json.Marshal(map[string]any{"name": "paper", "seeds": seeds})
		return request{kind: kindReplicate, path: "/v1/replicate", body: body, name: "paper", seeds: seeds}
	default:
		g.jobs++
		return runRequest(kindJob, smallScenarios[g.jobs%int64(len(smallScenarios))], g.jobs)
	}
}

// outcome is what one request saw.
type outcome struct {
	req        *request
	status     int
	cache, key string // X-Cache and X-Result-Key
	body       []byte
	sent, done time.Time
	err        error
}

// ok reports whether the request got its expected status.
func (o *outcome) ok() bool {
	if o.err != nil {
		return false
	}
	if o.req.kind == kindJob {
		return o.status == http.StatusAccepted
	}
	return o.status == http.StatusOK
}

// latencyMs is the time from sending the request to its last body byte; a
// failed request counts as failedMs.
func (o *outcome) latencyMs() float64 {
	if !o.ok() {
		return failedMs
	}
	return millis(o.done.Sub(o.sent))
}

// liveServer is an in-process pas.NewServer on a loopback http.Server with
// its store in a fresh temp directory.
type liveServer struct {
	h      *pas.Server
	srv    *http.Server
	dir    string
	served chan error
	base   string
	client *http.Client
}

func startServer() (*liveServer, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	// The passerve flags' defaults, with -cache and -store set.
	h, err := pas.NewServer(pas.ServeConfig{CacheEntries: cacheEntries, StoreDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	conns := runtime.NumCPU()
	s := &liveServer{
		h:      h,
		srv:    &http.Server{Handler: h},
		dir:    dir,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, drains in-flight jobs, closes the server and
// waits for Serve to return, then removes the store directory.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errs := []error{s.srv.Shutdown(ctx), s.h.Drain(ctx), s.h.Close()}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	s.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

func (s *liveServer) get(path string) ([]byte, int, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (s *liveServer) stats() (serve.Stats, error) {
	var st serve.Stats
	body, code, err := s.get("/v1/stats")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

func (s *liveServer) send(r *request) outcome {
	o := outcome{req: r}
	hr, err := http.NewRequest(http.MethodPost, s.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	o.sent = time.Now()
	resp, err := s.client.Do(hr)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Cache")
	o.key = resp.Header.Get("X-Result-Key")
	return o
}

// play sends reqs in order over senders keep-alive connections, each
// sender issuing its next request as soon as its last one completes: a
// closed loop with senders clients. (An open loop's latencies on a virtual
// machine are dominated by how fast an idle vCPU wakes; README.md has the
// measurement.) It returns the outcomes and the wall time from the first
// send to the last completion.
func (s *liveServer) play(reqs []request, senders int) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				out[i] = s.send(&reqs[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// playScaled sends reqs like play, in serveParts parts. After each part it
// waits for the server's jobs to settle and times the reference; the
// reference times before and after a part scale it. It returns the outcomes, the factor of each
// outcome's part, and the scaled and unscaled wall time, each summed over
// the parts. A nil speed (a traced run) sends one part, unscaled.
func (s *liveServer) playScaled(reqs []request, speed *hostSpeed) (outs []outcome, ks []float64, wall, rawWall float64, err error) {
	parts := serveParts
	if speed == nil {
		parts = 1
	}
	for i := range parts {
		part, w := s.play(reqs[i*len(reqs)/parts:(i+1)*len(reqs)/parts], runtime.NumCPU())
		k := 1.0
		if speed != nil {
			if err := s.settle(); err != nil {
				return nil, nil, 0, 0, err
			}
			if err := speed.sample(refsPerPart); err != nil {
				return nil, nil, 0, 0, err
			}
			k = speed.factor(2 * refsPerPart)
		}
		outs = append(outs, part...)
		for range part {
			ks = append(ks, k)
		}
		wall, rawWall = wall+w.Seconds()*k, rawWall+w.Seconds()
	}
	return outs, ks, wall, rawWall, nil
}

// settle waits until the server runs no job.
func (s *liveServer) settle() error {
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		st, err := s.stats()
		if err != nil {
			return err
		}
		if st.JobsActive == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still active after a minute", st.JobsActive)
		}
	}
}

// awaitJobs waits for every acknowledged job of outs to settle and fetches
// its result, which then stands in for the job's body in the output checks.
func (s *liveServer) awaitJobs(outs []outcome) error {
	for i := range outs {
		o := &outs[i]
		if o.req.kind != kindJob || !o.ok() {
			continue
		}
		var acc struct{ ID, Key string }
		if err := json.Unmarshal(o.body, &acc); err != nil {
			return fmt.Errorf("job ack %q: %w", o.body, err)
		}
		// The status stream ends once the job settles.
		if _, _, err := s.get("/v1/jobs/" + acc.ID + "?stream=1"); err != nil {
			return err
		}
		body, code, err := s.get("/v1/jobs/" + acc.ID + "/result")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			o.err = fmt.Errorf("job %s result: status %d: %s", acc.ID, code, body)
			continue
		}
		o.body, o.key = body, acc.Key
	}
	return nil
}

// runServe drives the serve workload.
func runServe(cfg config, r *report) error {
	gen := newGenerator(cfg.seed)
	// Set-up: start a server on a fresh store and warm the hot set (every
	// hot key a miss that simulates and fsyncs its record). The last rep's
	// server takes the load. An untraced run scales each set-up and each
	// part of the load by the arith reference timed before and after it.
	var speed *hostSpeed
	if !cfg.trace {
		speed = &hostSpeed{ref: arithRef}
	}
	if err := speed.sample(refsPerPart); err != nil {
		return err
	}
	var setups, rawSetups []float64
	var srv *liveServer
	var warm []outcome
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(); err != nil {
			return err
		}
		// One sender: with one per CPU the set-up's time followed how much
		// the two senders overlapped, which varied from run to run by more
		// than the work did (README.md).
		warm, _ = srv.play(gen.hot, 1)
		setup := time.Since(t0).Seconds()
		for _, o := range warm {
			if !o.ok() || o.cache != "miss" {
				srv.stop()
				return fmt.Errorf("warming %s: status %d cache %q: %v %s", o.req.body, o.status, o.cache, o.err, o.body)
			}
		}
		if err := speed.sample(refsPerPart); err != nil {
			srv.stop()
			return err
		}
		setups, rawSetups = append(setups, setup*speed.factor(2*refsPerPart)), append(rawSetups, setup)
	}
	if speed != nil {
		note("host seconds before scaling: set-up %.4f", median(rawSetups))
	}
	err := serveLoad(cfg, r, gen, srv, speed, warm, setups)
	return errors.Join(err, srv.stop())
}

func serveLoad(cfg config, r *report, gen *generator, srv *liveServer, speed *hostSpeed, warm []outcome, setups []float64) error {
	reqs := gen.sequence(int(math.Ceil(requestsPerSecond * cfg.seconds)))
	before, err := srv.stats()
	if err != nil {
		return err
	}
	runtime.GC() // the load starts from a collected heap (README.md)
	var prof *profile
	var mem memDelta
	if cfg.trace {
		if prof, err = startProfile(); err != nil {
			return err
		}
		mem.begin()
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	outs, ks, wall, rawWall, err := srv.playScaled(reqs, speed)
	if err != nil {
		return err
	}
	if cfg.trace {
		mem.end()
		if err := prof.stop(r); err != nil {
			return err
		}
	}
	var rss float64
	if !cfg.trace {
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
	}
	lats, rawLats := make([]float64, len(outs)), make([]float64, len(outs))
	runMiss := map[string][]float64{} // by scenario
	var replMiss []float64
	for i := range outs {
		o := &outs[i]
		lats[i], rawLats[i] = o.latencyMs(), o.latencyMs()
		if o.ok() {
			lats[i] *= ks[i]
		}
		if o.cache == "miss" && o.req.kind == kindFresh {
			runMiss[o.req.name] = append(runMiss[o.req.name], lats[i])
		} else if o.cache == "miss" && o.req.kind == kindReplicate {
			replMiss = append(replMiss, lats[i])
		}
	}
	if err := srv.awaitJobs(outs); err != nil {
		return err
	}
	after, err := srv.stats()
	if err != nil {
		return err
	}
	checkBodies(r, append(append([]outcome(nil), warm...), outs...))
	note("serve seed=%d: %d requests in %.2f s over %d connections, simulations %d, rejected %d",
		cfg.seed, len(outs), rawWall, runtime.NumCPU(), after.Simulations-before.Simulations, after.Rejected-before.Rejected)

	if !cfg.trace {
		speed.note()
		note("host values before scaling: latency p50 %.4f ms, p99 %.4f ms, %.1f requests/s",
			median(rawLats), percentile(rawLats, 0.99), float64(len(outs))/rawWall)
		r.set("setup_s", median(setups))
		r.set("peak_rss_mb", rss)
		r.set("latency_p50_ms", median(lats))
		r.set("latency_p99_ms", percentile(lats, 0.99))
		// Each small scenario's misses form a mode of their own, from about
		// 2 to 6 ms; a median over all of them falls between two modes and
		// moves with every shift of either, so run_s averages the modes'
		// medians.
		var modes []float64
		var byName []string
		for _, name := range smallScenarios {
			if ms := runMiss[name]; len(ms) > 0 {
				modes = append(modes, median(ms))
				byName = append(byName, fmt.Sprintf("%s %.2f", name, median(ms)))
			}
		}
		note("median /v1/runs miss by scenario, ms: %s", strings.Join(byName, ", "))
		r.set("run_s", sum(modes)/float64(len(modes))/1000)
		r.set("sweep_s", median(replMiss)/1000)
		r.set("max_rate_rps", float64(len(outs))/wall)
		return nil
	}

	byCache := map[string][]float64{}
	var acks []float64
	served := 0
	for _, o := range outs {
		switch {
		case !o.ok():
		case o.req.kind == kindJob:
			acks = append(acks, millis(o.done.Sub(o.sent)))
		default:
			byCache[o.cache] = append(byCache[o.cache], o.latencyMs())
			served++
		}
	}
	for _, c := range []struct{ cache, name string }{{"hit-mem", "hit_mem"}, {"hit-disk", "hit_disk"}, {"miss", "miss"}} {
		if served > 0 {
			r.set("serve."+c.name+"_frac", float64(len(byCache[c.cache]))/float64(served))
		}
		r.set("serve."+c.name+"_p50_ms", median(byCache[c.cache]))
	}
	r.set("serve.miss_p99_ms", percentile(byCache["miss"], 0.99))
	r.set("serve.simulations", float64(after.Simulations-before.Simulations))
	r.set("serve.collapsed", float64(after.Collapsed-before.Collapsed))
	r.set("serve.rejected", float64(after.Rejected-before.Rejected))
	r.set("serve.deadlined", float64(after.Deadlined-before.Deadlined))
	r.set("jobs.ack_p50_ms", median(acks))
	mem.report(r, len(outs))
	if err := canonicalTimes(r, reqs); err != nil {
		return err
	}
	return storeTimes(r, outs)
}

// checkBodies checks every answered request: each result key's bodies are
// byte-identical, and each body matches an in-process pas.Run of its spec
// and seeds. Keys are checked on one worker per CPU.
func checkBodies(r *report, outs []outcome) {
	first := map[string]*outcome{}
	var keys []string
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			r.op(fmt.Errorf("%s %s: status %d: %v %s", o.req.path, o.req.body, o.status, o.err, o.body))
			continue
		}
		f, seen := first[o.key]
		switch {
		case !seen:
			first[o.key] = o
			keys = append(keys, o.key)
		case !bytes.Equal(f.body, o.body):
			r.op(fmt.Errorf("key %s: body %q differs from the first %q", o.key, o.body, f.body))
		default:
			r.op(nil)
		}
	}
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				errs[i] = matchesInProcess(first[keys[i]])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		r.op(err)
	}
}

// matchesInProcess recomputes a body's result with pas.Run.
func matchesInProcess(o *outcome) error {
	sp, ok := pas.LookupScenario(o.req.name)
	if !ok {
		return fmt.Errorf("no scenario %q", o.req.name)
	}
	if sp.Protocol.Name == "" {
		sp.Protocol.Name = pas.ProtoPAS // what the server materializes
	}
	var agg metrics.Aggregate
	var rep pas.RunReport
	var rc pas.RunConfig
	for _, seed := range o.req.seeds {
		var err error
		if rc, err = pas.RunConfigFromScenario(sp, seed); err != nil {
			return err
		}
		if rep, err = pas.Run(rc); err != nil {
			return err
		}
		agg.Add(rep)
	}
	var got, want any
	if o.req.kind == kindReplicate {
		var resp serve.ReplicateResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return fmt.Errorf("%s: %w", o.body, err)
		}
		mc := func(a stats.Accumulator) serve.MeanCI { return serve.MeanCI{Mean: a.Mean(), CI95: a.CI95()} }
		got, want = resp, serve.ReplicateResponse{
			Key: o.key, Scenario: sp.Name, Protocol: rc.Protocol, Seeds: o.req.seeds,
			Delay: mc(agg.Delay), Energy: mc(agg.Energy), Duty: mc(agg.Duty),
			Missed: mc(agg.Missed), Messages: mc(agg.Msgs), MaxDelay: mc(agg.MaxDel),
			BatteryDeaths: mc(agg.Deaths), FirstDeath: mc(agg.FirstDeath),
		}
	} else {
		var resp serve.RunResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return fmt.Errorf("%s: %w", o.body, err)
		}
		sum := serve.RunSummary{
			AvgDelay: rep.AvgDelay, P95Delay: rep.P95Delay, MaxDelay: rep.MaxDelay,
			AvgEnergyJ: rep.AvgEnergyJ, AvgDuty: rep.AvgDuty, Detected: rep.Detected,
			Reached: rep.Reached, Missed: rep.Missed, Messages: rep.Messages,
			BatteryDeaths: rep.BatteryDeaths,
		}
		if !math.IsInf(rep.FirstDeath, 1) {
			fd := rep.FirstDeath
			sum.FirstDeath = &fd
		}
		got, want = resp, serve.RunResponse{
			Key: o.key, Scenario: sp.Name, Protocol: rc.Protocol, Seed: o.req.seeds[0], Report: sum,
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s %s: served %+v, in-process %+v", o.req.path, o.req.body, got, want)
	}
	return nil
}

// canonicalTimes times scenario.Canonical plus scenario.Hash on the spec of
// every request of the phase.
func canonicalTimes(r *report, reqs []request) error {
	var us []float64
	for _, q := range reqs {
		sp, ok := scenario.Lookup(q.name)
		if !ok {
			return fmt.Errorf("no scenario %q", q.name)
		}
		if sp.Protocol.Name == "" {
			sp.Protocol.Name = pas.ProtoPAS
		}
		t0 := time.Now()
		if _, err := scenario.Canonical(sp); err != nil {
			return err
		}
		if _, err := scenario.Hash(sp); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	r.set("scenario.canonical_us", median(us))
	return nil
}

// storeTimes times store.Put and store.Get on a fresh store in a temp
// directory, with the phase's distinct response bodies.
func storeTimes(r *report, outs []outcome) error {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	bodies := map[string][]byte{}
	for _, o := range outs {
		if o.ok() && o.req.kind != kindJob {
			bodies[o.key] = o.body
		}
	}
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var puts, gets []float64
	for _, k := range keys {
		t0 := time.Now()
		if err := st.Put(k, bodies[k]); err != nil {
			return err
		}
		puts = append(puts, millis(time.Since(t0)))
	}
	for _, k := range keys {
		t0 := time.Now()
		body, ok := st.Get(k)
		gets = append(gets, float64(time.Since(t0))/float64(time.Microsecond))
		if !ok || !bytes.Equal(body, bodies[k]) {
			r.op(fmt.Errorf("store: Get(%s) returned %q, want the Put body", k, body))
		}
	}
	r.set("store.put_ms", median(puts))
	r.set("store.get_us", median(gets))
	return nil
}
