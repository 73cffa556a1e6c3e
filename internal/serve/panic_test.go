package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/scenario"
)

// infeasiblePoissonSpec builds a spec that passes validation but panics deep
// in the harness: 200 nodes at a 5 m Poisson-disk spacing cannot fit a
// 10×10 m field, so the deployment generator saturates and panics mid-Build.
// It is the canonical "valid-looking request that explodes" probe for the
// serving layer's panic barrier.
func infeasiblePoissonSpec(t *testing.T) []byte {
	t.Helper()
	sp := scenario.Scenario{
		Name:       "infeasible-poisson",
		Field:      geom.R(0, 0, 10, 10),
		Nodes:      200,
		Horizon:    30,
		Deployment: scenario.DeploymentSpec{Kind: scenario.DeployPoisson, MinDist: 5},
		Radio:      scenario.RadioSpec{Range: 10},
		Stimulus:   scenario.StimulusSpec{Kind: scenario.StimRadial, Origin: geom.V(0, 0), Speed: 1, Start: 1},
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("the panic probe must pass validation (it guards Build, not Validate): %v", err)
	}
	raw, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeLoadPanicRecovery drives a panicking spec through the daemon
// under concurrent healthy load and pins the panic-barrier contract: the
// offending requests get a clean 500 naming the panic, every healthy request
// still gets its 200, the health endpoint keeps answering afterwards, and
// the worker/admission slots all drain (a leaked slot would wedge the pool).
func TestServeLoadPanicRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	const clients = 40
	s, ts := testServer(t, Config{Workers: 2, QueueDepth: clients})
	badSpec := infeasiblePoissonSpec(t)

	type outcome struct {
		status int
		body   string
	}
	outcomes := make([]outcome, clients)
	bad := func(i int) bool { return i%4 == 0 }
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body string
			if bad(i) {
				// Distinct seeds keep every panicking request a distinct key:
				// each one must reach the barrier, not a cached error.
				body = fmt.Sprintf(`{"scenario":%s,"seed":%d}`, badSpec, i)
			} else {
				body = fmt.Sprintf(`{"name":"paper","seed":%d}`, i%6)
			}
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = outcome{resp.StatusCode, string(b)}
		}(i)
	}
	wg.Wait()

	var panics int
	for i, o := range outcomes {
		if bad(i) {
			if o.status != http.StatusInternalServerError {
				t.Fatalf("panicking request %d: status %d (%s), want 500", i, o.status, o.body)
			}
			if !strings.Contains(o.body, "panicked") || !strings.Contains(o.body, "poisson") {
				t.Fatalf("panicking request %d: body %q should name the panic", i, o.body)
			}
			panics++
		} else if o.status != http.StatusOK {
			t.Fatalf("healthy request %d: status %d (%s), want 200", i, o.status, o.body)
		}
	}

	// The daemon must still be alive and serving after every panic.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz after panics: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics: status %d", resp.StatusCode)
	}

	st := s.Stats()
	if st.Errors != uint64(panics) {
		t.Fatalf("errors = %d, want %d (one per panicking request)", st.Errors, panics)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gauges not drained after panics: %+v", st)
	}
}

// TestRetryAfterEstimate pins the saturation Retry-After estimate: with no
// latency history it falls back to the 1 s floor, and with recorded
// latencies it scales with the work admitted ahead of the retrying client.
func TestRetryAfterEstimate(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, QueueDepth: 8, Version: "test"})
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold server Retry-After = %d, want the 1 s floor", got)
	}

	// Median latency 2000 ms across 2 workers with 6 simulations ahead:
	// ceil(2 × (6/2 + 1)) = 8 s.
	for i := 0; i < 8; i++ {
		s.stats.lat.record(2000)
	}
	s.stats.queued.Store(4)
	s.stats.inFlight.Store(2)
	if got := s.retryAfterSeconds(); got != 8 {
		t.Fatalf("Retry-After = %d, want 8 (p50 2 s, 6 ahead, 2 workers)", got)
	}

	// Fast simulations round up to the floor, never to zero.
	s2 := mustNew(t, Config{Workers: 4, Version: "test"})
	for i := 0; i < 8; i++ {
		s2.stats.lat.record(10)
	}
	if got := s2.retryAfterSeconds(); got != 1 {
		t.Fatalf("fast-path Retry-After = %d, want the 1 s floor", got)
	}
}

// logCapture collects slog records as decoded JSON objects.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *logCapture) records(t *testing.T) []map[string]any {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(c.buf.Bytes()))
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestPanicLogsKeyAndStack pins that the panic barrier logs what the 500
// body leaves out: one slog record per panic with the result key and the
// panicking goroutine's stack, on the synchronous and the job path alike.
// The response body keeps its panic code and message.
func TestPanicLogsKeyAndStack(t *testing.T) {
	capture := &logCapture{}
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(capture, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	_, ts := testServer(t, Config{Workers: 1})
	req := fmt.Sprintf(`{"scenario":%s,"seed":3}`, infeasiblePoissonSpec(t))
	resp, body := post(t, ts.URL, "/v1/runs", req)
	var e errorBody
	json.Unmarshal(body, &e)
	if resp.StatusCode != http.StatusInternalServerError || e.Code != CodePanic || !strings.Contains(e.Error, "panicked") {
		t.Fatalf("panicking run: status %d body %s, want 500 %s", resp.StatusCode, body, CodePanic)
	}
	// The job path computes under the key a synchronous request uses, so
	// both records must name the job's acknowledged key.
	acc := submitJob(t, ts.URL, req)
	if st := waitJob(t, ts.URL, acc.ID); st.ErrorCode != CodePanic {
		t.Fatalf("job settled %s/%s, want failed/panic", st.State, st.ErrorCode)
	}

	recs := capture.records(t)
	if len(recs) != 2 {
		t.Fatalf("got %d log records, want one per panic (2): %v", len(recs), recs)
	}
	for i, rec := range recs {
		if rec["level"] != "ERROR" || rec["msg"] != "simulation panicked" {
			t.Errorf("record %d: level %v msg %v", i, rec["level"], rec["msg"])
		}
		if rec["key"] != acc.Key {
			t.Errorf("record %d: key %v, want %s", i, rec["key"], acc.Key)
		}
		if p, _ := rec["panic"].(string); !strings.Contains(p, "poisson") {
			t.Errorf("record %d: panic %q should carry the panic value", i, p)
		}
		// The stack is the panicking goroutine's: it runs through the
		// deployment generator that panicked, not just the barrier.
		stack, _ := rec["stack"].(string)
		if !strings.Contains(stack, "repro/internal/serve.computeGuarded") ||
			!strings.Contains(stack, "repro/internal/scenario.DeploymentSpec.Generate") {
			t.Errorf("record %d: stack lacks the panic frames:\n%s", i, stack)
		}
	}
}
