package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/scenario"
)

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 7

// runOutcome is what one scale-10k run must reproduce exactly.
type runOutcome struct {
	report   [sha256.Size]byte // hash of the full RunReport, every node included
	detected int
	events   uint64
	radio    radio.Stats
}

func outcomeOf(nw *node.Network, rep metrics.RunReport) runOutcome {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", rep) // %v prints floats in their shortest exact form
	var o runOutcome
	copy(o.report[:], h.Sum(nil))
	o.detected = rep.Detected
	o.events = nw.Kernel.Processed()
	o.radio = nw.Medium.Stats()
	return o
}

// check compares a timed run's outcome with the set-up reference.
func (ref runOutcome) check(o runOutcome, nodes int) error {
	switch {
	case o.detected != nodes:
		return fmt.Errorf("scale-10k: %d of %d nodes detected", o.detected, nodes)
	case o.report != ref.report:
		return errors.New("scale-10k: RunReport differs from the first run's")
	case o.events != ref.events || o.radio != ref.radio:
		return fmt.Errorf("scale-10k: counts differ: %d events %+v, first run %d events %+v",
			o.events, o.radio, ref.events, ref.radio)
	}
	return nil
}

// runScale drives the scale-10k workload: the registry's 10,000-node grid
// running PAS on the serial kernel, simulation seed = workload seed. Each
// operation is one experiment.Build → Network.Run → metrics.Collect with the
// deployment and CSR caches warm.
func runScale(cfg config, r *report) error {
	spec, ok := scenario.Lookup("scale-10k")
	if !ok {
		return errors.New("registry has no scale-10k scenario")
	}
	// Set-up: each rep compiles the spec and builds a network on a fresh
	// deployment (cold deployment and CSR compile), then runs it once. The
	// last rep uses the workload seed, which leaves the caches warm for the
	// timed window and gives the reference outcome every timed run must
	// reproduce byte for byte.
	// An untraced run scales every timed span by the memory reference timed
	// once before and once after it (reference.go); rawSetups and rawLats
	// keep the host seconds for the notes.
	var speed *hostSpeed
	if !cfg.trace {
		speed = &hostSpeed{ref: memoryRef}
	}
	if err := speed.sample(1); err != nil {
		return err
	}
	var setups, rawSetups, colds []float64
	var ref runOutcome
	for i := setupReps - 1; i >= 0; i-- {
		t0 := time.Now()
		rc, err := experiment.FromScenario(spec, cfg.seed+int64(i)*1_000_003)
		if err != nil {
			return err
		}
		tb := time.Now()
		nw, rc, err := experiment.Build(rc)
		if err != nil {
			return err
		}
		colds = append(colds, time.Since(tb).Seconds())
		nw.Run(rc.Scenario.Horizon)
		rep := metrics.Collect(nw.Nodes, rc.Scenario.Horizon)
		setup := time.Since(t0).Seconds()
		ref = outcomeOf(nw, rep)
		if err := speed.sample(1); err != nil {
			return err
		}
		k := speed.factor(2)
		setups, rawSetups = append(setups, setup*k), append(rawSetups, setup)
	}
	if ref.detected != spec.Nodes {
		return fmt.Errorf("set-up run detected %d of %d nodes", ref.detected, spec.Nodes)
	}
	rc, err := experiment.FromScenario(spec, cfg.seed)
	if err != nil {
		return err
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var sp spans
	var prof *profile
	var mem memDelta
	if cfg.trace {
		sp = spans{}
		if prof, err = startProfile(); err != nil {
			return err
		}
	}
	var lats, rawLats, rss []float64
	for start := time.Now(); time.Since(start) < window; {
		runtime.GC() // every run starts from a collected heap (README.md)
		if sp != nil {
			mem.begin()
		} else if err := resetPeakRSS(); err != nil {
			return err
		}
		nw, rep, lat, err := timedRun(rc, sp)
		if err != nil {
			return err
		}
		if sp != nil {
			mem.end()
		} else {
			peak, err := peakRSSMB()
			if err != nil {
				return err
			}
			rss = append(rss, peak)
		}
		r.op(ref.check(outcomeOf(nw, rep), spec.Nodes))
		if err := speed.sample(1); err != nil {
			return err
		}
		k := speed.factor(2)
		lats, rawLats = append(lats, lat*k), append(rawLats, lat)
	}
	note("scale-10k seed=%d: %d runs, %d events and %d broadcasts each", cfg.seed, len(lats), ref.events, ref.radio.Broadcasts)

	if sp == nil {
		speed.note()
		note("host seconds before scaling: set-up %.4f, run %.4f", median(rawSetups), median(rawLats))
		r.set("setup_s", median(setups))
		r.set("peak_rss_mb", median(rss))
		setClosedLoop(r, lats)
		return nil
	}
	if err := prof.stop(r); err != nil {
		return err
	}
	mem.report(r, len(lats))
	r.set("experiment.build_s", median(sp["experiment.build"]))
	r.set("experiment.build_cold_s", median(colds))
	r.set("node.run_s", median(sp["node.run"]))
	r.set("metrics.collect_s", median(sp["metrics.collect"]))
	setKernelRadio(r, float64(ref.events), median(sp["node.run"]), ref.radio)
	return nil
}

// timedRun times one Build → Run → Collect. A traced run passes sp, which
// records the time of each of the three calls.
func timedRun(rc experiment.RunConfig, sp spans) (*node.Network, metrics.RunReport, float64, error) {
	t0 := time.Now()
	nw, rc, err := experiment.Build(rc)
	if err != nil {
		return nil, metrics.RunReport{}, 0, err
	}
	t1 := time.Now()
	nw.Run(rc.Scenario.Horizon)
	t2 := time.Now()
	rep := metrics.Collect(nw.Nodes, rc.Scenario.Horizon)
	t3 := time.Now()
	if sp != nil {
		sp.add("experiment.build", t1.Sub(t0))
		sp.add("node.run", t2.Sub(t1))
		sp.add("metrics.collect", t3.Sub(t2))
	}
	return nw, rep, t3.Sub(t0).Seconds(), nil
}

// setClosedLoop sets the latency-shaped end-to-end metrics of a workload
// that runs one operation at a time, from each operation's host time. The
// operation is the workload's whole unit of work (one run, one pass), so
// run_s, sweep_s and latency_p50_ms are its median and max_rate_rps its
// inverse: medians, because on a shared host a mean follows the slowest
// few operations. A run holds tens of operations, not the thousand a p99
// needs, so latency_p99_ms is the highest percentile with at least ten
// operations beyond it (never below the median).
func setClosedLoop(r *report, lats []float64) {
	m := median(lats)
	r.set("run_s", m)
	r.set("sweep_s", m)
	r.set("latency_p50_ms", 1000*m)
	r.set("latency_p99_ms", 1000*percentile(lats, max(0.5, min(0.99, 1-10/float64(len(lats))))))
	r.set("max_rate_rps", 1/m)
}

// setKernelRadio sets the sim.* and radio.* metrics from event and radio
// counts and the host time spent running those events.
func setKernelRadio(r *report, events, runSeconds float64, st radio.Stats) {
	r.set("sim.events", events)
	if events > 0 {
		r.set("sim.ns_per_event", runSeconds/events*1e9)
	}
	r.set("radio.broadcasts", float64(st.Broadcasts))
	r.set("radio.deliveries", float64(st.Delivered))
	r.set("radio.dropped_sleeping", float64(st.DroppedSleeping))
	if attempts := st.Delivered + st.DroppedLoss + st.DroppedSleeping + st.DroppedCollision; attempts > 0 {
		r.set("radio.delivery_ratio", float64(st.Delivered)/float64(attempts))
	}
}
