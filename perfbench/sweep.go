package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/diffusion"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/radio"
)

// sweepIDs are the experiments one sweep pass regenerates.
var sweepIDs = []string{"fig4", "fig5", "fig6", "fig7", "ext-predictors"}

// refsPerSide is how many times an untraced run times the arith reference
// between two set-ups or passes. A pass is one call into the program
// lasting tens of seconds, so the reference cannot run inside it; the
// samples on both sides bracket it.
const refsPerSide = 6

// sweepOptions is pasbench's full replication (seeds 1..8) on one worker
// per CPU. The seeds are fixed, not drawn from the workload seed: the
// ext-predictors storm cells make a pass take 2 s to 45 s depending on
// which eight seeds it runs (README.md), so only a fixed seed set gives a
// sweep_s that a bound can hold.
func sweepOptions() experiment.Options {
	return experiment.Options{Seeds: experiment.DefaultSeeds(8), Parallelism: runtime.NumCPU()}
}

// sweepDigests are the SHA-256 digests of each experiment's table at
// sweepOptions, as Result.Render returns it (the table `pasbench -exp <id>`
// prints, without its final newline), taken when the benchmark was defined.
// Every pass is checked against them, so a change to simulated output fails
// the sweep until the change updates these digests with it.
var sweepDigests = map[string]string{
	"fig4":           "b112193e8c48461a28ea9bf4e34ed4ffb90fdc328b5e5f5361d3549ddb46a67e",
	"fig5":           "e66ea672175a5b36340e86ce7609c8e314109fb2026f76aad5bac434c30c57b5",
	"fig6":           "f86a6252926d9a36b124ff4a5397003c10b03f55e149c6aa70a32c9ffdf6859a",
	"fig7":           "48344ce20ba32abbe9a360faddb3a4021ea96c4f79e4f622b77652ff7e824a34",
	"ext-predictors": "0af2b186b653e077cbc54930abe339c7186cdc2de29eda186ca02bc2b4519dd0",
}

// checkTables checks one pass's tables against sweepDigests.
func checkTables(r *report, res map[string]experiment.Result) {
	for _, id := range sweepIDs {
		table := res[id].Render()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(table))); got != sweepDigests[id] {
			r.op(fmt.Errorf("%s: table has SHA-256 %s, want %s:\n%s", id, got, sweepDigests[id], table))
			continue
		}
		r.op(nil)
	}
}

// runSweep drives the sweep workload: passes over the five experiments
// through experiment.Lookup(id).Run, in an order drawn from the workload
// seed.
func runSweep(cfg config, r *report) error {
	opts := sweepOptions()
	order := append([]string(nil), sweepIDs...)
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x5eed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	exps := map[string]experiment.Experiment{}
	for _, id := range order {
		e, ok := experiment.Lookup(id)
		if !ok {
			return fmt.Errorf("no experiment %q", id)
		}
		exps[id] = e
	}
	note("sweep order %v, seeds %v, parallelism %d", order, opts.Seeds, opts.Parallelism)

	// Set-up: fig4 builds (then reuses) every deployment and CSR topology of
	// its seeds, and the plume PDE is the stimulus ext-predictors builds.
	// Each rep runs fig4 on eight seeds no earlier rep used, so every rep
	// builds its deployments and topologies cold; the last rep's seeds are
	// the pass's, which leaves the caches warm for the timed passes.
	// An untraced run scales every set-up and pass by the arith reference
	// timed before and after it (reference.go); rawSetups and rawLats keep
	// the host seconds for the notes.
	var speed *hostSpeed
	if !cfg.trace {
		speed = &hostSpeed{ref: arithRef}
	}
	if err := speed.sample(refsPerSide); err != nil {
		return err
	}
	var setups, rawSetups, plumes []float64
	for i := setupReps - 1; i >= 0; i-- {
		// On one worker, like scale-10k's set-up, so that its time does not
		// follow how well two workers overlapped (README.md).
		cold := opts
		cold.Parallelism = 1
		cold.Seeds = make([]int64, len(opts.Seeds))
		for k, seed := range opts.Seeds {
			cold.Seeds[k] = seed + int64(i*len(opts.Seeds))
		}
		t0 := time.Now()
		if _, err := exps["fig4"].Run(cold); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := diffusion.PlumeScenario(); err != nil {
			return err
		}
		plumes = append(plumes, time.Since(t1).Seconds())
		setup := time.Since(t0).Seconds()
		if err := speed.sample(refsPerSide); err != nil {
			return err
		}
		setups, rawSetups = append(setups, setup*speed.factor(2*refsPerSide)), append(rawSetups, setup)
	}

	pass := func(sp spans) (map[string]experiment.Result, float64, error) {
		out := map[string]experiment.Result{}
		t0 := time.Now()
		for _, id := range order {
			t1 := time.Now()
			res, err := exps[id].Run(opts)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", id, err)
			}
			if sp != nil {
				sp.add("exp."+id, time.Since(t1))
			}
			out[id] = res
		}
		return out, time.Since(t0).Seconds(), nil
	}

	if cfg.trace {
		return traceSweep(r, order, pass, plumes)
	}

	// Timed passes, at least one; every pass is checked after it is timed.
	window := time.Duration(cfg.seconds * float64(time.Second))
	var lats, rawLats, rss []float64
	for start := time.Now(); len(lats) == 0 || time.Since(start) < window; {
		runtime.GC() // every pass starts from a collected heap (README.md)
		if err := resetPeakRSS(); err != nil {
			return err
		}
		res, lat, err := pass(nil)
		if err != nil {
			return err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		if err := speed.sample(refsPerSide); err != nil {
			return err
		}
		lats, rawLats = append(lats, lat*speed.factor(2*refsPerSide)), append(rawLats, lat)
		rss = append(rss, peak)
		checkTables(r, res)
	}
	speed.note()
	note("host seconds before scaling: set-up %.4f, pass %.4f", median(rawSetups), median(rawLats))
	r.set("setup_s", median(setups))
	r.set("peak_rss_mb", median(rss))
	setClosedLoop(r, lats)
	return nil
}

// traceSweep runs one profiled pass and checks its tables, then re-executes
// every cell of that pass alone through Build → Run → Collect to time it
// and read its kernel and radio counters, and checks that the cells fold
// into the pass's curves exactly.
func traceSweep(r *report, order []string,
	pass func(spans) (map[string]experiment.Result, float64, error), plumes []float64) error {
	sp := spans{}
	runtime.GC()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var mem memDelta
	mem.begin()
	results, wall, err := pass(sp)
	mem.end()
	if err != nil {
		return err
	}
	checkTables(r, results)
	if err := prof.stop(r); err != nil {
		return err
	}
	mem.report(r, 1)
	for _, id := range order {
		r.set("exp."+id+"_s", sum(sp["exp."+id]))
	}
	r.set("diffusion.plume_build_s", median(plumes))

	plume, err := diffusion.PlumeScenario()
	if err != nil {
		return err
	}
	seeds := sweepOptions().Seeds
	var (
		cellTimes []float64
		events    uint64
		st        radio.Stats
		slowest   struct {
			id, label string
			seed      int64
			s         float64
			bc        int
		}
		maxBC int
	)
	for _, id := range order {
		for _, g := range sweepCells(id, plume) {
			var agg metrics.Aggregate
			for _, seed := range seeds {
				rc := g.rc
				rc.Seed = seed
				nw, rep, lat, err := timedRun(rc, sp)
				if err != nil {
					return err
				}
				agg.Add(rep)
				cellTimes = append(cellTimes, lat)
				events += nw.Kernel.Processed()
				cs := nw.Medium.Stats()
				st.Broadcasts += cs.Broadcasts
				st.Delivered += cs.Delivered
				st.DroppedLoss += cs.DroppedLoss
				st.DroppedSleeping += cs.DroppedSleeping
				st.DroppedCollision += cs.DroppedCollision
				maxBC = max(maxBC, cs.Broadcasts)
				if lat > slowest.s {
					slowest.id, slowest.label, slowest.seed, slowest.s, slowest.bc = id, g.label, seed, lat, cs.Broadcasts
				}
			}
			r.op(g.check(id, results[id], agg))
		}
	}
	note("straggler %s %s seed=%d: %.3f s, %d broadcasts", slowest.id, slowest.label, slowest.seed, slowest.s, slowest.bc)
	r.set("experiment.build_s", median(sp["experiment.build"]))
	r.set("node.run_s", median(sp["node.run"]))
	r.set("metrics.collect_s", median(sp["metrics.collect"]))
	setKernelRadio(r, float64(events), sum(sp["node.run"]), st)
	r.set("sweep.cells", float64(len(cellTimes)))
	r.set("sweep.cell_p50_ms", 1000*median(cellTimes))
	r.set("sweep.cell_max_s", slowest.s)
	r.set("sweep.max_cell_seed", float64(slowest.seed))
	r.set("sweep.max_cell_broadcasts", float64(maxBC))
	r.set("sweep.worker_busy_frac", sum(cellTimes)/(wall*float64(sweepOptions().Parallelism)))
	return nil
}

// cellGroup is one sweep cell (a run config replicated over the seeds) and
// the curve points its aggregate must reproduce.
type cellGroup struct {
	label  string
	rc     experiment.RunConfig
	points []pointCheck
}

// pointCheck names one point of an experiment's curves and how the cell
// aggregate yields its value and confidence interval.
type pointCheck struct {
	curve, point int
	pick         func(metrics.Aggregate) (float64, float64)
}

func delayOf(a metrics.Aggregate) (float64, float64)  { return a.Delay.Mean(), a.Delay.CI95() }
func energyOf(a metrics.Aggregate) (float64, float64) { return a.Energy.Mean(), a.Energy.CI95() }
func rmseOf(a metrics.Aggregate) (float64, float64)   { return a.PredRMSE.Mean(), a.PredRMSE.CI95() }

func (g cellGroup) check(id string, res experiment.Result, agg metrics.Aggregate) error {
	for _, p := range g.points {
		if p.curve >= len(res.Curves) || p.point >= len(res.Curves[p.curve].Points) {
			return fmt.Errorf("%s %s: pass has no curve %d point %d", id, g.label, p.curve, p.point)
		}
		got := res.Curves[p.curve].Points[p.point]
		y, ci := p.pick(agg)
		if got.Y != y || got.CI != ci {
			return fmt.Errorf("%s %s: cells alone give %v ± %v, the pass %v ± %v", id, g.label, y, ci, got.Y, got.CI)
		}
	}
	return nil
}

// maxSleepRun is the Figs. 4/6 cell: one protocol at one sleep cap, with
// the ramp increment at a fifth of the cap.
func maxSleepRun(protocol string, maxSleep float64) experiment.RunConfig {
	rc := experiment.RunConfig{Protocol: protocol}.Defaults()
	rc.PAS.SleepMax, rc.PAS.SleepIncrement = maxSleep, maxSleep/5
	rc.SAS.SleepMax, rc.SAS.SleepIncrement = maxSleep, maxSleep/5
	return rc
}

// sweepCells lists the cells experiment id runs at full replication, in the
// experiment's own order, mirroring its definition in internal/experiment.
// A mirror that drifts from the definition fails the traced run's check.
func sweepCells(id string, plume diffusion.Scenario) []cellGroup {
	var out []cellGroup
	switch id {
	case "fig4", "fig6":
		pick := delayOf
		if id == "fig6" {
			pick = energyOf
		}
		for pi, proto := range []string{experiment.ProtoNS, experiment.ProtoPAS, experiment.ProtoSAS} {
			for xi, x := range []float64{5, 10, 15, 20, 25, 30} {
				out = append(out, cellGroup{
					label:  fmt.Sprintf("%s maxSleep=%g", proto, x),
					rc:     maxSleepRun(proto, x),
					points: []pointCheck{{pi, xi, pick}},
				})
			}
		}
	case "fig5", "fig7":
		pick := delayOf
		if id == "fig7" {
			pick = energyOf
		}
		for xi, x := range []float64{10, 15, 20, 25, 30} {
			rc := experiment.RunConfig{Protocol: experiment.ProtoPAS}.Defaults()
			rc.PAS.AlertThreshold, rc.PAS.SleepMax, rc.PAS.SleepIncrement = x, 30, 6
			out = append(out, cellGroup{
				label:  fmt.Sprintf("pas alert=%g", x),
				rc:     rc,
				points: []pointCheck{{0, xi, pick}},
			})
		}
	case "ext-predictors":
		type variant struct{ label, protocol, predictor string }
		vs := []variant{{"ns", experiment.ProtoNS, ""}, {"sas", experiment.ProtoSAS, ""}}
		for _, k := range predict.Kinds() {
			vs = append(vs, variant{"pas/" + k, experiment.ProtoPAS, k})
		}
		for si, stim := range []string{"radial", "plume"} {
			for vi, v := range vs {
				rc := maxSleepRun(v.protocol, 20)
				if stim == "plume" {
					rc.Scenario = plume
				}
				if v.predictor != "" {
					rc.PAS.Predictor = predict.Spec{Kind: v.predictor}
				}
				out = append(out, cellGroup{
					label: stim + " " + v.label,
					rc:    rc,
					points: []pointCheck{
						{3 * si, vi, delayOf}, {3*si + 1, vi, energyOf}, {3*si + 2, vi, rmseOf},
					},
				})
			}
		}
	}
	return out
}
