package sas

import (
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/diffusion"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sim"
)

// probeAgent is an always-awake scripted neighbour.
type probeAgent struct {
	onMsg func(n *node.Node, from radio.NodeID, env radio.Envelope)
	got   []radio.Envelope
}

func (p *probeAgent) Init(*node.Node)           {}
func (p *probeAgent) OnWake(*node.Node)         {}
func (p *probeAgent) OnDetect(*node.Node)       {}
func (p *probeAgent) OnStimulusGone(*node.Node) {}
func (p *probeAgent) OnMessage(n *node.Node, from radio.NodeID, env radio.Envelope) {
	p.got = append(p.got, env)
	if p.onMsg != nil {
		p.onMsg(n, from, env)
	}
}

func sasRig() (*sim.Kernel, *radio.Medium) {
	k := sim.NewKernel()
	st := rng.NewSource(2).Stream("channel")
	m := radio.NewMedium(k, geom.R(-50, -50, 50, 50), energy.Telos(), radio.UnitDisk{Range: 15}, st)
	return k, m
}

func addSASNode(k *sim.Kernel, m *radio.Medium, id radio.NodeID, pos geom.Vec2, stim diffusion.Stimulus, a node.Agent) *node.Node {
	return node.New(node.Config{
		ID: id, Pos: pos, Kernel: k, Medium: m,
		Stimulus: stim, Profile: energy.Telos(), Agent: a,
	})
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.SleepInit = 1
	cfg.SleepIncrement = 1
	cfg.SleepMax = 3
	cfg.AlertThreshold = 10
	return cfg
}

func TestDefaultConfigMirrorsPAS(t *testing.T) {
	p := core.DefaultConfig()
	s := DefaultConfig()
	if s.AlertThreshold != p.AlertThreshold || s.SleepMax != p.SleepMax ||
		s.SleepInit != p.SleepInit || s.SleepIncrement != p.SleepIncrement {
		t.Error("SAS defaults diverge from PAS defaults")
	}
}

func TestOnlyCoveredNodesRespond(t *testing.T) {
	// A SAS node in the alert state must NOT answer a REQUEST (the paper's
	// key distinction from PAS).
	k, m := sasRig()
	stim := diffusion.NewRadialFront(geom.V(-1e6, 0), 0.001, 0) // never arrives
	agent := New(testCfg())
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	probe := &probeAgent{}
	pn := addSASNode(k, m, 1, geom.V(5, 0), stim, probe)
	// Force the SAS node into alert by feeding it a covered report during
	// its initial window.
	k.Schedule(0.01, func(*sim.Kernel) {
		pn.Broadcast(core.Response{
			Pos: geom.V(5, 0), State: node.StateCovered,
			Velocity: core.ScalarVelocity(1), HasVelocity: true,
			PredictedArrival: 0, DetectedAt: 0, Detected: true,
		}.Envelope())
	})
	k.Schedule(1, func(*sim.Kernel) { pn.Broadcast(core.Request{}.Envelope()) })
	n.Start()
	pn.Start()
	k.RunUntil(2)
	if n.State() != node.StateAlert {
		t.Fatalf("precondition: state = %v, want alert", n.State())
	}
	for _, env := range probe.got {
		if env.Kind == radio.KindResponse {
			t.Fatal("non-covered SAS node transmitted alert information")
		}
	}
}

func TestCoveredNodeAnswersRequest(t *testing.T) {
	k, m := sasRig()
	stim := diffusion.NewRadialFront(geom.V(-10, 0), 1, 0) // arrives at (0,0) at t=10
	agent := New(testCfg())
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	probe := &probeAgent{}
	pn := addSASNode(k, m, 1, geom.V(5, 0), stim, probe)
	k.Schedule(14, func(*sim.Kernel) { pn.Broadcast(core.Request{}.Envelope()) })
	n.Start()
	pn.Start()
	k.RunUntil(15)
	if n.State() != node.StateCovered {
		t.Fatalf("precondition: state = %v, want covered", n.State())
	}
	responses := 0
	for _, env := range probe.got {
		if env.Kind == radio.KindResponse {
			responses++
		}
	}
	if responses == 0 {
		t.Error("covered SAS node did not answer the REQUEST")
	}
}

func TestScalarSpeedEstimate(t *testing.T) {
	// Neighbour covered at t=5 at (-5,0); SAS node at origin covered at
	// t=10 → scalar speed = 5/(10-5) = 1, carried as a magnitude.
	k, m := sasRig()
	stim := diffusion.NewRadialFront(geom.V(-10, 0), 1, 0)
	agent := New(testCfg())
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	probe := &probeAgent{}
	probe.onMsg = func(pn *node.Node, _ radio.NodeID, env radio.Envelope) {
		if env.Kind != radio.KindRequest {
			return
		}
		if pn.Now() < 5 {
			return
		}
		pn.Broadcast(core.Response{
			Pos: pn.Pos(), State: node.StateCovered,
			PredictedArrival: 5, DetectedAt: 5, Detected: true,
		}.Envelope())
	}
	pn := addSASNode(k, m, 1, geom.V(-5, 0), stim, probe)
	n.Start()
	pn.Start()
	k.RunUntil(15)
	if n.State() != node.StateCovered {
		t.Fatalf("state = %v, want covered", n.State())
	}
	sawSpeed := false
	for _, env := range probe.got {
		if r := core.ResponseFromEnvelope(env); env.Kind == radio.KindResponse && r.HasVelocity {
			sawSpeed = true
			speed := r.Velocity.Norm()
			// Detection lag shrinks the estimate slightly below 1.
			if speed < 0.4 || speed > 1.05 {
				t.Errorf("scalar speed = %v, want ≈1", speed)
			}
		}
	}
	if !sawSpeed {
		t.Error("covered SAS node never broadcast a speed estimate")
	}
}

func TestSASNetworkDetectsEverything(t *testing.T) {
	sc := diffusion.PaperScenario()
	dep := deploy.ConnectedUniform(rng.NewSource(7).Stream("deploy"), sc.Field, 30, 10, 500)
	cfg := DefaultConfig()
	nw := node.BuildNetwork(node.NetworkConfig{
		Deployment: dep,
		Stimulus:   sc.Stimulus,
		Profile:    energy.Telos(),
		Loss:       radio.UnitDisk{Range: 10},
		Agents:     func(radio.NodeID) node.Agent { return New(cfg) },
	})
	nw.Run(sc.Horizon)
	detected := 0
	for _, n := range nw.Nodes {
		if d, ok := n.DetectionDelay(); ok {
			detected++
			if d < 0 {
				t.Fatalf("negative delay %v", d)
			}
			if d > cfg.SleepMax*1.3+1 {
				t.Errorf("node %d delay %v exceeds jittered max sleep", n.ID(), d)
			}
		}
	}
	if detected < 25 {
		t.Fatalf("only %d/30 SAS nodes detected", detected)
	}
	// SAS also saves energy against always-on.
	nsEnergy := 0.041 * sc.Horizon
	var total float64
	for _, n := range nw.Nodes {
		total += n.Meter().TotalJ()
	}
	if mean := total / float64(len(nw.Nodes)); mean >= nsEnergy {
		t.Errorf("SAS mean energy %v not below always-on %v", mean, nsEnergy)
	}
}

func TestPASBeatsSASOnDelay(t *testing.T) {
	// The paper's headline comparison (Fig. 4): same deployment, same sleep
	// schedule — PAS should see lower average detection delay because its
	// alert information propagates beyond the covered nodes' one-hop
	// neighbourhood. Averaged over a few seeds to damp simulation noise.
	var pasSum, sasSum float64
	seeds := []int64{3, 5, 7, 11, 13, 17, 19, 23}
	for _, seed := range seeds {
		sc := diffusion.PaperScenario()
		dep := deploy.ConnectedUniform(rng.NewSource(seed).Stream("deploy"), sc.Field, 30, 10, 500)
		run := func(agents func(radio.NodeID) node.Agent) float64 {
			nw := node.BuildNetwork(node.NetworkConfig{
				Deployment: dep,
				Stimulus:   sc.Stimulus,
				Profile:    energy.Telos(),
				Loss:       radio.UnitDisk{Range: 10},
				Agents:     agents,
			})
			nw.Run(sc.Horizon)
			var sum float64
			n := 0
			for _, nd := range nw.Nodes {
				if d, ok := nd.DetectionDelay(); ok {
					sum += d
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		}
		pasCfg := core.DefaultConfig()
		pasCfg.SleepMax = 30
		pasCfg.SleepIncrement = 6
		sasCfg := DefaultConfig()
		sasCfg.SleepMax = 30
		sasCfg.SleepIncrement = 6
		pasSum += run(func(radio.NodeID) node.Agent { return core.New(pasCfg) })
		sasSum += run(func(radio.NodeID) node.Agent { return New(sasCfg) })
	}
	k := float64(len(seeds))
	if pasSum >= sasSum {
		t.Errorf("PAS mean delay %v not below SAS %v", pasSum/k, sasSum/k)
	}
}

func TestSASCoveredReturnsToSafeOnReceding(t *testing.T) {
	// A receding stimulus covers (0,0) during t∈[10,15); after the dwell and
	// the detection timeout the node must fall back to safe and sleep again.
	inner := diffusion.NewRadialFront(geom.V(-10, 0), 1, 0)
	stim := diffusion.NewReceding(inner, 5)
	k, m := sasRig()
	cfg := testCfg()
	cfg.DetectionTimeout = 2
	agent := New(cfg)
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	n.Start()
	k.RunUntil(13)
	if n.State() != node.StateCovered {
		t.Fatalf("state at t=13 = %v, want covered", n.State())
	}
	// Dwell ends at 15, timeout 2 → safe by ~17.5.
	k.RunUntil(25)
	if n.State() != node.StateSafe {
		t.Errorf("state after receding = %v, want safe", n.State())
	}
}

func TestSASAlertDropsWhenReportsAge(t *testing.T) {
	k, m := sasRig()
	stim := diffusion.NewRadialFront(geom.V(-1e6, 0), 0.001, 0)
	cfg := testCfg()
	cfg.MaxReportAge = 2
	cfg.AlertReassess = 0.5
	agent := New(cfg)
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	probe := &probeAgent{}
	pn := addSASNode(k, m, 1, geom.V(5, 0), stim, probe)
	k.Schedule(0.01, func(*sim.Kernel) {
		pn.Broadcast(core.Response{
			Pos: geom.V(5, 0), State: node.StateCovered,
			Velocity: core.ScalarVelocity(0.5), HasVelocity: true,
			PredictedArrival: 0, DetectedAt: 0, Detected: true,
		}.Envelope())
	})
	n.Start()
	pn.Start()
	k.RunUntil(0.5)
	if n.State() != node.StateAlert {
		t.Fatalf("precondition: state = %v", n.State())
	}
	k.RunUntil(5)
	if n.State() != node.StateSafe {
		t.Errorf("state after aging = %v, want safe", n.State())
	}
}

func TestSASIgnoresUselessReports(t *testing.T) {
	// Reports without detection or with zero speed must not produce finite
	// arrival estimates (the node stays safe and sleeps).
	k, m := sasRig()
	stim := diffusion.NewRadialFront(geom.V(-1e6, 0), 0.001, 0)
	agent := New(testCfg())
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	probe := &probeAgent{}
	pn := addSASNode(k, m, 1, geom.V(5, 0), stim, probe)
	k.Schedule(0.01, func(*sim.Kernel) {
		// Alert-state report: SAS must ignore it (only covered count).
		pn.Broadcast(core.Response{
			Pos: geom.V(5, 0), State: node.StateAlert,
			Velocity: core.ScalarVelocity(1), HasVelocity: true,
			PredictedArrival: 3,
		}.Envelope())
	})
	k.Schedule(0.02, func(*sim.Kernel) {
		// Covered report with zero speed: unusable.
		pn.Broadcast(core.Response{
			Pos: geom.V(5, 0), State: node.StateCovered,
			Velocity: core.ScalarVelocity(0), HasVelocity: true,
			PredictedArrival: 0, DetectedAt: 0, Detected: true,
		}.Envelope())
	})
	n.Start()
	pn.Start()
	k.RunUntil(0.5)
	if n.State() != node.StateSafe {
		t.Errorf("state = %v, want safe (no usable report)", n.State())
	}
	if n.IsAwake() {
		t.Error("node stayed awake on useless reports")
	}
}

func TestSASZeroStagger(t *testing.T) {
	// ResponseStagger 0 answers REQUESTs synchronously.
	k, m := sasRig()
	stim := diffusion.NewRadialFront(geom.V(-10, 0), 1, 0)
	cfg := testCfg()
	cfg.ResponseStagger = 0
	agent := New(cfg)
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	probe := &probeAgent{}
	pn := addSASNode(k, m, 1, geom.V(5, 0), stim, probe)
	k.Schedule(14, func(*sim.Kernel) { pn.Broadcast(core.Request{}.Envelope()) })
	n.Start()
	pn.Start()
	k.RunUntil(15)
	got := 0
	for _, env := range probe.got {
		if env.Kind == radio.KindResponse {
			got++
		}
	}
	if got == 0 {
		t.Error("no synchronous response")
	}
}

// TestHandleResponseZeroAllocs pins the SAS receive path: a warm alert agent
// taking a RESPONSE from an already-known covered neighbour allocates
// nothing.
func TestHandleResponseZeroAllocs(t *testing.T) {
	k, m := sasRig()
	stim := diffusion.NewRadialFront(geom.V(-1e6, 0), 0.001, 0) // never arrives
	agent := New(testCfg())
	n := addSASNode(k, m, 0, geom.V(0, 0), stim, agent)
	n.Start()
	envs := make([]radio.Envelope, 8)
	for i := range envs {
		envs[i] = core.Response{
			Pos: geom.V(4+float64(i)/2, 0).Rotate(float64(i) * 0.7), State: node.StateCovered,
			Velocity: core.ScalarVelocity(1 + float64(i)/8), HasVelocity: true,
			PredictedArrival: 0, DetectedAt: 0, Detected: true,
		}.Envelope()
		agent.OnMessage(n, radio.NodeID(i+1), envs[i])
	}
	k.RunUntil(0.5)
	if n.State() != node.StateAlert || agent.reports.Len() != len(envs) {
		t.Fatalf("precondition: state %v with %d reports, want alert with %d",
			n.State(), agent.reports.Len(), len(envs))
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		agent.OnMessage(n, radio.NodeID(i%len(envs)+1), envs[i%len(envs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per RESPONSE, want 0", allocs)
	}
	if n.State() != node.StateAlert {
		t.Errorf("state %v after the loop, want alert", n.State())
	}
}
