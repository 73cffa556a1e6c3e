package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/predict"
	"repro/internal/radio"
)

// warmAlertAgent returns a PAS agent in the alert state whose report table
// already holds one RESPONSE from each of 8 covered neighbours, plus the
// envelopes those neighbours sent (indexed by sender ID − 1). Each report
// arrives twice during the probe window, and the Decision hook must still
// count 8 neighbours. The neighbours are not wired to the medium, so
// re-delivering an envelope exercises only the receiver: table update,
// prediction refresh and rebroadcast gate.
func warmAlertAgent(tb testing.TB, kind string) (*Agent, *node.Node, []radio.Envelope) {
	tb.Helper()
	k, m := rig()
	cfg := testConfig()
	cfg.Predictor = predict.Spec{Kind: kind}
	decided := -1
	cfg.Hook = &Hook{Decision: func(_ int, _ float64, reports int, _ bool) { decided = reports }}
	a := New(cfg)
	target := geom.V(0, 0)
	n := addNode(k, m, 0, target, farStimulus(), a)
	n.Start()
	envs := make([]radio.Envelope, 8)
	for i := range envs {
		from := geom.V(4+float64(i)/2, 0).Rotate(float64(i) * 0.7)
		envs[i] = imminentResponse(from, target, 1+float64(i)/8, 0).Envelope()
		a.OnMessage(n, radio.NodeID(i+1), envs[i])
	}
	for i := len(envs) - 1; i >= 0; i-- {
		a.OnMessage(n, radio.NodeID(i+1), envs[i])
	}
	k.RunUntil(0.5) // the probe window closes on the full table
	if n.State() != node.StateAlert || decided != len(envs) || a.reports.Len() != len(envs) {
		tb.Fatalf("precondition: state %v, decided on %d reports, table holds %d; want alert, %d, %d",
			n.State(), decided, a.reports.Len(), len(envs), len(envs))
	}
	return a, n, envs
}

// TestHandleResponseZeroAllocs pins the PAS receive path: a warm alert agent
// taking a RESPONSE from an already-known neighbour allocates nothing.
func TestHandleResponseZeroAllocs(t *testing.T) {
	for _, kind := range []string{predict.KindPaper, predict.KindLMS} {
		a, n, envs := warmAlertAgent(t, kind)
		txBefore := n.Meter().Breakdown().TxJ
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			a.OnMessage(n, radio.NodeID(i%len(envs)+1), envs[i%len(envs)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per RESPONSE, want 0", kind, allocs)
		}
		if n.State() != node.StateAlert {
			t.Errorf("%s: state %v after the loop, want alert", kind, n.State())
		}
		if n.Meter().Breakdown().TxJ != txBefore {
			t.Errorf("%s: repeated reports triggered a rebroadcast", kind)
		}
	}
}

// BenchmarkAgentHandleResponse measures one RESPONSE from a known neighbour
// at a warm alert agent with an 8-neighbour table — the per-message cost
// that dominates message-dense sweep cells.
func BenchmarkAgentHandleResponse(b *testing.B) {
	for _, kind := range []string{predict.KindPaper, predict.KindLMS} {
		b.Run(kind, func(b *testing.B) {
			a, n, envs := warmAlertAgent(b, kind)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				a.OnMessage(n, radio.NodeID(i%len(envs)+1), envs[i%len(envs)])
			}
		})
	}
}
