package predict

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/radio"
)

// sortedSnapshot is the oracle for Table: the report map plus ID sort that
// the agents used to rebuild on every refresh.
func sortedSnapshot(m map[radio.NodeID]Report) []Report {
	out := make([]Report, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	slices.SortFunc(out, func(x, y Report) int { return int(x.ID) - int(y.ID) })
	return out
}

// TestTableMatchesSortedMap applies random Put sequences — repeated senders,
// out-of-order arrival — and checks after every step that the table equals
// the sorted map snapshot element for element, and that Len is the map's
// size (the report count the agents hand to Hook.Decision).
func TestTableMatchesSortedMap(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		var tab Table
		oracle := map[radio.NodeID]Report{}
		maxID := 1 + r.IntN(16)
		for step := 0; step < 60; step++ {
			rep := Report{
				ID:               radio.NodeID(r.IntN(maxID)),
				Pos:              geom.V(r.Float64(), r.Float64()),
				State:            node.State(r.IntN(3)),
				Velocity:         geom.V(r.NormFloat64(), r.NormFloat64()),
				HasVelocity:      r.IntN(2) == 0,
				HasDirection:     r.IntN(2) == 0,
				PredictedArrival: r.Float64(),
				DetectedAt:       r.Float64(),
				Detected:         r.IntN(2) == 0,
				ReceivedAt:       float64(step),
			}
			tab.Put(rep)
			oracle[rep.ID] = rep
			want := sortedSnapshot(oracle)
			if !slices.Equal(tab.Reports(), want) {
				t.Fatalf("trial %d step %d: table %v, want %v", trial, step, tab.Reports(), want)
			}
			if tab.Len() != len(oracle) {
				t.Fatalf("trial %d step %d: Len %d, want %d", trial, step, tab.Len(), len(oracle))
			}
		}
	}
}

// TestTableZeroValue pins the empty table: no reports, nothing allocated.
func TestTableZeroValue(t *testing.T) {
	var tab Table
	if tab.Len() != 0 || tab.Reports() != nil {
		t.Fatalf("zero table: Len %d, Reports %v", tab.Len(), tab.Reports())
	}
}

// arrivalETAOracle is ArrivalETA as it read before the cosine reused the
// two norms: geom.Vec2.CosBetween recomputes both of them.
func arrivalETAOracle(x geom.Vec2, now float64, r Report) float64 {
	if !r.HasVelocity {
		return math.Inf(1)
	}
	speed := r.Velocity.Norm()
	if speed <= 0 {
		return math.Inf(1)
	}
	ix := x.Sub(r.Pos)
	dist := ix.Norm()
	var travel float64
	if r.HasDirection {
		cos := r.Velocity.CosBetween(ix)
		if dist > 0 && cos <= 0 {
			return math.Inf(1)
		}
		travel = dist * cos / speed
	} else {
		travel = dist / speed
	}
	var ref float64
	switch {
	case r.Detected:
		ref = r.DetectedAt
	case !math.IsInf(r.PredictedArrival, 1) && !math.IsNaN(r.PredictedArrival):
		ref = r.PredictedArrival
	default:
		return math.Inf(1)
	}
	eta := ref - now + travel
	if eta < 0 {
		return 0
	}
	return eta
}

// TestArrivalETABitIdentical compares ArrivalETA with the CosBetween
// formulation bit for bit, over random reports and the edge cases where the
// two could diverge: zero distance or velocity, (anti)parallel vectors
// where the clamp fires, speed-only reports, unknown arrivals and NaNs.
func TestArrivalETABitIdentical(t *testing.T) {
	check := func(x geom.Vec2, now float64, r Report) {
		t.Helper()
		got, want := ArrivalETA(x, now, r), arrivalETAOracle(x, now, r)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ArrivalETA(%v, %v, %+v) = %v, oracle %v", x, now, r, got, want)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	base := Report{ID: 1, Pos: geom.V(1, 2), State: node.StateAlert,
		Velocity: geom.V(3, 4), HasVelocity: true, HasDirection: true, PredictedArrival: 7}
	with := func(f func(*Report)) Report { r := base; f(&r); return r }
	edge := []struct {
		x geom.Vec2
		r Report
	}{
		{geom.V(1, 2), base}, // zero distance
		{geom.V(5, 5), with(func(r *Report) { r.Velocity = geom.Zero })},
		{geom.V(1, 2), with(func(r *Report) { r.Velocity = geom.Zero })},
		{geom.V(4, 6), base},                                               // parallel
		{geom.V(1+3e8, 2+4e8), base},                                       // parallel, far
		{geom.V(1+0.1, 2+0.1*4/3), base},                                   // nearly parallel
		{geom.V(-2, -2), base},                                             // antiparallel
		{geom.V(1-3e-9, 2-4e-9), base},                                     // antiparallel, near
		{geom.V(9, 9), with(func(r *Report) { r.HasDirection = false })},   // speed only
		{geom.V(9, 9), with(func(r *Report) { r.HasVelocity = false })},    // no velocity
		{geom.V(4, 6), with(func(r *Report) { r.PredictedArrival = inf })}, // unknown
		{geom.V(4, 6), with(func(r *Report) { r.PredictedArrival = nan })},
		{geom.V(4, 6), with(func(r *Report) { r.PredictedArrival = inf; r.Detected = true })},
		{geom.V(nan, 6), base},
		{geom.V(4, 6), with(func(r *Report) { r.Velocity = geom.V(nan, 1) })},
		{geom.V(4, 6), with(func(r *Report) { r.Velocity = geom.V(inf, 1) })},
		{geom.V(inf, 6), base},
		{geom.V(1e-300, 2), with(func(r *Report) { r.Pos = geom.V(0, 2); r.Velocity = geom.V(1e-300, 0) })},
	}
	for _, e := range edge {
		for _, now := range []float64{0, 6.5, 100} {
			check(e.x, now, e.r)
		}
	}
	r := rand.New(rand.NewPCG(3, 4))
	coord := func() float64 {
		switch r.IntN(8) {
		case 0:
			return 0
		case 1:
			return float64(r.IntN(5) - 2) // exact small integers line vectors up
		default:
			return r.NormFloat64() * math.Pow(10, float64(r.IntN(7)-3))
		}
	}
	for i := 0; i < 200000; i++ {
		rep := Report{
			ID: 1, Pos: geom.V(coord(), coord()), State: node.State(r.IntN(3)),
			Velocity:    geom.V(coord(), coord()),
			HasVelocity: r.IntN(8) != 0, HasDirection: r.IntN(4) != 0,
			PredictedArrival: coord(), DetectedAt: coord(), Detected: r.IntN(2) == 0,
		}
		if r.IntN(6) == 0 {
			// A velocity that is an exact multiple of the offset (or its
			// negation) drives the cosine to ±1 and through the clamp.
			k := float64(r.IntN(9) - 4)
			x := geom.V(coord(), coord())
			rep.Velocity = x.Sub(rep.Pos).Scale(k)
			check(x, coord(), rep)
			continue
		}
		check(geom.V(coord(), coord()), coord(), rep)
	}
}
