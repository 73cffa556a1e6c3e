package main

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A reference is a fixed computation in the benchmark's own code that calls
// nothing of the program's, so no change to the program can change it. An
// untraced run times its workload's reference before and after each timed
// span and scales the span by nominal over the middle of those reference
// times: a span measured while the shared host ran slow is scaled down by
// as much as the reference around it slowed. The timings then read as
// seconds on the host where the benchmark was defined, at the speed it had
// when nominal was measured (README.md, "Scaling by a reference").
type reference struct {
	name    string
	nominal float64 // median seconds of one computation on the defining host
	time    func() (float64, error)
}

// memoryRef has scale-10k's profile: an event heap over 10,000 nodes, each
// event delivered to eight neighbours and written into a per-node map,
// every structure allocated afresh, a working set of megabytes. The
// collector is off while it runs, so its time does not depend on the
// program's live heap.
var memoryRef = reference{name: "memory", nominal: 0.070, time: timeMemory}

// arithRef has the profile of the sweep's and the server's small
// simulations: one core's arithmetic on a working set that stays in cache.
// It is a chain of dependent floating-point multiply-adds, which allocates
// nothing and touches no memory.
var arithRef = reference{name: "arith", nominal: 0.060, time: timeArith}

// Sizes and expected results of the two computations; a result that
// differs is an error, not a measurement.
const (
	memNodes    = 10_000
	memFanout   = 8
	memEvents   = 60_000
	memChecksum = 0x8ae73e1e

	arithSteps  = 20_000_000
	arithMul    = 1.0000001
	arithAdd    = 1e-9
	arithResult = 7.452945927591074
)

type memEvent struct {
	at   float64
	node int32
}

type memQueue []memEvent

func (q memQueue) Len() int           { return len(q) }
func (q memQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q memQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *memQueue) Push(x any)        { *q = append(*q, x.(memEvent)) }
func (q *memQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func timeMemory() (float64, error) {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gcPercent)
		runtime.GC()
	}()

	t0 := time.Now()
	rng := rand.New(rand.NewPCG(1, 0x4ef))
	neighbours := make([][]int32, memNodes)
	for i := range neighbours {
		for range memFanout {
			neighbours[i] = append(neighbours[i], int32(rng.IntN(memNodes)))
		}
	}
	heard := make([]map[int32]float64, memNodes)
	for i := range heard {
		heard[i] = map[int32]float64{}
	}
	q := &memQueue{}
	for i := range memNodes {
		heap.Push(q, memEvent{rng.Float64(), int32(i)})
	}
	for range memEvents {
		e := heap.Pop(q).(memEvent)
		for _, j := range neighbours[e.node] {
			heard[j][e.node] = e.at
		}
		heap.Push(q, memEvent{e.at + rng.Float64(), e.node})
	}
	sum := uint32(0)
	for i, m := range heard {
		sum = sum*31 + uint32(len(m)) + uint32(i)
	}
	elapsed := time.Since(t0).Seconds()
	if sum != memChecksum {
		return 0, fmt.Errorf("memory reference gave checksum %#x, want %#x", sum, uint32(memChecksum))
	}
	return elapsed, nil
}

func timeArith() (float64, error) {
	t0 := time.Now()
	f := 1.0
	for range arithSteps {
		f = f*arithMul + arithAdd
	}
	elapsed := time.Since(t0).Seconds()
	if f != arithResult {
		return 0, fmt.Errorf("arith reference gave %v, want %v", f, arithResult)
	}
	return elapsed, nil
}

// hostSpeed times one reference through a run.
type hostSpeed struct {
	ref     reference
	samples []float64
}

// sample times the reference n times. A nil h (a traced run) times
// nothing.
func (h *hostSpeed) sample(n int) error {
	if h == nil {
		return nil
	}
	for range n {
		s, err := h.ref.time()
		if err != nil {
			return err
		}
		h.samples = append(h.samples, s)
	}
	return nil
}

// factor returns nominal over the middle of the last n reference times:
// the factor for the span those times bracket. A nil h returns 1.
func (h *hostSpeed) factor(n int) float64 {
	if h == nil {
		return 1
	}
	last := append([]float64(nil), h.samples[len(h.samples)-n:]...)
	sort.Float64s(last)
	mid := (last[(n-1)/2] + last[n/2]) / 2
	return h.ref.nominal / mid
}

// note prints the run's reference times beside the metrics.
func (h *hostSpeed) note() {
	note("host reference %s: median %.4f s over %d samples, nominal %.3f s",
		h.ref.name, median(h.samples), len(h.samples), h.ref.nominal)
}
