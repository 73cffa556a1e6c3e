package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spans holds a traced run's call durations in seconds by call name, each
// timed from the benchmark's side of the call.
type spans map[string][]float64

func (s spans) add(name string, d time.Duration) { s[name] = append(s[name], d.Seconds()) }

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuModel names the host CPU, so a number is never compared across hosts.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memDelta is the Go runtime's allocation and GC work between two
// runtime.ReadMemStats snapshots, taken around the timed calls of a traced
// run only (ReadMemStats stops the world).
type memDelta struct {
	start runtime.MemStats
	bytes uint64
	gcs   uint32
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.start) }

func (m *memDelta) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.bytes += now.TotalAlloc - m.start.TotalAlloc
	m.gcs += now.NumGC - m.start.NumGC
}

// report sets go.alloc_mb_per_run and go.gc_cycles_per_run over ops calls.
func (m *memDelta) report(r *report, ops int) {
	if ops == 0 {
		return
	}
	r.set("go.alloc_mb_per_run", float64(m.bytes)/1e6/float64(ops))
	r.set("go.gc_cycles_per_run", float64(m.gcs)/float64(ops))
}

// cpuLayers are the cpu.<layer> shares a traced run reports (foldProfile);
// samples in no layer are cpu.other.
var cpuLayers = []string{
	"sim", "radio", "core", "predict", "node", "geom", "experiment",
	"diffusion", "scenario", "serve", "store", "net", "gc",
}

// profile is a CPU profile written to a temp file while a traced run works.
type profile struct {
	f *os.File
}

func startProfile() (*profile, error) {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &profile{f: f}, nil
}

// stop ends the profile, folds its samples by package with
// `go tool pprof` and sets every cpu.* share.
func (p *profile) stop(r *report) error {
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return err
	}
	shares, err := foldProfile(p.f.Name())
	if err != nil {
		return err
	}
	for layer, share := range shares {
		r.set("cpu."+layer, share)
	}
	return nil
}

// foldProfile reads a profile's sample stacks with `go tool pprof -traces`
// and returns each layer's share of the program's CPU time. A sample counts
// toward the package of its leaf function when that is one of the
// program's packages; a standard-library leaf (a sort, a map lookup, an
// allocation) counts toward the innermost program frame that called it.
// Collector work counts as gc and network code under no program frame as
// net. Samples of the benchmark's own code (load generator, checks) are
// left out of the total.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares := map[string]float64{"other": 0}
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	total := 0.0
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) == 0 {
			return
		}
		if layer := layerOf(stack); layer != "" {
			shares[layer] += value.Seconds()
			total += value.Seconds()
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			// A separator ends one sample; the next line opens another with
			// its value, then the leaf function.
			flush()
			inTraces = true
		case !inTraces || line == "":
		case len(stack) == 0:
			v, leaf, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("pprof -traces: sample line %q", line)
			}
			if value, err = time.ParseDuration(v); err != nil {
				return nil, fmt.Errorf("pprof -traces: sample value %q: %w", v, err)
			}
			stack = append(stack, strings.TrimSuffix(strings.TrimSpace(leaf), " (inline)"))
		default:
			stack = append(stack, strings.TrimSuffix(line, " (inline)"))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no program samples", path)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// gcPrefixes name the runtime's collector functions: marking, scanning,
// sweeping, write barriers and assists.
var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gc", "runtime.scan", "runtime.markroot",
	"runtime.markBits", "runtime.greyobject", "runtime.findObject",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.bgsweep", "runtime.sweepone",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocke", "runtime.typePointers",
	"runtime.(*mspan).typePointersOf", "runtime.(*mspan).markBitsForIndex",
	"runtime.(*mspan).heapBitsSmallForAddr", "runtime.spanOf", "runtime.(*mheap).reclaim",
	"gcWriteBarrier",
}

// layerOf maps a sample stack, leaf first, to its cpu.* layer, or to ""
// for the benchmark's own work.
func layerOf(stack []string) string {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(stack[0], p) {
			return "gc"
		}
	}
	bench, network := false, false
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		bench = bench || strings.HasPrefix(fn, "main.")
		for _, p := range []string{"net.", "net/", "internal/poll.", "vendor/golang.org/x/net/"} {
			network = network || strings.HasPrefix(fn, p)
		}
	}
	switch {
	case bench:
		return ""
	case network:
		return "net"
	}
	return "other"
}
