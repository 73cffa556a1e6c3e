// Command perfbench is the repository benchmark. It runs one workload
// (scale-10k, sweep or serve) through the public functions of the
// simulator's packages, times each call from outside, checks the outputs,
// and prints every metric by name with its unit, then one JSON result line.
//
// Build and run it from the repository root through the wrapper, which keeps
// every build and run artefact under .bench_build:
//
//	bash perfbench/run.sh --workload scale-10k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it repeats the workload timing each call
// into a layer, with memory statistics and a CPU profile, and reports the
// per-layer metrics. README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// config is one invocation's command line.
type config struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to the function that runs it. That
// function returns an error only when the benchmark itself cannot run;
// output mismatches are recorded in the report and fail the run after the
// result is printed.
var workloads = map[string]func(cfg config, r *report) error{
	"scale-10k": runScale,
	"sweep":     runSweep,
	"serve":     runServe,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.root, "root", ".", "repository root holding BENCHMARK.json")
	fs.StringVar(&cfg.workload, "workload", "", "workload: scale-10k, sweep or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the program sees only inputs generated from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || cfg.seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload scale-10k|sweep|serve, --seed >= 0, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	sp, err := loadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("workload %s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	r := &report{values: map[string]float64{}}
	if err := runWorkload(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res, err := r.result(sp, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reports against: the
// metric names and units it must emit, so the two cannot drift apart.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var sp benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("%s: no metrics declared", path)
	}
	return sp, nil
}

// report accumulates one run's operations, failures and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
}

// op records one checked operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "check failed: %v\n", err)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// note prints a line of context beside the metrics (never parsed).
func note(format string, args ...any) { fmt.Printf("note "+format+"\n", args...) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result checks the recorded values against the declared metrics and prints
// them. An untraced run must have measured every end-to-end metric. A traced
// run reports every per-layer metric; a layer the workload never reaches
// reads 0. A value under a name BENCHMARK.json does not declare is an error.
func (r *report) result(sp benchSpec, traced bool) (result, error) {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
	}
	var extra []string
	for name := range r.values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, fmt.Errorf("metrics %v are not declared in BENCHMARK.json", extra)
	}
	if r.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok && !traced {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-28s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if !traced {
		fmt.Printf("metric %-28s %14.6g %s\n", "fail_frac", float64(r.failed)/float64(r.attempted), "ratio")
	}
	return res, nil
}
