// Command perfbench is the repository benchmark: one command that drives
// three workloads against the library and the twistd serving layer, checks
// every output, and prints the end-to-end metrics of an untraced run
// (-trace 0) or the per-layer ledger of a traced run (-trace 1).
//
//	engine-direct  the six suite instances through the library, no HTTP
//	serve-miss     a 3-node twistd fleet, every job unique (cache misses)
//	serve-hot      one twistd server, every job primed (cache hits)
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before it
// holds the run's metadata and the figures printed beside the metrics
// (sample counts, p99, error rate). See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// sizes sets how much work a run does. The full sizes are the benchmark's;
// the tiny ones let the package's own test run every workload in seconds.
type sizes struct {
	setups int // set-ups per untraced run; setup_s is their median

	engineScale int

	runScales   []int
	curveScale  int
	oracleScale int
	missCache   int // result-cache entries per serve-miss node
	verifyEvery int // serve-miss: one op in this many is recomputed directly

	hotRunScales    []int
	hotCurveScale   int
	hotOracleScales []int

	// Blocks per segment of each workload. An untraced run reports medians
	// over its segments; each pass of a traced run is one segment.
	engineSeg, missSeg, hotSeg int
}

func fullSizes() sizes {
	return sizes{
		setups:      5,
		engineScale: 4096,
		runScales:   []int{512, 1024}, curveScale: 1024, oracleScale: 256,
		missCache: 32, verifyEvery: 16,
		hotRunScales: []int{128, 256}, hotCurveScale: 256, hotOracleScales: []int{64, 128},
		engineSeg: 1, missSeg: 4, hotSeg: 100,
	}
}

func tinySizes() sizes {
	return sizes{
		setups:      1,
		engineScale: 128,
		runScales:   []int{32, 64}, curveScale: 64, oracleScale: 32,
		missCache: 8, verifyEvery: 4,
		hotRunScales: []int{32}, hotCurveScale: 32, hotOracleScales: []int{16},
		engineSeg: 1, missSeg: 1, hotSeg: 2,
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root (transform sources are read from it)
	out      string // directory for the span dump
	size     sizes
}

func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// outcome is a run's result before printing.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	info              map[string]any
}

func newOutcome(ps ...*pass) *outcome {
	out := &outcome{info: map[string]any{}}
	for _, p := range ps {
		out.attempted += p.attempted
		out.failed += p.failed
	}
	return out
}

// repeatSetup runs setup n times, tearing down all but the last, and returns
// each set-up's duration with the last environment. The previous environment
// is released and the heap collected before each timed set-up, so no set-up
// pays for the garbage of the one before it.
func repeatSetup[E any](n int, setup func() (E, error), teardown func(E)) ([]time.Duration, E, error) {
	var times []time.Duration
	var env E
	for k := 0; k < n; k++ {
		if k > 0 {
			if teardown != nil {
				teardown(env)
			}
			var zero E
			env = zero
		}
		runtime.GC()
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			var zero E
			return nil, zero, err
		}
		env = e
		times = append(times, time.Since(t0))
	}
	return times, env, nil
}

// workloadRuns maps each workload to its untraced and traced run.
var workloadRuns = map[string][2]func(options) (*outcome, error){
	"engine-direct": {engineDirect, engineLedger},
	"serve-miss":    {serveMiss, missLedger},
	"serve-hot":     {serveHot, hotLedger},
}

// run executes one benchmark run and returns its outcome.
func run(o options) (*outcome, error) {
	runs, ok := workloadRuns[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want engine-direct, serve-miss or serve-hot)", o.workload)
	}
	load := loadAvg1()
	f := runs[0]
	if o.trace {
		f = runs[1]
	}
	out, err := f(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	out.info["workload"] = o.workload
	out.info["seed"] = o.seed
	out.info["trace"] = o.trace
	out.info["num_cpu"] = runtime.NumCPU()
	out.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.info["go_version"] = runtime.Version()
	out.info["git_commit"] = os.Getenv("PERFBENCH_COMMIT")
	out.info["loadavg_1m_at_start"] = load
	return out, nil
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{size: fullSizes()}
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	flag.StringVar(&o.workload, "workload", "", "engine-direct, serve-miss or serve-hot")
	flag.Int64Var(&o.seed, "seed", 1, "seed every op list is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window of an untraced run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory the traced run's spans are written to")
	flag.Parse()
	o.trace = *trace == 1

	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out.info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed or were wrong\n", out.failed, out.attempted)
		os.Exit(1)
	}
}
