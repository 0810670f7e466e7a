// nestbench regenerates the tables and figures of the paper's evaluation
// (§6, §7.1). Each experiment prints the rows the paper plots; EXPERIMENTS.md
// records a reference run and names, for every table, the invocation that
// regenerates it.
//
// Usage:
//
//	nestbench -exp all                   # every experiment at default scales
//	nestbench -exp fig5 -n 1024          # reuse-distance CDF (Fig 5)
//	nestbench -exp fig7 -scale 16384     # speedups across the six benchmarks
//	nestbench -exp fig8a|fig8b           # instruction overhead / miss rates
//	nestbench -exp fig9                  # PC input-size sweep
//	nestbench -exp fig10                 # PC cutoff study
//	nestbench -exp iters                 # §4.2 iteration counts
//	nestbench -exp inventory             # benchmark inventory (§6.1)
//	nestbench -exp layout                # arena layout × schedule miss rates
//	nestbench -exp bench -schedule ...   # suite under one schedule
//	nestbench -exp bench -layout veb     # ... under a repacked arena layout
//	nestbench -oracle                    # semantic-equivalence smoke (§4.9)
//
// Observability (DESIGN.md §4.7):
//
//	nestbench -exp fig7 -json BENCH_fig7.json       # record a baseline
//	nestbench -exp fig7 -baseline BENCH_fig7.json   # regression-check a fresh
//	                                                # run against it (exit 1 on
//	                                                # deterministic mismatch)
//	nestbench -exp all -json out/                   # one BENCH_<exp>.json per
//	                                                # experiment into out/
//	nestbench -exp fig8b -telemetry events.jsonl    # stream counters/timers
//	nestbench -exp fig7 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Run nestbench -h for the per-experiment flag matrix: each experiment
// honors only the flags listed for it and silently leaves the rest to their
// defaults.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"text/tabwriter"
	"time"

	"twist/internal/experiments"
	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/oracle"
	"twist/internal/transform/algebra"
	"twist/internal/workloads"
)

// opts carries every flag value an experiment might honor.
type opts struct {
	scale      int
	scaleSet   bool // -scale given explicitly (oracle shrinks its default)
	n          int
	pcN        int
	radius     float64
	seed       int64
	repeats    int
	workers    int
	simWorkers int
	variant    nest.Variant // -schedule, lowered onto the engine
	layout     layout.Kind
}

// experiment is one registered harness. run prints the human-readable table
// and returns the machine-checkable report (nil when the experiment has no
// meaningful report, like inventory). flags lists exactly the flags the
// harness honors — the matrix printed by -h and mirrored in README.md.
type experiment struct {
	name  string
	title string
	flags string
	inAll bool
	run   func(o opts) (*obs.Report, error)
}

var registry = []experiment{
	{"inventory", "inventory (§6.1 benchmarks)", "-scale -seed", true, inventory},
	{"fig5", "fig5: reuse-distance CDF, tree join", "-n -seed", true, fig5},
	{"fig7", "fig7: speedup of recursion twisting", "-scale -seed -repeats -workers -simworkers -geometry", true, fig7},
	{"fig8a", "fig8a: instruction overhead (op model)", "-scale -seed", true, fig8a},
	{"fig8b", "fig8b: simulated L2/L3 miss rates", "-scale -seed -workers -simworkers -geometry", true, fig8b},
	{"fig9", "fig9: PC across input sizes", "-radius -seed -repeats -workers -simworkers -geometry", true, fig9},
	{"fig10", "fig10: PC cutoff study (§7.1)", "-pcn -radius -seed -repeats -workers", true, fig10},
	{"ablation", "ablation: flag modes / subtree truncation / node stride (DESIGN.md §4.5)", "-pcn -radius -seed -repeats -geometry", true, ablation},
	{"kary", "kary: octree (8-ary) point correlation extension (§2.1 generality)", "-pcn -seed -geometry", true, kary},
	{"layout", "layout: arena layout × schedule miss rates (DESIGN.md §4.12)", "-scale -seed -simworkers -geometry", true, layoutExp},
	{"iters", "iters: §4.2 iteration counts, PC", "-pcn -radius -seed", true, iters},
	{"bench", "bench: suite under one schedule", "-scale -seed -repeats -workers -schedule -layout", false, bench},
	{"oracle", "oracle: semantic-equivalence smoke (DESIGN.md §4.9)", "-scale -seed -workers", false, oracleSmoke},
	{"schedules", "schedules: algebra enumeration, legality × oracle", "-scale -seed", false, schedulesExp},
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "Usage: nestbench [flags]\n\nFlags:\n")
	fs.PrintDefaults()
	fmt.Fprintf(w, "\nExperiments and the flags each honors (all others are ignored):\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  experiment\thonored flags\tnotes")
	for _, ex := range registry {
		note := ""
		switch ex.name {
		case "fig8b", "fig9":
			note = "-workers > 1 = merge-mode simulation (nondeterministic; report rates become noisy)"
		case "fig7":
			note = "-workers >= 1 adds the §7.3 parallel columns; -simworkers >= 1 adds the sim-engine columns"
		case "fig10":
			note = "-workers >= 1 times all schedules under the work-stealing executor"
		case "layout":
			note = "the \"wins\" row is the CI-gated acceptance signal (DESIGN.md §4.12)"
		case "bench":
			note = "not part of -exp all"
		case "oracle":
			note = "not part of -exp all; -scale defaults to 512 here (golden traces are materialized)"
		case "schedules":
			note = "not part of -exp all; -scale defaults to 512 here (golden traces are materialized)"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\n", ex.name, ex.flags, note)
	}
	tw.Flush()
	fmt.Fprintf(w, "\nBaselines: -json writes BENCH_<exp>.json (a directory when several experiments\nrun); -baseline re-checks a single experiment against a committed baseline and\nexits 1 on a deterministic mismatch (wall-clock drift warns unless -strict-wall).\n")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind main, parameterized for tests. Exit-code
// vocabulary: 0 success, 1 runtime failure (an experiment, baseline check,
// or output file failed), 2 usage error (bad flags, unknown experiment,
// invalid flag combinations — always accompanied by the usage text on
// stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nestbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment: fig5, fig7, fig8a, fig8b, fig9, fig10, iters, ablation, kary, layout, inventory, bench, all")
		scale      = fs.Int("scale", 16384, "suite scale for fig7/fig8a/fig8b/bench (points per dual-tree benchmark)")
		n          = fs.Int("n", 1024, "tree size for fig5")
		pcN        = fs.Int("pcn", 8192, "PC input size for fig10/ablation/kary/iters")
		radius     = fs.Float64("radius", 0.4, "PC correlation radius")
		seed       = fs.Int64("seed", 42, "workload seed")
		repeats    = fs.Int("repeats", 3, "wall-clock repetitions (best is kept)")
		workers    = fs.Int("workers", 0, "parallel dimension (see -h flag matrix): 0 = off")
		simWorkers = fs.Int("simworkers", 1, "cache-simulation shard workers: <= 1 sequential, > 1 set-partitioned parallel engine (stats bit-identical either way)")
		geometry   = fs.String("geometry", "", "simulated cache hierarchy, e.g. \"32K/64:8,256K/64:8,20M/64:20\" (empty = scaled default)")
		schedule   = fs.String("schedule", "twisted", "schedule for -exp bench as an algebra expression, e.g. \"twisted-cutoff:64\" or \"stripmine(64)\u2218twist(flagged)\"")
		layoutF    = fs.String("layout", "", "arena layout for -exp bench: buildorder, hotcold, preorder, schedule, veb (empty = legacy build-order)")
		oracleRun  = fs.Bool("oracle", false, "shorthand for -exp oracle: semantic-equivalence smoke over the suite")
		jsonOut    = fs.String("json", "", "write BENCH_<exp>.json report(s): a file path for one experiment, a directory when several run")
		baseline   = fs.String("baseline", "", "compare a single experiment's fresh run against this committed BENCH_<exp>.json")
		wallTol    = fs.Float64("wall-tol", 4, "noisy-signal tolerance band for -baseline (fresh within baseline/tol..baseline*tol)")
		wallFloor  = fs.Float64("wall-floor", 0.05, "ignore noisy drift below this absolute difference (seconds for wall clocks)")
		strictWall = fs.Bool("strict-wall", false, "treat wall-clock-only drift as a failure (exit 1), not a warning")
		telemetry  = fs.String("telemetry", "", "stream telemetry events as JSON lines to this file (\"-\" = stderr)")
		cpuProf    = fs.String("cpuprofile", "", "capture a pprof CPU profile of the whole run to this file")
		memProf    = fs.String("memprofile", "", "capture a pprof heap profile after the run to this file")
	)
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		// The flag package already printed the error and called fs.Usage.
		return 2
	}
	if *oracleRun {
		*exp = "oracle"
	}
	scaleSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "scale" {
			scaleSet = true
		}
	})

	// usageFail is for errors the usage text explains (unknown experiment,
	// invalid flag values or combinations): message + usage, exit 2.
	usageFail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "nestbench: "+format+"\n\n", args...)
		usage(fs, stderr)
		return 2
	}
	// fail is for runtime errors (filesystem, profiles, telemetry): the
	// flags were fine, the run failed — exit 1, no usage wall.
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "nestbench: "+format+"\n", args...)
		return 1
	}

	sched, err := algebra.ParseSchedule(*schedule)
	if err != nil {
		return usageFail("%v", err)
	}
	if sched.InlineDepth() > 0 {
		return usageFail("inline(K) is a code-generation transformation; the engine cannot execute %q (use cmd/twist -schedules)", *schedule)
	}
	v := sched.Variant()
	lk, err := layout.ParseKind(*layoutF)
	if err != nil {
		return usageFail("%v", err)
	}
	if *geometry != "" {
		levels, err := memsim.ParseGeometry(*geometry)
		if err != nil {
			return usageFail("%v", err)
		}
		experiments.SetGeometry(levels)
	}
	o := opts{
		scale: *scale, scaleSet: scaleSet, n: *n, pcN: *pcN, radius: *radius,
		seed: *seed, repeats: *repeats, workers: *workers, simWorkers: *simWorkers,
		variant: v, layout: lk,
	}

	var selected []experiment
	for _, ex := range registry {
		if *exp == ex.name || (*exp == "all" && ex.inAll) {
			selected = append(selected, ex)
		}
	}
	if len(selected) == 0 {
		return usageFail("unknown experiment %q", *exp)
	}
	if *baseline != "" && len(selected) != 1 {
		return usageFail("-baseline needs a single experiment (-exp %s selects %d)", *exp, len(selected))
	}

	// Telemetry sinks: every experiment aggregates into a fresh Memory
	// recorder (snapshotted into its report); -telemetry additionally
	// streams every event as JSON lines.
	var jsonl *obs.JSONLines
	if *telemetry != "" {
		var w io.Writer = stderr
		if *telemetry != "-" {
			f, err := os.Create(*telemetry)
			if err != nil {
				return fail("%v", err)
			}
			defer f.Close()
			w = f
		}
		jsonl = obs.NewJSONLines(w)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "nestbench: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "nestbench: %v\n", err)
			}
		}()
	}

	exit := 0
	for _, ex := range selected {
		mem := obs.NewMemory()
		if jsonl != nil {
			experiments.SetRecorder(obs.Tee(mem, jsonl))
		} else {
			experiments.SetRecorder(mem)
		}
		fmt.Fprintf(stdout, "== %s ==\n", ex.title)
		rep, err := ex.run(o)
		experiments.SetRecorder(nil)
		if err != nil {
			fmt.Fprintf(stderr, "nestbench: %s: %v\n", ex.name, err)
			return 1
		}
		fmt.Fprintln(stdout)
		if rep == nil {
			continue
		}
		rep.Telemetry = mem.Counters()

		if *jsonOut != "" {
			path := *jsonOut
			if len(selected) > 1 {
				if err := os.MkdirAll(path, 0o755); err != nil {
					return fail("%v", err)
				}
				path = filepath.Join(path, "BENCH_"+ex.name+".json")
			}
			if err := rep.WriteFile(path); err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}

		if *baseline != "" {
			base, err := obs.ReadReport(*baseline)
			if err != nil {
				return fail("%v", err)
			}
			verdict, diffs := obs.Compare(base, rep, obs.CompareOptions{Tolerance: *wallTol, Floor: *wallFloor})
			fmt.Fprintf(stdout, "baseline check (%s): %v\n", *baseline, verdict)
			for _, d := range diffs {
				fmt.Fprintf(stdout, "  %s\n", d)
			}
			switch verdict {
			case obs.DetMismatch:
				exit = 1
			case obs.WallDrift:
				if *strictWall {
					exit = 1
				} else {
					fmt.Fprintln(stdout, "  (wall-clock drift only; pass -strict-wall to fail on this)")
				}
			}
		}
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			return fail("telemetry: %v", err)
		}
	}
	return exit
}

func table() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// params assembles a report's Params map from the honored flag set.
func params(o opts, keys ...string) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		switch k {
		case "scale":
			out[k] = strconv.Itoa(o.scale)
		case "n":
			out[k] = strconv.Itoa(o.n)
		case "pcn":
			out[k] = strconv.Itoa(o.pcN)
		case "radius":
			out[k] = obs.FormatFloat(o.radius)
		case "seed":
			out[k] = strconv.FormatInt(o.seed, 10)
		case "repeats":
			out[k] = strconv.Itoa(o.repeats)
		case "workers":
			out[k] = strconv.Itoa(o.workers)
		case "simworkers":
			out[k] = strconv.Itoa(o.simWorkers)
		case "geometry":
			// The resolved geometry, not the raw flag: a baseline pins the
			// hierarchy it was measured on even when the flag was defaulted.
			out[k] = experiments.GeometryString()
		case "schedule":
			out[k] = o.variant.String()
		case "layout":
			out[k] = o.layout.String()
		default:
			panic("nestbench: unknown param " + k)
		}
	}
	return out
}

func inventory(o opts) (*obs.Report, error) {
	w := table()
	fmt.Fprintln(w, "bench\tdescription")
	for _, in := range workloads.Suite(o.scale, o.seed) {
		fmt.Fprintf(w, "%s\t%s\n", in.Name, in.Description)
	}
	return nil, w.Flush()
}

func fig5(o opts) (*obs.Report, error) {
	rows := experiments.Fig5(o.n, o.seed)
	rep := obs.NewReport("fig5", params(o, "n", "seed"))
	w := table()
	fmt.Fprintln(w, "r\toriginal CDF\ttwisted CDF")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\n", r.R, r.Original, r.Twisted)
		rep.AddRow(fmt.Sprintf("r=%d", r.R)).
			DetFloat("original_cdf", r.Original).
			DetFloat("twisted_cdf", r.Twisted)
	}
	return rep, w.Flush()
}

func fig7(o opts) (*obs.Report, error) {
	rows, err := experiments.Fig7(o.scale, o.seed, o.repeats, o.workers, o.simWorkers)
	if err != nil {
		return nil, err
	}
	rep := obs.NewReport("fig7", params(o, "scale", "seed", "repeats", "workers", "simworkers", "geometry"))
	w := table()
	hdr := "bench\tbaseline\ttwisted\tspeedup"
	if o.workers >= 1 {
		hdr += fmt.Sprintf("\tpar w=1\tpar w=%d\tpar speedup", o.workers)
	}
	if o.simWorkers >= 1 {
		hdr += fmt.Sprintf("\tsim seq\tsim w=%d\tsim speedup\tsim L2\tsim L3", o.simWorkers)
	}
	fmt.Fprintln(w, hdr)
	for _, r := range rows {
		row := rep.AddRow(r.Bench).
			DetUint("checksum", r.Checksum).
			NoisySeconds("baseline", r.Baseline).
			NoisySeconds("twisted", r.Twisted).
			NoisyVal("speedup", r.Speedup)
		line := fmt.Sprintf("%s\t%v\t%v\t%.2fx", r.Bench, r.Baseline, r.Twisted, r.Speedup)
		if o.workers >= 1 {
			line += fmt.Sprintf("\t%v\t%v\t%.2fx", r.Par1, r.ParN, r.ParSpeedup)
			row.NoisySeconds("par1", r.Par1).
				NoisySeconds("parN", r.ParN).
				NoisyVal("par_speedup", r.ParSpeedup)
		}
		if o.simWorkers >= 1 {
			line += fmt.Sprintf("\t%v\t%v\t%.2fx\t%.1f%%\t%.1f%%",
				r.SimSeq, r.SimPar, r.SimSpeedup, 100*r.SimL2, 100*r.SimL3)
			// The sim miss rates are deterministic — both engines produced
			// them bit-identically or Fig7 would have errored, which is the
			// parallel-vs-sequential gate the CI baseline check leans on.
			row.NoisySeconds("sim_seq", r.SimSeq).
				NoisySeconds("sim_par", r.SimPar).
				NoisyVal("sim_speedup", r.SimSpeedup).
				DetFloat("sim_l2", r.SimL2).
				DetFloat("sim_l3", r.SimL3)
		}
		fmt.Fprintln(w, line)
	}
	geo := experiments.GeoMean(rows)
	fmt.Fprintf(w, "geomean\t\t\t%.2fx\n", geo)
	rep.AddRow("geomean").NoisyVal("speedup", geo)
	return rep, w.Flush()
}

func bench(o opts) (*obs.Report, error) {
	repeats := o.repeats
	if repeats < 1 {
		repeats = 1
	}
	rep := obs.NewReport("bench", params(o, "scale", "seed", "repeats", "workers", "schedule", "layout"))
	w := table()
	fmt.Fprintln(w, "bench\tschedule\twall\titerations\twork\tchecksum")
	for _, in := range workloads.Suite(o.scale, o.seed) {
		// -layout repacks the arena the run's traced addresses would be
		// generated under and carries the dimension with the run
		// (RunConfig.Layout). The semantic columns — iterations, work,
		// checksum — must come out identical to the legacy arena: a layout
		// renames storage slots and nothing else (DESIGN.md §4.12).
		run := in
		var cfgLayout string
		if o.layout != layout.BuildOrder {
			lin, err := in.UnderLayout(o.layout, o.variant)
			if err != nil {
				return nil, err
			}
			run = lin
			cfgLayout = o.layout.String()
		}
		var st nest.Stats
		var best time.Duration
		mode := "seq"
		for k := 0; k < repeats; k++ {
			start := time.Now()
			if o.workers >= 1 {
				res, err := run.RunWith(nest.RunConfig{Variant: o.variant, Workers: o.workers, Layout: cfgLayout})
				if err != nil {
					return nil, err
				}
				if k > 0 && res.Stats != st {
					return nil, fmt.Errorf("bench: %s merged stats not deterministic across runs", in.Name)
				}
				st = res.Stats
				mode = fmt.Sprintf("w=%d", o.workers)
			} else {
				var err error
				if st, _, err = run.RunSeq(nil, o.variant, nil); err != nil {
					return nil, err
				}
			}
			if wall := time.Since(start); k == 0 || wall < best {
				best = wall
			}
		}
		fmt.Fprintf(w, "%s\t%v (%s)\t%v\t%d\t%d\t%#x\n",
			in.Name, o.variant, mode, best, st.Iterations, st.Work, in.Checksum())
		rep.AddRow(in.Name).
			DetInt("iterations", st.Iterations).
			DetInt("work", st.Work).
			DetUint("checksum", in.Checksum()).
			NoisySeconds("wall", best)
	}
	return rep, w.Flush()
}

func fig8a(o opts) (*obs.Report, error) {
	rows := experiments.Fig8a(o.scale, o.seed)
	rep := obs.NewReport("fig8a", params(o, "scale", "seed"))
	w := table()
	fmt.Fprintln(w, "bench\tbaseline ops\ttwisted ops\toverhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%+.1f%%\n", r.Bench, r.BaselineOps, r.TwistedOps, 100*r.Overhead)
		rep.AddRow(r.Bench).
			DetInt("baseline_ops", r.BaselineOps).
			DetInt("twisted_ops", r.TwistedOps).
			DetFloat("overhead", r.Overhead)
	}
	return rep, w.Flush()
}

func fig8b(o opts) (*obs.Report, error) {
	rows, err := experiments.Fig8b(o.scale, o.seed, o.workers, o.simWorkers)
	if err != nil {
		return nil, err
	}
	rep := obs.NewReport("fig8b", params(o, "scale", "seed", "workers", "simworkers", "geometry"))
	det := o.workers <= 1 // merge-mode interleaving is nondeterministic
	w := table()
	fmt.Fprintln(w, "bench\tL2 base\tL2 twisted\tL3 base\tL3 twisted")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Bench, 100*r.BaseL2, 100*r.TwistL2, 100*r.BaseL3, 100*r.TwistL3)
		row := rep.AddRow(r.Bench)
		rateSignal(row, det, "l2_base", r.BaseL2)
		rateSignal(row, det, "l2_twisted", r.TwistL2)
		rateSignal(row, det, "l3_base", r.BaseL3)
		rateSignal(row, det, "l3_twisted", r.TwistL3)
	}
	return rep, w.Flush()
}

func fig9(o opts) (*obs.Report, error) {
	sizes := []int{512, 1024, 2048, 4096, 8192, 16384, 32768}
	rows, err := experiments.Fig9(sizes, o.radius, o.seed, o.repeats, o.workers, o.simWorkers)
	if err != nil {
		return nil, err
	}
	rep := obs.NewReport("fig9", params(o, "radius", "seed", "repeats", "workers", "simworkers", "geometry"))
	det := o.workers <= 1
	w := table()
	fmt.Fprintln(w, "n\tspeedup\tL2 base\tL2 twisted\tL3 base\tL3 twisted")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2fx\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.N, r.Speedup, 100*r.BaseL2, 100*r.TwistL2, 100*r.BaseL3, 100*r.TwistL3)
		row := rep.AddRow(fmt.Sprintf("n=%d", r.N)).NoisyVal("speedup", r.Speedup)
		rateSignal(row, det, "l2_base", r.BaseL2)
		rateSignal(row, det, "l2_twisted", r.TwistL2)
		rateSignal(row, det, "l3_base", r.BaseL3)
		rateSignal(row, det, "l3_twisted", r.TwistL3)
	}
	return rep, w.Flush()
}

// rateSignal files a simulated miss rate as deterministic (single-sink
// streaming order) or noisy (merge mode, workers > 1).
func rateSignal(row *obs.Row, det bool, name string, v float64) {
	if det {
		row.DetFloat(name, v)
	} else {
		row.NoisyVal(name, v)
	}
}

func fig10(o opts) (*obs.Report, error) {
	cutoffs := []int{16, 64, 256, 1024, 4096}
	rows, err := experiments.Fig10(o.pcN, o.radius, cutoffs, o.seed, o.repeats, o.workers)
	if err != nil {
		return nil, err
	}
	rep := obs.NewReport("fig10", params(o, "pcn", "radius", "seed", "repeats", "workers"))
	w := table()
	fmt.Fprintln(w, "cutoff\tinstr overhead\tspeedup")
	for _, r := range rows {
		name := fmt.Sprint(r.Cutoff)
		if r.Cutoff < 0 {
			name = "parameterless"
		}
		fmt.Fprintf(w, "%s\t%+.1f%%\t%.2fx\n", name, 100*r.Overhead, r.Speedup)
		rep.AddRow("cutoff="+name).
			DetFloat("overhead", r.Overhead).
			NoisyVal("speedup", r.Speedup)
	}
	return rep, w.Flush()
}

func iters(o opts) (*obs.Report, error) {
	rows := experiments.TblIters(o.pcN, o.radius, o.seed)
	rep := obs.NewReport("iters", params(o, "pcn", "radius", "seed"))
	w := table()
	fmt.Fprintln(w, "schedule\titerations\twork\toverhead vs original")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%+.1f%%\n", r.Schedule, r.Iterations, r.Work, 100*r.Overhead)
		rep.AddRow(r.Schedule).
			DetInt("iterations", r.Iterations).
			DetInt("work", r.Work).
			DetFloat("overhead", r.Overhead)
	}
	return rep, w.Flush()
}

func ablation(o opts) (*obs.Report, error) {
	rep := obs.NewReport("ablation", params(o, "pcn", "radius", "seed", "repeats", "geometry"))
	w := table()
	fmt.Fprintln(w, "flag mode\tflag sets\tflag clears\tmodel ops\twall")
	for _, r := range experiments.AblationFlags(o.pcN, o.radius, o.seed, o.repeats) {
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%v\n", r.Mode, r.FlagSets, r.FlagClears, r.Ops, r.Wall)
		rep.AddRow(fmt.Sprintf("flags/%v", r.Mode)).
			DetInt("flag_sets", r.FlagSets).
			DetInt("flag_clears", r.FlagClears).
			DetInt("ops", r.Ops).
			NoisySeconds("wall", r.Wall)
	}
	fmt.Fprintln(w, "\nsubtree truncation\titerations\tcuts\twall")
	for _, r := range experiments.AblationSubtree(o.pcN, o.radius, o.seed, o.repeats) {
		fmt.Fprintf(w, "%v\t%d\t%d\t%v\n", r.Enabled, r.Iterations, r.SubtreeCuts, r.Wall)
		rep.AddRow(fmt.Sprintf("subtree/%v", r.Enabled)).
			DetInt("iterations", r.Iterations).
			DetInt("subtree_cuts", r.SubtreeCuts).
			NoisySeconds("wall", r.Wall)
	}
	fmt.Fprintln(w, "\nnode stride\tL3 base\tL3 twisted\tL3 base misses\tL3 twisted misses")
	for _, r := range experiments.AblationStride(o.pcN, []int{64, 32, 16}, o.seed) {
		fmt.Fprintf(w, "%dB\t%.1f%%\t%.1f%%\t%d\t%d\n",
			r.Stride, 100*r.BaseL3, 100*r.TwistL3, r.BaseL3Misses, r.TwistL3Misses)
		rep.AddRow(fmt.Sprintf("stride/%dB", r.Stride)).
			DetFloat("l3_base", r.BaseL3).
			DetFloat("l3_twisted", r.TwistL3).
			DetInt("l3_base_misses", r.BaseL3Misses).
			DetInt("l3_twisted_misses", r.TwistL3Misses)
	}
	return rep, w.Flush()
}

// oracleSmoke runs the internal/oracle differential suite over the six
// workloads: every engine variant (both flag modes) and the parallel
// executor at a grid of worker counts must be permutation-equivalent to the
// captured golden trace (DESIGN.md §4.9). The first failing verdict aborts
// the run with its minimized counterexample (exit 1) — the CI-facing smoke
// complement to the exhaustive go test suite.
func oracleSmoke(o opts) (*obs.Report, error) {
	if !o.scaleSet {
		o.scale = 512 // golden traces are materialized; the timing default is too big
	}
	workerGrid := []int{1, 4, 8}
	if o.workers >= 1 {
		workerGrid = []int{1}
		if o.workers > 1 {
			workerGrid = append(workerGrid, o.workers)
		}
	}
	variants := []nest.Variant{nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(64)}

	rep := obs.NewReport("oracle", params(o, "scale", "seed", "workers"))
	w := table()
	fmt.Fprintln(w, "bench\tvisits\ttruncs\tcolumns\tdigest\tchecks")
	for _, in := range workloads.Suite(o.scale, o.seed) {
		spec := in.OracleSpec()
		g, err := oracle.Capture(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", in.Name, err)
		}
		checks := 0
		for _, v := range variants {
			for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
				if verdict := g.CheckVariant(spec, v, fm, true); !verdict.OK {
					return nil, fmt.Errorf("%s: %v", in.Name, verdict.Err())
				}
				checks++
			}
		}
		for _, workers := range workerGrid {
			verdict, err := g.CheckParallel(spec, nest.RunConfig{Variant: nest.Twisted(), Workers: workers})
			if err != nil {
				return nil, fmt.Errorf("%s: %v", in.Name, err)
			}
			if !verdict.OK {
				return nil, fmt.Errorf("%s: %v", in.Name, verdict.Err())
			}
			checks++
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%#016x\t%d ok\n",
			in.Name, g.Visits(), len(g.Truncs), g.Columns(), g.Digest(), checks)
		rep.AddRow(in.Name).
			DetInt("visits", int64(g.Visits())).
			DetInt("truncs", int64(len(g.Truncs))).
			DetInt("columns", int64(g.Columns())).
			DetUint("digest", g.Digest()).
			DetUint("column_digest", g.ColumnDigest()).
			DetInt("checks", int64(checks))
	}
	return rep, w.Flush()
}

// schedulesExp enumerates the schedule algebra over the suite
// (experiments.Schedules): legality verdicts with the violated dependence
// witnesses, and an oracle differential over every legal lowering.
func schedulesExp(o opts) (*obs.Report, error) {
	if !o.scaleSet {
		o.scale = 512 // golden traces are materialized; the timing default is too big
	}
	rows, err := experiments.Schedules(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	rep := obs.NewReport("schedules", params(o, "scale", "seed"))
	w := table()
	fmt.Fprintln(w, "bench\tschedule\tvariant\tlegal\toracle\twitness")
	for _, r := range rows {
		legal, check := "yes", "ok"
		if !r.Legal {
			legal, check = "no", "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", r.Workload, r.Schedule, r.Variant, legal, check, r.Witness)
		rep.AddRow(r.Workload+" "+r.Schedule).
			DetString("variant", r.Variant).
			DetInt("legal", boolInt(r.Legal)).
			DetInt("oracle_ok", boolInt(r.OracleOK))
	}
	return rep, w.Flush()
}

// boolInt renders a verdict as a deterministic report integer.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// layoutExp sweeps the layout × schedule product (DESIGN.md §4.12): every
// arena layout under the original and twisted schedules, six benchmarks,
// deterministic simulated L2/L3 signals. The closing "wins" row counts the
// benchmarks where a reordering layout (schedule-order or vEB) strictly
// beats build-order on miss counts — the committed BENCH_layout.json pins
// it and CI asserts it stays >= 2.
func layoutExp(o opts) (*obs.Report, error) {
	rows, err := experiments.LayoutSweep(o.scale, o.seed, o.simWorkers)
	if err != nil {
		return nil, err
	}
	rep := obs.NewReport("layout", params(o, "scale", "seed", "simworkers", "geometry"))
	w := table()
	fmt.Fprintln(w, "bench\tschedule\tlayout\tL2\tL3\tL2 misses\tL3 misses")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f%%\t%.1f%%\t%d\t%d\n",
			r.Bench, r.Schedule, r.Layout, 100*r.L2, 100*r.L3, r.L2Misses, r.L3Misses)
		rep.AddRow(fmt.Sprintf("%s/%s/%s", r.Bench, r.Schedule, r.Layout)).
			DetFloat("l2", r.L2).
			DetFloat("l3", r.L3).
			DetInt("l2_misses", r.L2Misses).
			DetInt("l3_misses", r.L3Misses).
			DetInt("accesses", r.Accesses)
	}
	wins := experiments.LayoutWins(rows)
	fmt.Fprintf(w, "\nreordering wins\t%d benchmarks beat buildorder\n", wins)
	rep.AddRow("wins").DetInt("benchmarks", int64(wins))
	return rep, w.Flush()
}

func kary(o opts) (*obs.Report, error) {
	rep := obs.NewReport("kary", params(o, "pcn", "seed", "geometry"))
	w := table()
	fmt.Fprintln(w, "schedule\tpairs<=r\titerations\ttwists\tL2\tL3")
	for _, r := range experiments.KAryOctree(o.pcN, 0.3, o.seed) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f%%\t%.1f%%\n",
			r.Schedule, r.Count, r.Iterations, r.Twists, 100*r.L2, 100*r.L3)
		rep.AddRow(r.Schedule).
			DetInt("pairs", r.Count).
			DetInt("iterations", r.Iterations).
			DetInt("twists", r.Twists).
			DetFloat("l2", r.L2).
			DetFloat("l3", r.L3)
	}
	return rep, w.Flush()
}
