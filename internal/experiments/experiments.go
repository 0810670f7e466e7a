// Package experiments regenerates every table and figure of the paper's
// evaluation (§6, §7.1). Each Fig*/Tbl* function runs the corresponding
// workloads under the relevant schedules and returns the rows the paper
// plots; cmd/nestbench renders them as text tables, and EXPERIMENTS.md
// records paper-vs-measured values.
//
// Deterministic signals (reuse-distance CDFs, simulated miss rates,
// operation counts, iteration counts) are the primary reproduction; wall
// clock is also measured for the speedup figures but is subject to host and
// Go-runtime noise (DESIGN.md §1).
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/tree"
	"twist/internal/workloads"
)

// rec receives all experiment telemetry; it is never nil.
var rec obs.Recorder = obs.Nop()

// SetRecorder routes experiment telemetry — per-figure phase wall clocks,
// executor counters from parallel runs, and per-level simulated-cache
// hit/miss/eviction counts — into r (nil restores the discarding default).
// Call it before running experiments; it must not be called concurrently
// with one.
func SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop()
	}
	rec = r
}

// scaledLevels is the default simulated geometry: 2K/8-way L1, 16K/8-way
// L2, 128K/16-way L3. The paper's machine had 32K/256K/20M (ratios 1:8:640);
// the scaled-down geometry (1:8:64) reaches the paper's "working set exceeds
// the LLC" regime at laptop-scale inputs while keeping trace lengths
// tractable.
func scaledLevels() []memsim.CacheConfig {
	return []memsim.CacheConfig{
		{Name: "L1", SizeBytes: 2 << 10, LineBytes: 64, Ways: 8},
		{Name: "L2", SizeBytes: 16 << 10, LineBytes: 64, Ways: 8},
		{Name: "L3", SizeBytes: 128 << 10, LineBytes: 64, Ways: 16},
	}
}

// simLevels is the geometry every simulated miss-rate experiment uses.
var simLevels = scaledLevels()

// SetGeometry replaces the simulated cache geometry for subsequent
// experiments (nil restores the scaled default). cmd/nestbench wires its
// -geometry flag here; like SetRecorder, it must not be called concurrently
// with a running experiment.
func SetGeometry(levels []memsim.CacheConfig) {
	if levels == nil {
		levels = scaledLevels()
	}
	simLevels = levels
}

// Geometry returns a copy of the cache levels the simulated experiments
// currently run against.
func Geometry() []memsim.CacheConfig {
	return append([]memsim.CacheConfig(nil), simLevels...)
}

// GeometryString renders the current geometry in memsim.ParseGeometry form —
// the value nestbench records in BENCH report params so a committed baseline
// pins the simulated hierarchy it was measured on.
func GeometryString() string { return memsim.FormatGeometry(simLevels) }

// SimHierarchy returns a fresh sequential simulator over the current
// geometry (see SetGeometry). Harness code that wants the parallel engine
// goes through memsim.New with Config.SimWorkers instead, as newSim does.
func SimHierarchy() memsim.Simulator {
	return newSim(1)
}

// newSim builds a simulator over the current geometry: sequential for
// simWorkers <= 1, set-partitioned parallel otherwise (bit-identical stats
// either way; DESIGN.md §4.8). Callers own the Close.
func newSim(simWorkers int) memsim.Simulator {
	return memsim.MustNew(memsim.Config{Levels: simLevels, SimWorkers: simWorkers})
}

// levelRate returns the miss rate of level li, or 0 when the configured
// geometry has fewer levels (a custom -geometry may be shallower than the
// default three).
func levelRate(st []memsim.LevelStats, li int) float64 {
	if li >= len(st) {
		return 0
	}
	return st[li].MissRate()
}

// time runs f repeats times with the GC quiesced and returns the best
// wall-clock duration.
func timeBest(repeats int, f func()) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	best := time.Duration(1<<63 - 1)
	for k := 0; k < repeats; k++ {
		runtime.GC()
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// runWall times variant v of instance in and returns (duration, checksum).
func runWall(in *workloads.Instance, v nest.Variant, repeats int) (time.Duration, uint64) {
	var sum uint64
	d := timeBest(repeats, func() {
		if _, _, err := in.RunSeq(nil, v, nil); err != nil {
			panic(err) // unreachable: a nil ctx never cancels
		}
		sum = in.Checksum()
	})
	return d, sum
}

// missRates runs a traced execution of variant v through a fresh simulated
// hierarchy and returns the per-level stats. The trace is replayed once as a
// warmup before measuring, so compulsory cold misses do not distort the
// steady-state rates — matching the regime the paper's hardware counters
// observe on multi-hour runs (note Fig 9's remark that compulsory misses are
// only noticeable at the very smallest inputs).
func missRates(in *workloads.Instance, v nest.Variant) []memsim.LevelStats {
	st, err := missRatesWith(in, v, 1, 1)
	if err != nil {
		panic(err) // unreachable: the sequential path cannot fail
	}
	return st
}

// missRatesWith is missRates with two worker dimensions, built on the memsim
// streaming pipeline — the simulation holds O(cache geometry + workers·batch)
// memory regardless of trace length, instead of materializing the trace.
//
// workers drives the traced execution: with workers <= 1 a single Sink
// preserves the exact sequential access order, so the stats are bit-identical
// to the eager flow. With more workers, each executor worker emits into its
// own Sink and the Stream interleaves full batches in completion order: the
// merge mode, modeling the workers sharing one cache hierarchy (the
// interleaving — like real shared-cache timing — is not deterministic, but
// every access is simulated exactly once).
//
// simWorkers drives the simulator consuming the trace: <= 1 sequential,
// > 1 the set-partitioned parallel engine — stats are bit-identical either
// way for the same delivered trace (DESIGN.md §4.8), so the dimension buys
// simulation throughput without perturbing any deterministic signal.
//
// With workers <= 1 the warm-up/measure protocol is workloads'
// Instance.RunSteady, the one serve's run jobs use: its measured pass
// replays the warm-up pass. The merge mode runs the parallel traced
// execution twice, each time into a fresh Stream (a Stream is single-shot:
// Close flushes and seals it) over the one persistent simulator, with
// ResetStats between the two runs.
func missRatesWith(in *workloads.Instance, v nest.Variant, workers, simWorkers int) ([]memsim.LevelStats, error) {
	sim := newSim(simWorkers)
	defer sim.Close()
	var last *memsim.Stream
	run := func() error { // one merge-mode pass
		st := memsim.NewStream(sim, 0)
		last = st
		in.Reset()
		sinks := make([]*memsim.Sink, workers)
		for w := range sinks {
			sinks[w] = st.Sink()
		}
		trace := in.Trace
		e := nest.MustNew(in.Spec)
		_, err := e.RunWith(nest.RunConfig{
			Variant:    v,
			Workers:    workers,
			SimWorkers: simWorkers,
			Recorder:   rec,
			ForTask:    in.ForTask,
			WrapWork: func(w int, work func(o, i tree.NodeID)) func(o, i tree.NodeID) {
				sk := sinks[w]
				var buf []memsim.Addr // this task's own: Trace is shared by every worker
				return func(o, i tree.NodeID) {
					buf = trace(o, i, buf[:0])
					sk.EmitBatch(buf)
					work(o, i)
				}
			},
		})
		if err != nil {
			return err
		}
		st.Close()
		return nil
	}
	var err error
	if workers <= 1 {
		_, _, last, err = in.RunSteady(nil, v, sim, nil)
	} else if err = run(); err == nil { // warmup
		sim.ResetStats()
		err = run()
	}
	if err != nil {
		return nil, err
	}
	sim.Publish(rec, fmt.Sprintf("memsim.%s.%v", in.Name, v))
	last.Publish(rec, fmt.Sprintf("memsim.%s.%v.stream", in.Name, v))
	return sim.Stats(), nil
}

// --- Fig 5: reuse-distance CDF --------------------------------------------

// Fig5Row is one x-position of the Fig 5 CDF: the fraction of accesses with
// reuse distance < R under each schedule.
type Fig5Row struct {
	R                 int
	Original, Twisted float64
}

// Fig5 runs the reuse-distance simulation of Fig 5: the tree join of
// Fig 1(a) on two n-node trees (the paper uses n=1024), measuring the stack
// distance of every node access under the original and twisted schedules.
func Fig5(n int, seed int64) []Fig5Row {
	defer obs.Span(rec, "experiments.fig5")()
	collect := func(v nest.Variant) *memsim.Histogram {
		in := workloads.TreeJoin(n, seed)
		ra := memsim.NewReuseAnalyzer()
		hist := memsim.NewHistogram()
		if _, _, err := in.RunEmit(nil, v, func(a memsim.Addr) { hist.Add(ra.Access(a)) }, nil); err != nil {
			panic(err) // unreachable: a nil ctx never cancels
		}
		return hist
	}
	orig := collect(nest.Original())
	tw := collect(nest.Twisted())
	var rows []Fig5Row
	for r := 1; r <= 4*n; r *= 2 {
		rows = append(rows, Fig5Row{R: r, Original: orig.CDF(r), Twisted: tw.CDF(r)})
	}
	return rows
}

// --- Fig 7: speedup across the six benchmarks ------------------------------

// Fig7Row is one bar of Fig 7, optionally extended with the §7.3 parallel
// dimension: Par1/ParN time the work-stealing executor running the twisted
// schedule with one worker and with the requested worker count (zero when
// the dimension is off), and ParSpeedup is Par1/ParN — scaling of the
// identical task decomposition, the comparison the paper's §7.3 makes.
type Fig7Row struct {
	Bench      string
	Baseline   time.Duration
	Twisted    time.Duration
	Speedup    float64
	Par1       time.Duration
	ParN       time.Duration
	ParSpeedup float64

	// SimSeq/SimPar time the trace-driven cache simulation of the twisted
	// schedule on the sequential engine and on the set-partitioned parallel
	// engine with the requested shard-worker count (zero when the sim phase
	// is off); SimSpeedup is SimSeq/SimPar. Wall clocks, hence noisy.
	SimSeq     time.Duration
	SimPar     time.Duration
	SimSpeedup float64

	// SimL2/SimL3 are the twisted schedule's simulated L2/L3 miss rates from
	// the same phase — deterministic, and verified bit-identical between the
	// two engines before the row is returned.
	SimL2, SimL3 float64

	// Checksum is the benchmark result checksum, identical across every
	// schedule and worker count — the row's deterministic signal in the
	// BENCH_fig7.json regression baseline.
	Checksum uint64
}

// Fig7 measures the wall-clock speedup of recursion twisting over the
// original schedule for the six benchmarks at the given scale. With
// workers >= 1 it additionally runs the twisted schedule under the
// work-stealing executor at 1 and at workers workers, verifies every run's
// checksum against the baseline, and verifies the two parallel runs' merged
// Stats are identical — the determinism contract of the executor. With
// simWorkers >= 1 it also runs the twisted trace through the sequential and
// the set-partitioned parallel cache simulator, verifies their stats are
// bit-identical (the §4.8 determinism contract — a mismatch is an error,
// which is what the CI gate leans on), and reports both sim wall clocks plus
// the L2/L3 miss rates.
func Fig7(scale int, seed int64, repeats, workers, simWorkers int) ([]Fig7Row, error) {
	defer obs.Span(rec, "experiments.fig7")()
	var rows []Fig7Row
	for _, in := range workloads.Suite(scale, seed) {
		db, cb := runWall(in, nest.Original(), repeats)
		dt, ct := runWall(in, nest.Twisted(), repeats)
		if cb != ct {
			return nil, fmt.Errorf("fig7: %s checksum mismatch: baseline %x, twisted %x", in.Name, cb, ct)
		}
		rec.Time("fig7."+in.Name+".baseline", db)
		rec.Time("fig7."+in.Name+".twisted", dt)
		row := Fig7Row{
			Bench:    in.Name,
			Baseline: db,
			Twisted:  dt,
			Speedup:  float64(db) / float64(dt),
			Checksum: cb,
		}
		if workers >= 1 {
			d1, st1, err := parWall(in, 1, cb, repeats)
			if err != nil {
				return nil, err
			}
			dn, stn := d1, st1
			if workers > 1 {
				if dn, stn, err = parWall(in, workers, cb, repeats); err != nil {
					return nil, err
				}
			}
			if stn != st1 {
				return nil, fmt.Errorf("fig7: %s merged stats not deterministic across workers:\n  1: %v\n%3d: %v",
					in.Name, st1, workers, stn)
			}
			row.Par1, row.ParN = d1, dn
			row.ParSpeedup = float64(d1) / float64(dn)
		}
		if simWorkers >= 1 {
			if err := simPhase(in, simWorkers, &row); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// simPhase runs the twisted trace of in through the sequential simulator and
// through the parallel simulator with simWorkers shard workers, times both
// (the clock covers trace generation plus simulation, stopping only after
// Stats() has drained every in-flight batch), errors unless the two engines'
// per-level stats are bit-identical, and fills the row's Sim* columns.
func simPhase(in *workloads.Instance, simWorkers int, row *Fig7Row) error {
	runSim := func(sim memsim.Simulator) (time.Duration, []memsim.LevelStats) {
		st := memsim.NewStream(sim, 0)
		sk := st.Sink()
		t0 := time.Now()
		if _, _, err := in.RunSink(nil, nest.Twisted(), sk, nil); err != nil {
			panic(err) // unreachable: a nil ctx never cancels
		}
		st.Close()
		stats := sim.Stats()
		return time.Since(t0), stats
	}
	seq := newSim(1)
	dSeq, stSeq := runSim(seq)
	seq.Close()
	par := newSim(simWorkers)
	dPar, stPar := runSim(par)
	par.Publish(rec, "fig7."+in.Name+".sim")
	par.Close()
	for k := range stSeq {
		if stSeq[k] != stPar[k] {
			return fmt.Errorf("fig7: %s simulated stats diverge between engines at %s:\n  seq: %+v\n  par: %+v",
				in.Name, stSeq[k].Name, stSeq[k], stPar[k])
		}
	}
	rec.Time("fig7."+in.Name+".simseq", dSeq)
	rec.Time("fig7."+in.Name+".simpar", dPar)
	row.SimSeq, row.SimPar = dSeq, dPar
	row.SimSpeedup = float64(dSeq) / float64(dPar)
	row.SimL2 = levelRate(stSeq, 1)
	row.SimL3 = levelRate(stSeq, 2)
	return nil
}

// parWall times the work-stealing twisted run of in at the given worker
// count, checking its checksum against want, and returns the merged Stats.
func parWall(in *workloads.Instance, workers int, want uint64, repeats int) (time.Duration, nest.Stats, error) {
	var res nest.RunResult
	var err error
	d := timeBest(repeats, func() {
		res, err = in.RunWith(nest.RunConfig{Variant: nest.Twisted(), Workers: workers, Recorder: rec})
	})
	if err != nil {
		return 0, nest.Stats{}, err
	}
	if got := in.Checksum(); got != want {
		return 0, nest.Stats{}, fmt.Errorf("fig7: %s parallel (w=%d) checksum %x, want %x", in.Name, workers, got, want)
	}
	return d, res.Stats, nil
}

// GeoMean returns the geometric mean of the speedups (the paper reports a
// 3.94x geomean).
func GeoMean(rows []Fig7Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	p := 1.0
	for _, r := range rows {
		p *= r.Speedup
	}
	return math.Pow(p, 1/float64(len(rows)))
}

// --- Fig 8a: instruction overhead ------------------------------------------

// Fig8aRow is one bar of Fig 8(a): the fractional overhead in the dynamic
// operation model of the twisted schedule over the baseline.
type Fig8aRow struct {
	Bench       string
	BaselineOps int64
	TwistedOps  int64
	Overhead    float64
}

// Fig8a measures instruction overhead for the six benchmarks.
func Fig8a(scale int, seed int64) []Fig8aRow {
	defer obs.Span(rec, "experiments.fig8a")()
	var rows []Fig8aRow
	for _, in := range workloads.Suite(scale, seed) {
		base := in.Run(nest.Original(), nest.FlagCounter)
		tw := in.Run(nest.Twisted(), nest.FlagCounter)
		rows = append(rows, Fig8aRow{
			Bench:       in.Name,
			BaselineOps: base.Ops(),
			TwistedOps:  tw.Ops(),
			Overhead:    tw.Overhead(base),
		})
	}
	return rows
}

// --- Fig 8b: L2/L3 miss rates ----------------------------------------------

// Fig8bRow is one benchmark of Fig 8(b): simulated L2 and L3 miss rates for
// the baseline and twisted schedules.
type Fig8bRow struct {
	Bench                            string
	BaseL2, TwistL2, BaseL3, TwistL3 float64
}

// Fig8b measures simulated miss rates for the six benchmarks. workers <= 1
// reproduces the paper's sequential figure through the streaming pipeline;
// workers > 1 simulates the parallel twisted execution in merge mode, with
// all workers' interleaved accesses sharing the one hierarchy. simWorkers
// sizes the simulator itself (sequential vs set-partitioned parallel; the
// rates are bit-identical either way).
func Fig8b(scale int, seed int64, workers, simWorkers int) ([]Fig8bRow, error) {
	defer obs.Span(rec, "experiments.fig8b")()
	var rows []Fig8bRow
	for _, in := range workloads.Suite(scale, seed) {
		base, err := missRatesWith(in, nest.Original(), workers, simWorkers)
		if err != nil {
			return nil, err
		}
		tw, err := missRatesWith(in, nest.Twisted(), workers, simWorkers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8bRow{
			Bench:   in.Name,
			BaseL2:  levelRate(base, 1),
			TwistL2: levelRate(tw, 1),
			BaseL3:  levelRate(base, 2),
			TwistL3: levelRate(tw, 2),
		})
	}
	return rows, nil
}

// --- Fig 9: PC across input sizes -------------------------------------------

// Fig9Row is one input size of Fig 9: PC speedup (a) and miss rates (b).
type Fig9Row struct {
	N                                int
	Speedup                          float64
	BaseL2, TwistL2, BaseL3, TwistL3 float64
}

// Fig9 sweeps point-correlation input sizes (log-spaced, as in the paper's
// log-scale x axis) and reports wall-clock speedup plus simulated miss
// rates. workers and simWorkers have the same meaning as in Fig8b — the
// miss-rate columns come from the streaming simulation, sequential
// single-sink for workers <= 1 (deterministic), merge mode otherwise; the
// wall-clock speedup column is always the sequential paper comparison.
func Fig9(sizes []int, radius float64, seed int64, repeats, workers, simWorkers int) ([]Fig9Row, error) {
	defer obs.Span(rec, "experiments.fig9")()
	var rows []Fig9Row
	for _, n := range sizes {
		in := workloads.PointCorr(n, radius, seed)
		db, cb := runWall(in, nest.Original(), repeats)
		dt, ct := runWall(in, nest.Twisted(), repeats)
		if cb != ct {
			return nil, fmt.Errorf("fig9: n=%d checksum mismatch", n)
		}
		base, err := missRatesWith(in, nest.Original(), workers, simWorkers)
		if err != nil {
			return nil, err
		}
		tw, err := missRatesWith(in, nest.Twisted(), workers, simWorkers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			N:       n,
			Speedup: float64(db) / float64(dt),
			BaseL2:  levelRate(base, 1),
			TwistL2: levelRate(tw, 1),
			BaseL3:  levelRate(base, 2),
			TwistL3: levelRate(tw, 2),
		})
	}
	return rows, nil
}

// --- Fig 10: the cutoff study (§7.1) ----------------------------------------

// Fig10Row is one cutoff value of Fig 10. Cutoff < 0 denotes the
// parameterless twisting baseline.
type Fig10Row struct {
	Cutoff   int
	Overhead float64 // instruction overhead vs the original schedule (Fig 10a)
	Speedup  float64 // wall-clock speedup vs the original schedule (Fig 10b)
}

// Fig10 reproduces the cutoff study on PC: instruction overhead and speedup
// for a range of cutoff parameters, with parameterless twisting (cutoff -1)
// for comparison. The paper notes it uses a smaller PC input than Fig 7.
// With workers >= 1 every wall-clock measurement (baseline and all cutoff
// variants alike) runs under the work-stealing executor at that worker
// count, so the speedup column compares like with like; the instruction
// overheads always come from sequential counted runs.
func Fig10(n int, radius float64, cutoffs []int, seed int64, repeats, workers int) ([]Fig10Row, error) {
	defer obs.Span(rec, "experiments.fig10")()
	in := workloads.PointCorr(n, radius, seed)
	base := in.Run(nest.Original(), nest.FlagCounter)
	dbase, cb, err := wallOf(in, nest.Original(), repeats, workers)
	if err != nil {
		return nil, err
	}
	variants := []nest.Variant{nest.Twisted()}
	for _, c := range cutoffs {
		variants = append(variants, nest.TwistedCutoff(c))
	}
	var rows []Fig10Row
	for k, v := range variants {
		st := in.Run(v, nest.FlagCounter)
		d, c, err := wallOf(in, v, repeats, workers)
		if err != nil {
			return nil, err
		}
		if c != cb {
			return nil, fmt.Errorf("fig10: %v checksum mismatch", v)
		}
		cutoff := -1
		if k > 0 {
			cutoff = cutoffs[k-1]
		}
		rows = append(rows, Fig10Row{
			Cutoff:   cutoff,
			Overhead: st.Overhead(base),
			Speedup:  float64(dbase) / float64(d),
		})
	}
	return rows, nil
}

// wallOf times variant v of in — sequentially, or under the work-stealing
// executor when workers >= 1 — and returns (duration, checksum).
func wallOf(in *workloads.Instance, v nest.Variant, repeats, workers int) (time.Duration, uint64, error) {
	if workers < 1 {
		d, c := runWall(in, v, repeats)
		return d, c, nil
	}
	var err error
	d := timeBest(repeats, func() {
		if err != nil {
			return
		}
		_, err = in.RunWith(nest.RunConfig{Variant: v, Workers: workers, Recorder: rec})
	})
	if err != nil {
		return 0, 0, err
	}
	return d, in.Checksum(), nil
}

// --- §4.2 iteration counts ----------------------------------------------------

// ItersRow is one schedule of the §4.2 work-overhead comparison.
type ItersRow struct {
	Schedule   string
	Iterations int64
	Work       int64
	Overhead   float64 // iteration overhead vs the original schedule
}

// TblIters reproduces the §4.2 iteration-count comparison on PC: original,
// interchange, twisting, and twisting with subtree truncation.
func TblIters(n int, radius float64, seed int64) []ItersRow {
	defer obs.Span(rec, "experiments.iters")()
	in := workloads.PointCorr(n, radius, seed)
	run := func(v nest.Variant, subtree bool) nest.Stats {
		st, _, err := in.RunSeq(nil, v, func(e *nest.Exec) { e.SubtreeTruncation = subtree })
		if err != nil {
			panic(err) // unreachable: a nil ctx never cancels
		}
		return st
	}
	orig := run(nest.Original(), true)
	rows := []ItersRow{{Schedule: "original", Iterations: orig.Iterations, Work: orig.Work}}
	add := func(name string, st nest.Stats) {
		rows = append(rows, ItersRow{
			Schedule:   name,
			Iterations: st.Iterations,
			Work:       st.Work,
			Overhead:   float64(st.Iterations-orig.Iterations) / float64(orig.Iterations),
		})
	}
	add("interchange", run(nest.Interchanged(), false))
	add("twisting", run(nest.Twisted(), false))
	add("twisting+subtree", run(nest.Twisted(), true))
	return rows
}
