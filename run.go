package twist

// This file is the unified run surface: one entrypoint, Run, with
// functional options. Sequential and parallel execution, schedule
// selection, carried measurement dimensions (layout, simulation workers),
// and telemetry all route through the same call, which builds on the Exec
// methods Run, RunContext, and RunWith.

import (
	"context"
	"fmt"

	"twist/internal/layout"
	"twist/internal/nest"
	"twist/internal/obs"
)

// Recorder receives run telemetry; see internal/obs. Pass one to Run with
// WithRecorder. Implementations must be safe for concurrent use.
type Recorder = obs.Recorder

// runOptions accumulates one Run call's configuration. The zero value
// reproduces Exec.Run under the original schedule exactly.
type runOptions struct {
	cfg      nest.RunConfig
	parallel bool
	flags    FlagMode
	flagsOn  bool
	subtree  bool
	subOn    bool
}

// RunOption configures one Run call; build them with the With* constructors.
type RunOption func(*runOptions)

// WithSchedule selects the schedule to execute (default the identity, the
// original order), lowering it onto the engine's canonical schedules.
// Inlining terms are dropped by the lowering: they change generated code,
// not the visit order, so the execution is exact.
func WithSchedule(s Schedule) RunOption {
	return func(o *runOptions) { o.cfg.Variant = s.Variant() }
}

// WithWorkers sets the worker count. n >= 1 selects the work-stealing
// parallel executor with the §7.3 spawn-depth decomposition and exactly n
// workers — n = 1 included, as the determinism baseline: merged Stats
// depend only on the spawn depth, never on n. The decomposition requires
// Spec.Work and the truncation predicates to be safe for concurrent calls
// on distinct outer subtrees. n <= 0 (like omitting the option) keeps the
// sequential engine: one goroutine, no decomposition, Tasks = 1 in the
// result. Pass runtime.GOMAXPROCS(0) explicitly to size to the machine.
func WithWorkers(n int) RunOption {
	return func(o *runOptions) {
		o.parallel = n >= 1
		o.cfg.Workers = n
	}
}

// WithSpawnDepth sets the outer-tree depth of the §7.3 task decomposition
// for parallel runs (default DefaultSpawnDepth). Merged Stats depend only
// on this value, never on the worker count.
func WithSpawnDepth(d int) RunOption {
	return func(o *runOptions) { o.cfg.SpawnDepth = d }
}

// WithFlagMode selects the truncation-flag representation for irregular
// spaces (default FlagSets, the paper's Fig 6(b) protocol).
func WithFlagMode(fm FlagMode) RunOption {
	return func(o *runOptions) { o.flags, o.flagsOn = fm, true }
}

// WithSubtreeTruncation enables the §4.2 whole-subtree truncation
// optimization (requires Spec.Hereditary).
func WithSubtreeTruncation(on bool) RunOption {
	return func(o *runOptions) { o.subtree, o.subOn = on, true }
}

// WithContext attaches cooperative cancellation: the context is polled at
// outer-subtree granularity, and on cancellation Run returns ctx.Err() with
// the partial Stats.
func WithContext(ctx context.Context) RunOption {
	return func(o *runOptions) { o.cfg.Ctx = ctx }
}

// WithRecorder attaches telemetry: the run's wall clock ("nest.run"), the
// executor counters ("nest.tasks", "nest.workers", ...), the engine-overhead
// counter ("nest.engine.ops"), and the merged operation counts
// (Stats.Record under "nest").
func WithRecorder(r Recorder) RunOption {
	return func(o *runOptions) { o.cfg.Recorder = r }
}

// WithLayout pins the arena layout dimension the run is measured under.
// Run itself never touches addresses — layouts apply where traces are
// generated — but telemetry must record the layout a measurement belongs
// to, so the dimension travels with the run ("nest.layout.<name>"; the
// default BuildOrderLayout elides, mirroring the serve API).
func WithLayout(k LayoutKind) RunOption {
	return func(o *runOptions) {
		if k == layout.BuildOrder {
			o.cfg.Layout = ""
			return
		}
		o.cfg.Layout = k.String()
	}
}

// WithSimWorkers pins the simulation-worker dimension of an attached
// trace-driven cache simulation ("nest.simworkers"); like WithLayout it is
// a carried dimension, not an executor behavior.
func WithSimWorkers(n int) RunOption {
	return func(o *runOptions) { o.cfg.SimWorkers = n }
}

// Run executes exec under the given options and returns the merged result.
// With no options it is Exec.Run under the original schedule — sequential,
// no telemetry — and each option moves exactly one axis:
//
//	res, err := twist.Run(exec,
//		twist.WithSchedule(twist.MustParseSchedule("stripmine(64)∘twist(flagged)")),
//		twist.WithWorkers(8),
//	)
//
// Sequential runs (the default, and any WithWorkers(n <= 0)) report
// Workers = 1 and Tasks = 1; parallel runs report the §7.3 decomposition's
// task and steal counts. For a fixed spawn depth, Stats are bit-identical
// across worker counts.
func Run(exec *Exec, opts ...RunOption) (RunResult, error) {
	if exec == nil {
		return RunResult{}, fmt.Errorf("twist: Run on a nil Exec")
	}
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.flagsOn {
		exec.Flags = o.flags
	}
	if o.subOn {
		exec.SubtreeTruncation = o.subtree
	}
	if o.parallel {
		return exec.RunWith(o.cfg)
	}
	return runSequential(exec, o.cfg)
}

// MustParseSchedule is ParseSchedule that panics on error, for
// statically-known expressions.
func MustParseSchedule(expr string) Schedule {
	s, err := ParseSchedule(expr)
	if err != nil {
		panic(err)
	}
	return s
}

// runSequential is Run's single-goroutine path: the exact behavior of
// Exec.RunContext (bit-identical Stats — no task decomposition, so flag
// state spans the whole space), wrapped in the RunResult shape and the
// telemetry contract of the parallel executor so callers see one uniform
// surface.
func runSequential(exec *Exec, cfg nest.RunConfig) (RunResult, error) {
	done := obs.Span(cfg.Recorder, "nest.run")
	err := exec.RunContext(cfg.Ctx, cfg.Variant)
	done()
	res := RunResult{
		Stats:     exec.Stats,
		PerWorker: []Stats{exec.Stats},
		Workers:   1,
		Tasks:     1,
		EngineOps: exec.EngineOps(),
	}
	if rec := cfg.Recorder; rec != nil {
		rec.Count("nest.tasks", res.Tasks)
		rec.Count("nest.steals", 0)
		rec.Count("nest.workers", 1)
		rec.Count("nest.engine.ops", res.EngineOps)
		if cfg.SimWorkers > 0 {
			rec.Count("nest.simworkers", int64(cfg.SimWorkers))
		}
		if cfg.Layout != "" {
			rec.Count("nest.layout."+cfg.Layout, 1)
		}
		res.Stats.Record(rec, "nest")
	}
	return res, err
}
