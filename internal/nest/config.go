package nest

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"twist/internal/obs"
	"twist/internal/tree"
)

// DefaultSpawnDepth is the outer-tree depth at which the parallel executor
// stops splitting and hands whole subtrees to the schedule variant. It is a
// constant — deliberately independent of the worker count — so that the task
// decomposition, and therefore the merged Stats, are byte-identical across
// every worker count. At depth 6 a complete outer tree yields 64 subtree
// tasks plus 63 split columns: enough slack for stealing to balance
// irregular truncation without drowning in task overhead.
const DefaultSpawnDepth = 6

// RunConfig configures a parallel run. The zero value (plus a Variant) is a
// sensible default: GOMAXPROCS workers, DefaultSpawnDepth, work stealing, no
// cancellation.
type RunConfig struct {
	// Variant is the schedule each task runs on its subtree (typically
	// Twisted; the paper's §7.3 "parallelize above, twist below").
	Variant Variant

	// Engine is a visit-engine label (see Engine) and selects nothing:
	// every worker runs the recursive engine. The oracle's parallel verdict
	// label (oracle.Trace.CheckParallel) prints a non-default one.
	Engine Engine

	// Workers is the number of worker goroutines; <= 0 means GOMAXPROCS.
	Workers int

	// SpawnDepth is the outer-tree depth at which subtrees become leaf
	// tasks; <= 0 means DefaultSpawnDepth. The decomposition depends only
	// on this value (never on Workers or on runtime scheduling), which is
	// what makes merged Stats reproducible across worker counts.
	SpawnDepth int

	// Stealing is an executor label and selects nothing: RunWith always
	// runs the work-stealing executor (steal.go). It stays because the
	// oracle's parallel verdict label (oracle.Trace.CheckParallel) prints
	// it and serve oracle jobs carry it.
	Stealing bool

	// Ctx, when non-nil, cancels the run cooperatively: it is polled at
	// task granularity and at outer-subtree granularity inside tasks, and
	// the first observed error is returned with the partial merged Stats.
	Ctx context.Context

	// ForTask, when non-nil, derives the Spec a task runs from the base
	// Spec, given the task's outer root (both subtree tasks and split-node
	// column tasks). Workloads use it to give each task private mutable
	// state — per-task reduction shards, fresh pruning bounds — so the
	// task's behaviour (and stats) is a pure function of its root. The
	// returned Spec must keep the same topologies and the same
	// regular/irregular shape (TruncInner2 nil-ness) as the base.
	ForTask func(root tree.NodeID, base Spec) Spec

	// WrapWork, when non-nil, wraps the task Spec's Work for the worker
	// about to run it (after ForTask). The memsim streaming pipeline uses
	// it to route each worker's node accesses into that worker's TraceSink.
	WrapWork func(worker int, work func(o, i tree.NodeID)) func(o, i tree.NodeID)

	// Layout names the arena layout (internal/layout) the run's traced
	// addresses are generated under. It is a carried dimension: the
	// executor never touches addresses — the harness applies the layout
	// when it builds the trace (workloads.Instance.WithLayout) — but a
	// run's telemetry must pin the layout it was measured under, so the
	// dimension travels with the run and is reported as
	// "nest.layout.<name>". Empty means the legacy build-order arena.
	Layout string

	// Recorder, when non-nil, receives the run's telemetry: the wall clock
	// of the whole run ("nest.run"), the executor counters ("nest.tasks",
	// "nest.steals", "nest.workers") and the merged operation counts
	// ("nest.iterations", "nest.subtree_cuts", ... — see Stats.Record).
	// It must be safe for concurrent use; nil records nothing.
	Recorder obs.Recorder
}

// RunResult reports a parallel run.
type RunResult struct {
	// Stats is the merged operation counts of every task (also mirrored
	// into the Exec's Stats field). For a fixed SpawnDepth it is identical
	// across worker counts.
	Stats Stats

	// PerWorker holds each worker's locally-accumulated Stats; their sum
	// is Stats. Attribution varies run to run under stealing.
	PerWorker []Stats

	// Workers is the number of workers actually used.
	Workers int

	// Tasks is the number of task units executed (split columns plus leaf
	// subtrees); deterministic for a fixed Spec and SpawnDepth.
	Tasks int64

	// Steals counts tasks that moved between workers (always 0 for
	// single-worker runs).
	Steals int64

	// EngineOps is the engine-overhead counter of the run (see
	// Exec.EngineOps): Stats.OuterCalls + Stats.InnerCalls.
	EngineOps int64
}

// RunWith executes the computation under cfg. The outer tree is split into
// tasks down to cfg.SpawnDepth — each split node contributes its column as
// one task, each depth-SpawnDepth subtree runs cfg.Variant whole — and the
// tasks execute on cfg.Workers work-stealing workers. Per-worker Stats are
// accumulated locally, with no shared state on the hot path, and merged
// once at the end.
//
// Soundness requires the §3.3 criterion (outer recursions independent), and
// Spec.Work plus the truncation predicates must be safe to call from
// concurrent goroutines for distinct outer nodes; iterations of one column
// never run concurrently. Use cfg.ForTask to shard mutable workload state
// per task.
func (e *Exec) RunWith(cfg RunConfig) (RunResult, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.SpawnDepth
	if depth <= 0 {
		depth = DefaultSpawnDepth
	}
	if depth > math.MaxInt32 {
		return RunResult{}, fmt.Errorf("nest: spawn depth %d out of range", depth)
	}
	done := obs.Span(cfg.Recorder, "nest.run")
	res, err := e.runStealing(cfg, workers, int32(depth))
	e.Stats = res.Stats
	done()
	if cfg.Recorder != nil {
		cfg.Recorder.Count("nest.tasks", res.Tasks)
		cfg.Recorder.Count("nest.steals", res.Steals)
		cfg.Recorder.Count("nest.workers", int64(res.Workers))
		cfg.Recorder.Count("nest.engine.ops", res.EngineOps)
		if cfg.Layout != "" {
			cfg.Recorder.Count("nest.layout."+cfg.Layout, 1)
		}
		res.Stats.Record(cfg.Recorder, "nest")
	}
	return res, err
}

// child builds a worker-private Exec sharing e's configuration.
func (e *Exec) child(ctx context.Context) *Exec {
	w := &Exec{
		spec:              e.spec,
		Flags:             e.Flags,
		SubtreeTruncation: e.SubtreeTruncation,
		irregular:         e.irregular,
		ctx:               ctx,
	}
	w.prepare()
	return w
}

// taskSpec derives the Spec a given worker runs for the task rooted at root.
func taskSpec(cfg *RunConfig, worker int, root tree.NodeID, base Spec) Spec {
	s := base
	if cfg.ForTask != nil {
		s = cfg.ForTask(root, s)
	}
	if cfg.WrapWork != nil {
		s.Work = cfg.WrapWork(worker, s.Work)
	}
	return s
}
