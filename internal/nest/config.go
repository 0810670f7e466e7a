package nest

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"twist/internal/obs"
	"twist/internal/tree"
)

// DefaultSpawnDepth is the outer-tree depth at which the parallel executors
// stop splitting and hand whole subtrees to the schedule variant. It is a
// constant — deliberately independent of the worker count — so that the task
// decomposition, and therefore the merged Stats, are byte-identical across
// every worker count and both executors. At depth 6 a complete outer tree
// yields 64 subtree tasks plus 63 split columns: enough slack for stealing
// to balance irregular truncation without drowning in task overhead.
const DefaultSpawnDepth = 6

// RunConfig configures a parallel run. The zero value (plus a Variant) is a
// sensible default: GOMAXPROCS workers, DefaultSpawnDepth, static
// decomposition, no cancellation.
type RunConfig struct {
	// Variant is the schedule each task runs on its subtree (typically
	// Twisted; the paper's §7.3 "parallelize above, twist below").
	Variant Variant

	// Engine selects the visit-engine implementation every worker uses
	// (recursive or iterative; see Engine). The two engines produce
	// bit-identical merged Stats — the axis only moves the engine-overhead
	// counter reported in RunResult.EngineOps and the "nest.engine.ops"
	// telemetry. Default EngineRecursive.
	Engine Engine

	// Workers is the number of worker goroutines; <= 0 means GOMAXPROCS.
	Workers int

	// SpawnDepth is the outer-tree depth at which subtrees become leaf
	// tasks; <= 0 means DefaultSpawnDepth. The decomposition depends only
	// on this value (never on Workers or on runtime scheduling), which is
	// what makes merged Stats reproducible across worker counts.
	SpawnDepth int

	// Stealing selects the work-stealing executor (per-worker deques, LIFO
	// owner pop, FIFO half-steals) instead of the static task queue. The
	// two produce identical merged Stats; stealing keeps workers busy on
	// irregular, truncation-heavy spaces where static tasks are lopsided.
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

	// SimWorkers sizes the trace-driven cache simulation attached to the
	// run, when there is one (a WrapWork hook feeding a memsim Stream):
	// <= 1 keeps the sequential simulator, > 1 asks the harness for a
	// set-partitioned parallel simulator with that many shard workers
	// (memsim.Config.SimWorkers; stats stay bit-identical either way —
	// DESIGN.md §4.8). The executor itself does not simulate; it carries
	// the dimension with the run and reports it as "nest.simworkers" so a
	// run's telemetry pins the simulation configuration it was measured
	// under.
	SimWorkers int

	// Layout names the arena layout (internal/layout) the run's traced
	// addresses are generated under. Like SimWorkers it is a carried
	// dimension: the executor never touches addresses — the harness applies
	// the layout when it builds the trace (workloads.Instance.WithLayout) —
	// but a run's telemetry must pin the layout it was measured under, so
	// the dimension travels with the run and is reported as
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
	// across worker counts and executors.
	Stats Stats

	// PerWorker holds each worker's locally-accumulated Stats; their sum
	// is Stats. Attribution varies run to run under stealing.
	PerWorker []Stats

	// Workers is the number of workers actually used.
	Workers int

	// Tasks is the number of task units executed (split columns plus leaf
	// subtrees); deterministic for a fixed Spec and SpawnDepth.
	Tasks int64

	// Steals counts tasks that moved between workers (always 0 for the
	// static executor and for single-worker runs).
	Steals int64

	// EngineOps is the summed engine-overhead counter of every worker (see
	// Exec.EngineOps): recursion entries for the recursive engine, frame
	// executions for the iterative one. Like Stats it is deterministic for
	// a fixed Spec, schedule, and SpawnDepth — identical across worker
	// counts and executors — which is what makes it gateable in CI.
	EngineOps int64
}

// RunWith executes the computation under cfg. The outer tree is split into
// tasks down to cfg.SpawnDepth — each split node contributes its column as
// one task, each depth-SpawnDepth subtree runs cfg.Variant whole — and the
// tasks execute on cfg.Workers workers, either from a static queue or with
// work stealing. Per-worker Stats are accumulated locally, with no shared
// state on the hot path, and merged once at the end.
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
	e.Engine = cfg.Engine
	done := obs.Span(cfg.Recorder, "nest.run")
	var res RunResult
	var err error
	if cfg.Stealing {
		res, err = e.runStealing(cfg, workers, int32(depth))
	} else {
		res, err = e.runStatic(cfg, workers, depth)
	}
	e.Stats = res.Stats
	done()
	if cfg.Recorder != nil {
		cfg.Recorder.Count("nest.tasks", res.Tasks)
		cfg.Recorder.Count("nest.steals", res.Steals)
		cfg.Recorder.Count("nest.workers", int64(res.Workers))
		cfg.Recorder.Count("nest.engine.ops", res.EngineOps)
		cfg.Recorder.Count("nest.engine."+cfg.Engine.String(), 1)
		if cfg.SimWorkers > 0 {
			cfg.Recorder.Count("nest.simworkers", int64(cfg.SimWorkers))
		}
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
		Engine:            e.Engine,
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

// runStatic is the static spawn-depth executor: worker 0 runs the split
// columns sequentially while collecting the depth-SpawnDepth task roots,
// then all workers drain the roots from one queue. It is the baseline the
// stealing executor is measured against; both run the identical task set.
func (e *Exec) runStatic(cfg RunConfig, workers, depth int) (RunResult, error) {
	base := e.spec
	iRoot := base.Inner.Root()

	w0 := e.child(cfg.Ctx)
	var roots []tree.NodeID
	var aborted atomic.Bool
	var tasks int64
	var walk func(o tree.NodeID, d int)
	walk = func(o tree.NodeID, d int) {
		if w0.truncO(o) || w0.ctxErr != nil {
			return
		}
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				w0.ctxErr = err
				return
			}
		}
		tasks++
		if d == depth {
			roots = append(roots, o)
			return
		}
		w0.spec = taskSpec(&cfg, 0, o, base)
		w0.column(o, iRoot)
		walk(base.Outer.Left(o), d+1)
		walk(base.Outer.Right(o), d+1)
	}
	walk(base.Outer.Root(), 0)
	if w0.ctxErr != nil {
		aborted.Store(true)
	}

	perWorker := make([]Stats, workers)
	engineOps := make([]int64, workers)
	ch := make(chan tree.NodeID)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ew := w0
			if w != 0 {
				ew = e.child(cfg.Ctx)
			}
			for root := range ch {
				if aborted.Load() {
					continue // keep draining so senders never block
				}
				ew.spec = taskSpec(&cfg, w, root, base)
				ew.runVariant(cfg.Variant, root, iRoot)
				if ew.ctxErr != nil {
					aborted.Store(true)
				}
			}
			perWorker[w] = ew.Stats
			engineOps[w] = ew.EngineOps()
		}(w)
	}
	if !aborted.Load() {
		for _, root := range roots {
			ch <- root
		}
	}
	close(ch)
	wg.Wait()

	var merged Stats
	var ops int64
	for w, st := range perWorker {
		merged.Add(st)
		ops += engineOps[w]
	}
	res := RunResult{Stats: merged, PerWorker: perWorker, Workers: workers, Tasks: tasks, EngineOps: ops}
	if aborted.Load() {
		return res, cfg.Ctx.Err()
	}
	return res, nil
}
