// Work-stealing executor for the §7.3 parallel decomposition.
//
// On irregular, truncation-heavy spaces (PC, KNN, VP) subtree costs are
// wildly uneven, so a fixed assignment of subtrees to workers leaves workers
// idle while a straggler finishes. Here each worker owns a bounded deque of
// outer-subtree tasks: it pushes and pops at the tail (LIFO) so the task it
// runs next is the one whose outer subtree it touched most recently — the
// same locality argument as twisting itself — and when dry it steals the
// oldest half of a victim's deque (FIFO), taking the largest-grain tasks and
// leaving the victim its hot tail. The task *decomposition* is fixed (split
// while depth < SpawnDepth, run the variant at SpawnDepth), so the merged
// Stats are byte-identical across worker counts; only the assignment of
// tasks to workers varies.
package nest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twist/internal/tree"
)

// task is one schedulable unit: an outer subtree and its split depth.
type task struct {
	root  tree.NodeID
	depth int32
}

// dequeCap bounds each worker's deque. The decomposition produces at most
// 2^(SpawnDepth+1) units total, so 256 is generous at the default depth;
// overflow falls back to running the task inline, which is always correct
// (it just forgoes exposing that task to thieves).
const dequeCap = 256

// deque is a bounded double-ended task queue: the owner pushes and pops at
// the tail, thieves take from the head. A mutex-guarded ring is deliberately
// chosen over a Chase-Lev array: with at most a few hundred coarse tasks per
// run the queue is touched far too rarely for lock-freedom to matter, and
// the mutex keeps the steal-half operation trivially correct.
type deque struct {
	mu         sync.Mutex
	buf        [dequeCap]task
	head, tail int // head = oldest; size = tail - head
}

// push appends t at the tail; it reports false when the deque is full.
func (d *deque) push(t task) bool {
	d.mu.Lock()
	if d.tail-d.head == dequeCap {
		d.mu.Unlock()
		return false
	}
	d.buf[d.tail%dequeCap] = t
	d.tail++
	d.mu.Unlock()
	return true
}

// pop removes and returns the most recently pushed task (LIFO).
func (d *deque) pop() (task, bool) {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return task{}, false
	}
	d.tail--
	t := d.buf[d.tail%dequeCap]
	d.mu.Unlock()
	return t, true
}

// stealHalf moves the oldest ceil(half) of d's tasks into scratch (FIFO
// order preserved: scratch[0] is the overall oldest) and returns it.
func (d *deque) stealHalf(scratch []task) []task {
	scratch = scratch[:0]
	d.mu.Lock()
	n := d.tail - d.head
	for k := 0; k < (n+1)/2; k++ {
		scratch = append(scratch, d.buf[d.head%dequeCap])
		d.head++
	}
	d.mu.Unlock()
	return scratch
}

// stealRun is the shared state of one work-stealing execution.
type stealRun struct {
	cfg        *RunConfig
	base       Spec
	spawnDepth int32
	iRoot      tree.NodeID
	deques     []*deque

	// pending counts tasks created but not yet finished; the run is over
	// when it reaches zero. tasks and steals feed RunResult. aborted is the
	// cross-worker cancellation latch.
	pending atomic.Int64
	tasks   atomic.Int64
	steals  atomic.Int64
	aborted atomic.Bool
}

// runStealing executes the decomposition on worker-owned deques.
func (e *Exec) runStealing(cfg RunConfig, workers int, depth int32) (RunResult, error) {
	r := &stealRun{
		cfg:        &cfg,
		base:       e.spec,
		spawnDepth: depth,
		iRoot:      e.spec.Inner.Root(),
		deques:     make([]*deque, workers),
	}
	for w := range r.deques {
		r.deques[w] = &deque{}
	}
	r.pending.Store(1)
	r.tasks.Store(1)
	r.deques[0].push(task{root: r.base.Outer.Root(), depth: 0})

	perWorker := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(w, e.child(cfg.Ctx), &perWorker[w])
		}(w)
	}
	wg.Wait()

	var merged Stats
	for _, st := range perWorker {
		merged.Add(st)
	}
	res := RunResult{
		Stats:     merged,
		PerWorker: perWorker,
		Workers:   workers,
		Tasks:     r.tasks.Load(),
		Steals:    r.steals.Load(),
		EngineOps: merged.OuterCalls + merged.InnerCalls,
	}
	if r.aborted.Load() {
		return res, cfg.Ctx.Err()
	}
	return res, nil
}

// worker is one scheduling loop: pop local LIFO; when dry, scan victims
// round-robin and steal the oldest half of the first non-empty deque (run
// the single oldest task, keep the rest locally — the local deque is empty,
// so they always fit); back off when everyone is dry but tasks are still in
// flight; exit when no task is pending anywhere.
func (r *stealRun) worker(w int, e *Exec, out *Stats) {
	var scratch []task
	idle := 0
	for {
		if t, ok := r.deques[w].pop(); ok {
			idle = 0
			r.runTask(e, w, t)
			continue
		}
		if r.pending.Load() == 0 {
			break
		}
		stole := false
		for off := 1; off < len(r.deques); off++ {
			scratch = r.deques[(w+off)%len(r.deques)].stealHalf(scratch)
			if len(scratch) == 0 {
				continue
			}
			r.steals.Add(int64(len(scratch)))
			for _, t := range scratch[1:] {
				r.deques[w].push(t)
			}
			idle, stole = 0, true
			r.runTask(e, w, scratch[0])
			break
		}
		if !stole {
			idle++
			if idle%64 == 0 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
	}
	*out = e.Stats
}

// runTask executes one unit on worker w's Exec: split nodes push their
// non-truncated children (exposing them to thieves) and run their own
// column; depth-SpawnDepth nodes run the whole schedule variant on their
// subtree. Pending bookkeeping is exact: every created task is eventually
// passed to runTask exactly once, and runTask decrements pending exactly
// once, so termination detection cannot misfire.
func (r *stealRun) runTask(e *Exec, w int, t task) {
	defer r.pending.Add(-1)
	if r.aborted.Load() {
		return
	}
	if r.cfg.Ctx != nil && e.ctxErr == nil {
		if err := r.cfg.Ctx.Err(); err != nil {
			e.ctxErr = err
		}
	}
	if e.ctxErr != nil {
		r.aborted.Store(true)
		return
	}
	if e.truncO(t.root) {
		return
	}
	spec := taskSpec(r.cfg, w, t.root, r.base)
	e.spec = spec
	if t.depth < r.spawnDepth {
		out := r.base.Outer
		for _, c := range [2]tree.NodeID{out.Left(t.root), out.Right(t.root)} {
			if c == tree.Nil || e.truncO(c) {
				continue
			}
			child := task{root: c, depth: t.depth + 1}
			r.pending.Add(1)
			r.tasks.Add(1)
			if !r.deques[w].push(child) {
				r.runTask(e, w, child)
				e.spec = spec
			}
		}
		e.inner(t.root, r.iRoot)
	} else {
		e.runVariant(r.cfg.Variant, t.root, r.iRoot)
	}
	if e.ctxErr != nil {
		r.aborted.Store(true)
	}
}
