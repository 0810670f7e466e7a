package nest

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"twist/internal/tree"
)

// runWithPairs executes RunWith under flag mode fm, collecting iterations
// thread-safely.
func runWithPairs(t *testing.T, s Spec, fm FlagMode, cfg RunConfig) ([]pair, RunResult) {
	t.Helper()
	var mu sync.Mutex
	var got []pair
	s.Work = func(o, i tree.NodeID) {
		mu.Lock()
		got = append(got, pair{o, i})
		mu.Unlock()
	}
	e := MustNew(s)
	e.Flags = fm
	res, err := e.RunWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func stealSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	outer, inner := tree.NewRandomBST(300, 7), tree.NewRandomBST(280, 8)
	return map[string]Spec{
		"regular":   regularSpec(outer, inner),
		"irregular": irregularSpec(outer, inner, 21, true, 0.6),
		"general":   irregularSpec(outer, inner, 5, false, 0.8),
	}
}

// The core tentpole property: for every variant, on regular and TruncInner2
// workloads alike, the work-stealing run executes exactly the sequential
// iteration set, and its merged Stats are identical to the single-worker
// aggregate of the same decomposition (run with -race in CI).
func TestStealingMergeMatchesSequentialAggregate(t *testing.T) {
	t.Parallel()
	for name, s := range stealSpecs(t) {
		for _, v := range []Variant{Original(), Interchanged(), Twisted(), TwistedCutoff(8)} {
			wantPairs := pairSet(runPairs(t, s, Original(), nil))
			seqPairs, seq := runWithPairs(t, s, FlagCounter, RunConfig{Variant: v, Workers: 1})
			if !reflect.DeepEqual(pairSet(seqPairs), wantPairs) {
				t.Fatalf("%s/%v: 1-worker stealing iteration set differs from sequential", name, v)
			}
			for _, workers := range []int{2, 3, 8} {
				gotPairs, got := runWithPairs(t, s, FlagCounter, RunConfig{Variant: v, Workers: workers})
				if !reflect.DeepEqual(pairSet(gotPairs), wantPairs) {
					t.Fatalf("%s/%v/w=%d: stolen iteration set differs", name, v, workers)
				}
				if got.Stats != seq.Stats {
					t.Fatalf("%s/%v/w=%d: merged stats differ from 1-worker aggregate:\n got %v\nwant %v",
						name, v, workers, got.Stats, seq.Stats)
				}
				var sum Stats
				for _, st := range got.PerWorker {
					sum.Add(st)
				}
				if sum != got.Stats {
					t.Fatalf("%s/%v/w=%d: PerWorker does not sum to merged Stats", name, v, workers)
				}
			}
		}
	}
}

// The task decomposition depends only on the spawn depth, so one worker and
// four workers agree exactly on merged Stats and task counts at every depth —
// including one beyond the tree height, where no subtree task is left — and
// under both flag modes, since each task's Exec inherits the parent's; both
// execute exactly the sequential iteration set, and a single worker never
// steals.
func TestStealingAgreesAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	for name, s := range stealSpecs(t) {
		want := pairSet(runPairs(t, s, Original(), nil))
		for _, fm := range []FlagMode{FlagSets, FlagCounter} {
			for _, depth := range []int{1, 3, DefaultSpawnDepth, 30} {
				onePairs, one := runWithPairs(t, s, fm, RunConfig{Variant: Twisted(), Workers: 1, SpawnDepth: depth})
				fourPairs, four := runWithPairs(t, s, fm, RunConfig{Variant: Twisted(), Workers: 4, SpawnDepth: depth})
				if !reflect.DeepEqual(pairSet(onePairs), want) || !reflect.DeepEqual(pairSet(fourPairs), want) {
					t.Fatalf("%s/%v depth=%d: parallel iteration set differs from sequential", name, fm, depth)
				}
				if one.Stats != four.Stats || one.Tasks != four.Tasks {
					t.Fatalf("%s/%v depth=%d: worker counts disagree:\n   w=1 %v (%d tasks)\n   w=4 %v (%d tasks)",
						name, fm, depth, one.Stats, one.Tasks, four.Stats, four.Tasks)
				}
				if one.Steals != 0 {
					t.Fatalf("%s/%v depth=%d: single worker reported %d steals", name, fm, depth, one.Steals)
				}
			}
		}
	}
}

// Every column is owned by exactly one task, so per-column iteration order
// is the sequential one regardless of stealing.
func TestStealingPreservesColumnOrder(t *testing.T) {
	t.Parallel()
	outer, inner := tree.NewBalanced(255), tree.NewBalanced(255)
	s := irregularSpec(outer, inner, 9, true, 0.6)
	ref := runPairs(t, s, Original(), nil)
	refCols := map[tree.NodeID][]tree.NodeID{}
	for _, p := range ref {
		refCols[p.o] = append(refCols[p.o], p.i)
	}
	var mu sync.Mutex
	gotCols := map[tree.NodeID][]tree.NodeID{}
	s.Work = func(o, i tree.NodeID) {
		mu.Lock()
		gotCols[o] = append(gotCols[o], i)
		mu.Unlock()
	}
	if _, err := MustNew(s).RunWith(RunConfig{Variant: Twisted(), Workers: 4, SpawnDepth: 3}); err != nil {
		t.Fatal(err)
	}
	for o, want := range refCols {
		if !reflect.DeepEqual(gotCols[o], want) {
			t.Fatalf("column %d order differs under stealing", o)
		}
	}
}

// ForTask derives each task's Spec from its root; WrapWork tags the worker.
// Together they must cover every executed unit exactly once.
func TestRunWithForTaskAndWrapWork(t *testing.T) {
	t.Parallel()
	outer, inner := tree.NewBalanced(127), tree.NewBalanced(127)
	s := regularSpec(outer, inner)
	s.Work = func(o, i tree.NodeID) {}
	var mu sync.Mutex
	taskRoots := map[tree.NodeID]int{}
	workerSeen := map[int]bool{}
	cfg := RunConfig{
		Variant:    Twisted(),
		Workers:    4,
		SpawnDepth: 3,
		ForTask: func(root tree.NodeID, base Spec) Spec {
			mu.Lock()
			taskRoots[root]++
			mu.Unlock()
			return base
		},
		WrapWork: func(worker int, work func(o, i tree.NodeID)) func(o, i tree.NodeID) {
			mu.Lock()
			workerSeen[worker] = true
			mu.Unlock()
			return work
		},
	}
	res, err := MustNew(s).RunWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(taskRoots)) != res.Tasks {
		t.Fatalf("ForTask saw %d distinct roots, executor reports %d tasks", len(taskRoots), res.Tasks)
	}
	for root, n := range taskRoots {
		if n != 1 {
			t.Fatalf("task root %d derived %d times", root, n)
		}
	}
	for w := range workerSeen {
		if w < 0 || w >= res.Workers {
			t.Fatalf("WrapWork saw out-of-range worker %d", w)
		}
	}
}

// A pre-canceled context aborts promptly: the run returns ctx.Err() and the
// partial Stats stay well below a full execution.
func TestRunWithCancellation(t *testing.T) {
	t.Parallel()
	outer, inner := tree.NewBalanced(1023), tree.NewBalanced(1023)
	s := regularSpec(outer, inner)
	s.Work = func(o, i tree.NodeID) {}
	e := MustNew(s)
	full, err := e.RunWith(RunConfig{Variant: Twisted(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunWith(RunConfig{Variant: Twisted(), Workers: 2, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Stats.Work >= full.Stats.Work {
		t.Fatal("canceled run did all the work")
	}
}

// Sequential RunContext honors cancellation too, returning partial Stats.
func TestRunContextCancellation(t *testing.T) {
	t.Parallel()
	outer, inner := tree.NewBalanced(1023), tree.NewBalanced(1023)
	s := regularSpec(outer, inner)
	var full int64
	s.Work = func(o, i tree.NodeID) { full++ }
	e := MustNew(s)
	if err := e.RunContext(context.Background(), Twisted()); err != nil {
		t.Fatal(err)
	}
	want := e.Stats.Work
	ctx, cancel := context.WithCancel(context.Background())
	var calls int64
	s.Work = func(o, i tree.NodeID) {
		if calls++; calls == 100 {
			cancel()
		}
	}
	e2 := MustNew(s)
	if err := e2.RunContext(ctx, Twisted()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e2.Stats.Work == 0 || e2.Stats.Work >= want {
		t.Fatalf("partial work %d not in (0, %d)", e2.Stats.Work, want)
	}
	// And a nil-ctx RunContext is exactly Run.
	s3 := regularSpec(outer, inner)
	s3.Work = func(o, i tree.NodeID) {}
	if err := MustNew(s3).RunContext(nil, Twisted()); err != nil {
		t.Fatal(err)
	}
}

func TestDeque(t *testing.T) {
	t.Parallel()
	d := &deque{}
	if _, ok := d.pop(); ok {
		t.Fatal("pop from empty deque")
	}
	for k := 0; k < dequeCap; k++ {
		if !d.push(task{root: tree.NodeID(k)}) {
			t.Fatalf("push %d failed below capacity", k)
		}
	}
	if d.push(task{}) {
		t.Fatal("push beyond capacity succeeded")
	}
	if got, ok := d.pop(); !ok || got.root != dequeCap-1 {
		t.Fatalf("pop = %v, want LIFO tail", got)
	}
	stolen := d.stealHalf(nil)
	if len(stolen) != dequeCap/2 {
		t.Fatalf("stole %d, want %d", len(stolen), dequeCap/2)
	}
	if stolen[0].root != 0 || stolen[1].root != 1 {
		t.Fatal("steal not FIFO from the head")
	}
	// Remaining: tasks dequeCap/2 .. dequeCap-2 (255 popped, 0..127 stolen).
	if got, ok := d.pop(); !ok || got.root != dequeCap-2 {
		t.Fatalf("pop after steal = %v", got)
	}
	n := 1 // already popped one
	for {
		if _, ok := d.pop(); !ok {
			break
		}
		n++
	}
	if n != dequeCap-1-dequeCap/2 {
		t.Fatalf("drained %d tasks, want %d", n, dequeCap-1-dequeCap/2)
	}
}

func BenchmarkRunWithStealing(b *testing.B) {
	s := benchSpec(1 << 11)
	for _, workers := range []int{1, 4} {
		b.Run("w"+itoa(workers), func(b *testing.B) {
			e := MustNew(s)
			for k := 0; k < b.N; k++ {
				if _, err := e.RunWith(RunConfig{Variant: Twisted(), Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
