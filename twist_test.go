package twist_test

import (
	"math/rand"
	"strings"
	"testing"

	"twist"
	"twist/internal/nest"
)

// paperSchedules are the paper's four canonical schedules.
var paperSchedules = []string{"original", "interchanged", "twisted", "twisted-cutoff:8"}

// The README quick-start, as a compiling test: twisting reorders iterations
// without changing the set of work performed.
func TestQuickStart(t *testing.T) {
	outer := twist.NewBalancedTree(1 << 6)
	inner := twist.NewBalancedTree(1 << 6)
	var visits int
	spec := twist.Spec{
		Outer: outer,
		Inner: inner,
		Work:  func(o, i twist.NodeID) { visits++ },
	}
	exec := twist.MustNew(spec)
	res, err := twist.Run(exec, twist.WithSchedule(twist.MustParseSchedule("twisted")))
	if err != nil {
		t.Fatal(err)
	}
	if visits != (1<<6)*(1<<6) {
		t.Fatalf("twisted run visited %d pairs, want %d", visits, (1<<6)*(1<<6))
	}
	if res.Stats.Twists == 0 {
		t.Fatal("twisting never switched orientation")
	}
}

func TestFacadeScheduleChecking(t *testing.T) {
	s := twist.Spec{
		Outer: twist.NewRandomBST(40, 1),
		Inner: twist.NewRandomBST(50, 2),
		Work:  func(o, i twist.NodeID) {},
	}
	ref, err := twist.Record(s, twist.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range paperSchedules {
		got, err := twist.Record(s, twist.MustParseSchedule(expr))
		if err != nil {
			t.Fatal(err)
		}
		if err := twist.CheckSchedule(ref, got); err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if err := twist.CheckShardedSchedule(ref, [][]twist.Pair{got}); err != nil {
			t.Fatalf("%s as one shard: %v", expr, err)
		}
	}
}

// The §3.3 checks reject each way a recording can differ from a legal
// reordering, with the oracle's verdict as the error. A recording cannot be
// re-run, so no verdict names a minimized sub-space.
func TestCheckScheduleDetectsViolations(t *testing.T) {
	s := twist.Spec{Outer: twist.NewPerfectTree(2), Inner: twist.NewPerfectTree(2)}
	ref, err := twist.Record(s, twist.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := twist.Record(s, twisted)
	if err != nil {
		t.Fatal(err)
	}
	// ref's first column is outer node 0 visiting inner nodes 0..6.
	reordered := append([]twist.Pair(nil), ref...)
	reordered[1], reordered[2] = reordered[2], reordered[1]
	for name, got := range map[string][]twist.Pair{
		"dropped pair":     tw[:len(tw)-1],
		"extra pair":       append(append([]twist.Pair(nil), tw...), tw[0]),
		"reordered column": reordered,
	} {
		err := twist.CheckSchedule(ref, got)
		if err == nil || !strings.HasPrefix(err.Error(), "oracle: schedule: DIVERGES") || strings.Contains(err.Error(), "sub-space") {
			t.Errorf("CheckSchedule, %s: %v", name, err)
		}
		err = twist.CheckShardedSchedule(ref, [][]twist.Pair{got})
		if err == nil || !strings.HasPrefix(err.Error(), "oracle: sharded schedule: DIVERGES") {
			t.Errorf("CheckShardedSchedule, %s: %v", name, err)
		}
	}
}

// Sharded traces must cover the reference exactly once, with every column
// whole and in order inside one shard.
func TestCheckShardedScheduleDetectsViolations(t *testing.T) {
	ref := []twist.Pair{{O: 0, I: 0}, {O: 0, I: 1}, {O: 1, I: 0}}
	ok := [][]twist.Pair{{{O: 0, I: 0}, {O: 0, I: 1}}, {{O: 1, I: 0}}}
	if err := twist.CheckShardedSchedule(ref, ok); err != nil {
		t.Fatalf("valid sharding rejected: %v", err)
	}
	for name, shards := range map[string][][]twist.Pair{
		"split column":     {{{O: 0, I: 0}}, {{O: 0, I: 1}, {O: 1, I: 0}}},
		"reordered column": {{{O: 0, I: 1}, {O: 0, I: 0}}, {{O: 1, I: 0}}},
		"dropped pair":     {{{O: 0, I: 0}, {O: 0, I: 1}}},
		"extra pair":       {{{O: 0, I: 0}, {O: 0, I: 1}}, {{O: 1, I: 0}, {O: 1, I: 1}}},
	} {
		if err := twist.CheckShardedSchedule(ref, shards); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// The parallel executor's per-worker traces must jointly be the reference
// schedule, with every column whole and in order inside one worker — on
// regular and irregular (outer-dependent truncation) spaces, for all four
// paper schedules. Run with -race in CI.
func TestCheckShardedParallelTraces(t *testing.T) {
	t.Parallel()
	outer, inner := twist.NewRandomBST(300, 1), twist.NewRandomBST(280, 2)
	// Hereditary truncation (monotone down both trees), so the executed
	// iteration set is schedule-independent per the template's semantics.
	rng := rand.New(rand.NewSource(7))
	level := make([]float64, outer.Len())
	for o := range level {
		level[o] = rng.Float64()
	}
	thresh := make([]float64, inner.Len())
	for i := range thresh {
		thresh[i] = 1 - 0.6*rng.Float64()
	}
	for _, o := range outer.Preorder(nil) {
		if p := outer.Parent(o); p != twist.Nil && level[o] < level[p] {
			level[o] = level[p]
		}
	}
	for _, i := range inner.Preorder(nil) {
		if p := inner.Parent(i); p != twist.Nil && thresh[i] > thresh[p] {
			thresh[i] = thresh[p]
		}
	}
	specs := map[string]twist.Spec{
		"regular": {Outer: outer, Inner: inner},
		"irregular": {
			Outer:       outer,
			Inner:       inner,
			Hereditary:  true,
			TruncInner2: func(o, i twist.NodeID) bool { return level[o] > thresh[i] },
		},
	}
	for name, s := range specs {
		for _, expr := range paperSchedules {
			sch := twist.MustParseSchedule(expr)
			s := s
			s.Work = func(o, i twist.NodeID) {}
			ref, err := twist.Record(s, sch)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				shards := make([][]twist.Pair, workers)
				if _, err := twist.MustNew(s).RunWith(nest.RunConfig{
					Variant: sch.Variant(),
					Workers: workers,
					WrapWork: func(w int, work func(o, i twist.NodeID)) func(o, i twist.NodeID) {
						return func(o, i twist.NodeID) {
							shards[w] = append(shards[w], twist.Pair{O: o, I: i})
							work(o, i)
						}
					},
				}); err != nil {
					t.Fatal(err)
				}
				if err := twist.CheckShardedSchedule(ref, shards); err != nil {
					t.Fatalf("%s %s workers=%d: %v", name, expr, workers, err)
				}
				// A single worker's trace is a full permutation; the
				// sequential check must accept it too.
				if workers == 1 {
					if err := twist.CheckSchedule(ref, shards[0]); err != nil {
						t.Fatalf("%s %s single-worker trace: %v", name, expr, err)
					}
				}
			}
		}
	}
}

func TestFacadeGrid(t *testing.T) {
	s := twist.Spec{
		Outer: twist.NewPerfectTree(2),
		Inner: twist.NewPerfectTree(2),
		Work:  func(o, i twist.NodeID) {},
	}
	pairs, err := twist.Record(s, twisted)
	if err != nil {
		t.Fatal(err)
	}
	if g := twist.RenderGrid(s.Outer, s.Inner, pairs); len(g) == 0 {
		t.Fatal("empty grid")
	}
}

func TestFacadeChain(t *testing.T) {
	// Chains devolve the template to a plain doubly-nested loop.
	s := twist.Spec{
		Outer: twist.NewChainTree(5),
		Inner: twist.NewChainTree(5),
		Work:  func(o, i twist.NodeID) {},
	}
	pairs, err := twist.Record(s, twist.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 25 {
		t.Fatalf("%d pairs", len(pairs))
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := twist.NewTreeBuilder(3)
	root := b.Add()
	l, r := b.Add(), b.Add()
	b.SetLeft(root, l)
	b.SetRight(root, r)
	topo, err := b.Build(root)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Len() != 3 || topo.Size(root) != 3 {
		t.Fatal("builder topology malformed")
	}
}

func TestFacadeDependenceAnalysis(t *testing.T) {
	s := twist.Spec{
		Outer: twist.NewBalancedTree(7),
		Inner: twist.NewBalancedTree(7),
		Work:  func(o, i twist.NodeID) {},
	}
	res, err := twist.AnalyzeDependences(s, func(o, i twist.NodeID) ([]twist.Loc, []twist.Loc) {
		return []twist.Loc{twist.Loc(o)}, nil
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != twist.Independent || !res.Sound() {
		t.Fatalf("read-only footprint classified %v", res.Kind)
	}
	res, err = twist.AnalyzeDependences(s, func(o, i twist.NodeID) ([]twist.Loc, []twist.Loc) {
		return nil, []twist.Loc{1}
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != twist.CrossColumn || res.Sound() {
		t.Fatalf("shared write classified %v", res.Kind)
	}
}

// TestFacadeLayout exercises the arena-layout exports: every
// topology-determined layout yields a valid permutation, the repacked tree
// runs every schedule to the same visit count, and the parse/String forms
// round-trip.
func TestFacadeLayout(t *testing.T) {
	outer := twist.NewRandomBST(100, 7)
	for _, k := range []twist.LayoutKind{
		twist.BuildOrderLayout, twist.HotColdLayout,
		twist.PreorderLayout, twist.VEBLayout,
	} {
		parsed, err := twist.ParseLayout(k.String())
		if err != nil || parsed != k {
			t.Fatalf("ParseLayout(%q) = %v, %v", k.String(), parsed, err)
		}
		r, err := twist.RealizeLayout(k, outer)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		packed, err := twist.ApplyLayout(outer, r)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var visits int
		s := twist.Spec{
			Outer: packed,
			Inner: twist.NewBalancedTree(64),
			Work:  func(o, i twist.NodeID) { visits++ },
		}
		if _, err := twist.Run(twist.MustNew(s), twist.WithSchedule(twisted)); err != nil {
			t.Fatal(err)
		}
		if visits != 100*64 {
			t.Fatalf("%v: repacked run visited %d pairs, want %d", k, visits, 100*64)
		}
	}
	if _, err := twist.RealizeLayout(twist.ScheduleLayout, outer); err == nil {
		t.Fatal("RealizeLayout accepted the traversal-dependent schedule layout")
	}
}
