package twist_test

import (
	"testing"

	"twist"
)

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
	res, err := twist.Run(exec, twist.WithVariant(twist.Twisted()))
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
	ref, err := twist.Record(s, twist.Original())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []twist.Variant{twist.Interchanged(), twist.Twisted(), twist.TwistedCutoff(8)} {
		got, err := twist.Record(s, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := twist.CheckSchedule(ref, got); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestFacadeGrid(t *testing.T) {
	s := twist.Spec{
		Outer: twist.NewPerfectTree(2),
		Inner: twist.NewPerfectTree(2),
		Work:  func(o, i twist.NodeID) {},
	}
	pairs, err := twist.Record(s, twist.Twisted())
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
	pairs, err := twist.Record(s, twist.Original())
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
		twist.MustNew(s).Run(twist.Twisted())
		if visits != 100*64 {
			t.Fatalf("%v: repacked run visited %d pairs, want %d", k, visits, 100*64)
		}
	}
	if _, err := twist.RealizeLayout(twist.ScheduleLayout, outer); err == nil {
		t.Fatal("RealizeLayout accepted the traversal-dependent schedule layout")
	}
}
