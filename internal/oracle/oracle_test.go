package oracle

import (
	"strings"
	"testing"

	"twist/internal/nest"
	"twist/internal/tree"
)

// regularSpec is a plain cross product of two balanced trees.
func regularSpec(no, ni int) nest.Spec {
	return nest.Spec{
		Outer: tree.NewBalanced(no),
		Inner: tree.NewBalanced(ni),
		Work:  func(o, i tree.NodeID) {},
	}
}

func allVariants(cutoff int) []nest.Variant {
	return []nest.Variant{
		nest.Original(),
		nest.Interchanged(),
		nest.Twisted(),
		nest.TwistedCutoff(cutoff),
	}
}

// The golden trace must be exactly the baseline execution: same sequence,
// column count, and per-column inner-preorder order.
func TestCaptureMatchesBaselineRun(t *testing.T) {
	t.Parallel()
	s := regularSpec(31, 17)
	g, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	var want []Visit
	run := s
	run.Work = func(o, i tree.NodeID) { want = append(want, Visit{o, i}) }
	nest.MustNew(run).Run(nest.Original())
	if len(g.Seq) != len(want) || len(want) != 31*17 {
		t.Fatalf("golden trace %d visits, baseline %d, want %d", len(g.Seq), len(want), 31*17)
	}
	for k := range want {
		if g.Seq[k] != want[k] {
			t.Fatalf("visit %d: golden %v, baseline %v", k, g.Seq[k], want[k])
		}
	}
	if g.Columns() != 31 {
		t.Fatalf("columns = %d, want 31", g.Columns())
	}
	if fs := FromSequence(want); fs.Digest() != g.Digest() || fs.ColumnDigest() != g.ColumnDigest() {
		t.Fatal("FromSequence digests differ from Capture digests on the same sequence")
	}
}

// Every engine schedule, flag representation, and subtree-cut setting must
// pass the oracle across a sweep of generated spaces.
func TestVariantsEquivalentOnGeneratedSpaces(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 40; seed++ {
		spec, desc := RandomSpec(seed, 48)
		g, err := Capture(spec)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		for _, v := range allVariants(int(seed % 9)) {
			for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
				for _, subtree := range []bool{false, true} {
					if vd := g.CheckVariant(spec, v, fm, subtree); !vd.OK {
						t.Fatalf("%s: %v", desc, vd)
					}
				}
			}
		}
	}
}

// The parallel executor is an oracle-checked permutation at several worker
// counts.
func TestParallelSchedulesAreCheckedPermutations(t *testing.T) {
	t.Parallel()
	spec, desc := RandomSpec(7, 96)
	g, err := Capture(spec)
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	for _, workers := range []int{1, 4, 8} {
		vd, err := g.CheckParallel(spec, nest.RunConfig{Variant: nest.Twisted(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !vd.OK {
			t.Fatalf("%s: %v", desc, vd)
		}
	}
}

// brokenRunner wraps a base runner, dropping or duplicating one target pair.
func brokenRunner(base Runner, target Visit, extra bool) Runner {
	return func(s nest.Spec, o, i tree.NodeID, visit func(o, i tree.NodeID)) {
		base(s, o, i, func(vo, vi tree.NodeID) {
			if (Visit{vo, vi}) == target {
				if !extra {
					return // dropped
				}
				visit(vo, vi) // duplicated
			}
			visit(vo, vi)
		})
	}
}

// The acceptance-criteria mutation test: a deliberately broken variant — one
// leaf pair dropped — is caught, and the counterexample is minimized all the
// way down to the 1×1 sub-space naming exactly that pair.
func TestBrokenVariantMinimizedCounterexample(t *testing.T) {
	t.Parallel()
	s := regularSpec(63, 31)
	g, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	oLeaves := s.Outer.Leaves(nil)
	iLeaves := s.Inner.Leaves(nil)
	target := Visit{oLeaves[len(oLeaves)/2], iLeaves[len(iLeaves)/3]}

	base := EngineRunner(nest.Twisted(), nest.FlagCounter, true)
	v := g.Check(s, brokenRunner(base, target, false), "dropped-pair")
	if v.OK {
		t.Fatal("dropped visit not caught")
	}
	if v.DiffPairs != 1 {
		t.Fatalf("DiffPairs = %d, want 1 (%v)", v.DiffPairs, v)
	}
	if len(v.Missing) != 1 || v.Missing[0].Visit != target || v.Missing[0].Want != 1 || v.Missing[0].Got != 0 {
		t.Fatalf("Missing = %v, want [%v got 0 want 1]", v.Missing, target)
	}
	if v.OuterRoot != target.O || v.InnerRoot != target.I {
		t.Fatalf("minimized to (o=%d, i=%d), want the 1x1 sub-space (o=%d, i=%d)",
			v.OuterRoot, v.InnerRoot, target.O, target.I)
	}
	if !strings.Contains(v.String(), "DIVERGES") {
		t.Fatalf("verdict string %q lacks DIVERGES", v)
	}
	if v.Err() == nil {
		t.Fatal("failing verdict has nil Err")
	}

	// The dual mutation — the pair visited twice — lands in Extra.
	v = g.Check(s, brokenRunner(base, target, true), "doubled-pair")
	if v.OK || len(v.Extra) != 1 || v.Extra[0].Visit != target || v.Extra[0].Got != 2 {
		t.Fatalf("doubled visit verdict = %v", v)
	}
	if v.OuterRoot != target.O || v.InnerRoot != target.I {
		t.Fatalf("doubled visit minimized to (o=%d, i=%d), want (o=%d, i=%d)",
			v.OuterRoot, v.InnerRoot, target.O, target.I)
	}
}

// Reordering visits inside one column is a dependence violation (§3.3: a
// column's intra-traversal order is fixed) even though the multiset is
// unchanged; the oracle must flag the column.
func TestColumnOrderViolationCaught(t *testing.T) {
	t.Parallel()
	s := regularSpec(15, 15)
	g, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Outer.Root()
	base := EngineRunner(nest.Original(), nest.FlagCounter, true)
	reversed := func(spec nest.Spec, o, i tree.NodeID, visit func(o, i tree.NodeID)) {
		var buf []Visit
		base(spec, o, i, func(vo, vi tree.NodeID) { buf = append(buf, Visit{vo, vi}) })
		var col []Visit
		for _, v := range buf {
			if v.O == victim {
				col = append(col, v)
			}
		}
		k := len(col)
		for _, v := range buf {
			if v.O == victim {
				k--
				v = col[k]
			}
			visit(v.O, v.I)
		}
	}
	v := g.Check(s, reversed, "reversed-column")
	if v.OK {
		t.Fatal("intra-column reordering not caught")
	}
	if v.DiffPairs != 0 {
		t.Fatalf("multiset should match, got %d differing pairs", v.DiffPairs)
	}
	if v.OrderColumn != victim {
		t.Fatalf("OrderColumn = %d, want %d (%v)", v.OrderColumn, victim, v)
	}
}

// A truncation predicate that changes across runs (adaptive state the caller
// failed to freeze) must be rejected at capture time, not silently baked
// into a wrong golden trace.
func TestStatefulPredicateRejected(t *testing.T) {
	t.Parallel()
	s := regularSpec(31, 31)
	calls := 0
	s.TruncInner2 = func(o, i tree.NodeID) bool {
		calls++
		return calls > 400 // fires at different pairs on the second run
	}
	if _, err := Capture(s); err == nil {
		t.Fatal("stateful predicate not rejected")
	} else if !strings.Contains(err.Error(), "stateful") {
		t.Fatalf("error %q does not name statefulness", err)
	}
}

// Digest is order-independent (any permutation hashes the same) while
// ColumnDigest pins within-column order.
func TestDigestSensitivity(t *testing.T) {
	t.Parallel()
	s := regularSpec(7, 7)
	g, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]Visit, len(g.Seq))
	for k, v := range g.Seq {
		rev[len(rev)-1-k] = v
	}
	fr := FromSequence(rev)
	if fr.Digest() != g.Digest() {
		t.Fatal("Digest is order-sensitive; permutations must hash equal")
	}
	if fr.ColumnDigest() == g.ColumnDigest() {
		t.Fatal("ColumnDigest missed a within-column reversal")
	}
	if g.TruncDigest() != fr.TruncDigest() {
		t.Fatal("TruncDigest of two empty truncation sets differs")
	}
}

// Generated shapes must all be valid topologies of the requested size class.
func TestShapesValid(t *testing.T) {
	t.Parallel()
	for sh := Shape(0); sh < numShapes; sh++ {
		for _, n := range []int{1, 2, 17, 64} {
			topo := sh.Topology(n, 5)
			if err := topo.Validate(); err != nil {
				t.Fatalf("%v/%d: %v", sh, n, err)
			}
			if topo.Len() < 1 {
				t.Fatalf("%v/%d: empty topology", sh, n)
			}
		}
	}
}
