package nest

import (
	"math/rand"
	"reflect"
	"testing"

	"twist/internal/tree"
)

// pair is one iteration (o, i) of the space.
type pair struct{ o, i tree.NodeID }

// runPairs executes variant v of spec s and returns the work order.
func runPairs(t *testing.T, s Spec, v Variant, tweak func(*Exec)) []pair {
	t.Helper()
	var got []pair
	s.Work = func(o, i tree.NodeID) { got = append(got, pair{o, i}) }
	e := MustNew(s)
	if tweak != nil {
		tweak(e)
	}
	e.Run(v)
	return got
}

// regularSpec is the tree-join setup of Fig 1(a): no irregular truncation.
func regularSpec(outer, inner *tree.Topology) Spec {
	return Spec{Outer: outer, Inner: inner}
}

// crossProduct returns column-major (o, i) pairs, the schedule of Fig 1(c).
func crossProduct(outer, inner *tree.Topology) []pair {
	var out []pair
	for _, o := range outer.Preorder(nil) {
		for _, i := range inner.Preorder(nil) {
			out = append(out, pair{o, i})
		}
	}
	return out
}

func TestOriginalIsColumnMajorPreorder(t *testing.T) {
	outer, inner := tree.NewPerfect(2), tree.NewPerfect(2)
	got := runPairs(t, regularSpec(outer, inner), Original(), nil)
	want := crossProduct(outer, inner)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("original schedule:\n got %v\nwant %v", got, want)
	}
}

func TestInterchangedIsRowMajorPreorder(t *testing.T) {
	outer, inner := tree.NewPerfect(2), tree.NewBalanced(5)
	got := runPairs(t, regularSpec(outer, inner), Interchanged(), nil)
	var want []pair
	for _, i := range inner.Preorder(nil) {
		for _, o := range outer.Preorder(nil) {
			want = append(want, pair{o, i})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interchanged schedule:\n got %v\nwant %v", got, want)
	}
}

// reuseDistances returns, for each access to addr in trace, the number of
// distinct other addresses touched since the previous access to addr
// (-1 encodes the paper's ∞ for the first access). This mirrors the analysis
// of paper §3.2 exactly.
func reuseDistances(trace []string, addr string) []int {
	var out []int
	last := -1
	for k, a := range trace {
		if a != addr {
			continue
		}
		if last < 0 {
			out = append(out, -1)
		} else {
			distinct := map[string]bool{}
			for _, b := range trace[last+1 : k] {
				distinct[b] = true
			}
			out = append(out, len(distinct))
		}
		last = k
	}
	return out
}

// traceOf runs variant v of a tree join over the two paper trees and returns
// the access trace. Following §3.2, work(o, i) "accesses exactly node o and
// node i"; the figures' reuse-distance examples imply the inner node is
// touched first (verified against both the Fig 1(c) and Fig 4(b) sequences).
func traceOf(t *testing.T, outer, inner *tree.Topology, v Variant) []string {
	t.Helper()
	var trace []string
	s := Spec{Outer: outer, Inner: inner, Work: func(o, i tree.NodeID) {
		trace = append(trace, "I"+string(rune('1'+i)))
		trace = append(trace, "O"+string(rune('A'+o)))
	}}
	e := MustNew(s)
	e.Run(v)
	return trace
}

// The paper's running example: inner-tree node 5 (preorder id 4) is accessed
// once per outer node. §3.2: "In the original schedule, the reuse distances
// for node 5 ... are, in order of execution, [∞, 8, 8, 8, 8, 8, 8]. In the
// twisted schedule, the reuse distances are [∞, 10, 3, 3, 10, 3, 3]."
func TestPaperNode5ReuseDistances(t *testing.T) {
	outer, inner := tree.NewPerfect(2), tree.NewPerfect(2)
	node5 := "I5" // paper label 5 == preorder index 4 == rune '1'+4

	orig := reuseDistances(traceOf(t, outer, inner, Original()), node5)
	if want := []int{-1, 8, 8, 8, 8, 8, 8}; !reflect.DeepEqual(orig, want) {
		t.Fatalf("original node-5 reuse distances = %v, want %v", orig, want)
	}

	tw := reuseDistances(traceOf(t, outer, inner, Twisted()), node5)
	if want := []int{-1, 10, 3, 3, 10, 3, 3}; !reflect.DeepEqual(tw, want) {
		t.Fatalf("twisted node-5 reuse distances = %v, want %v", tw, want)
	}
}

// sortPairs returns a canonical ordering for set comparison.
func pairSet(ps []pair) map[pair]int {
	m := make(map[pair]int, len(ps))
	for _, p := range ps {
		m[p]++
	}
	return m
}

// Soundness property 1 (DESIGN.md §4.3): on regular spaces, every schedule
// executes exactly the same multiset of iterations.
func TestAllSchedulesArePermutationsRegular(t *testing.T) {
	shapes := []struct {
		name         string
		outer, inner *tree.Topology
	}{
		{"perfect/perfect", tree.NewPerfect(3), tree.NewPerfect(3)},
		{"balanced/bst", tree.NewBalanced(33), tree.NewRandomBST(21, 3)},
		{"chain/chain", tree.NewChain(12), tree.NewChain(9)},
		{"bst/chain", tree.NewRandomBST(17, 9), tree.NewChain(5)},
		{"single/perfect", tree.NewBalanced(1), tree.NewPerfect(2)},
	}
	for _, sh := range shapes {
		want := pairSet(crossProduct(sh.outer, sh.inner))
		for _, v := range []Variant{Original(), Interchanged(), Twisted(), TwistedCutoff(4)} {
			got := pairSet(runPairs(t, regularSpec(sh.outer, sh.inner), v, nil))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: iteration multiset differs from cross product", sh.name, v)
			}
			for p, c := range got {
				if c != 1 {
					t.Fatalf("%s/%v: pair %v executed %d times", sh.name, v, p, c)
				}
			}
		}
	}
}

// Soundness property 2 (§3.3): within any fixed outer-tree node ("column"),
// the relative order of iterations is preserved by every schedule — this is
// what makes interchange (and hence twisting) sound for programs whose
// dependences are carried only over the inner recursion.
func TestColumnOrderPreserved(t *testing.T) {
	outer, inner := tree.NewRandomBST(25, 1), tree.NewRandomBST(31, 2)
	column := func(ps []pair, o tree.NodeID) []tree.NodeID {
		var is []tree.NodeID
		for _, p := range ps {
			if p.o == o {
				is = append(is, p.i)
			}
		}
		return is
	}
	ref := runPairs(t, regularSpec(outer, inner), Original(), nil)
	for _, v := range []Variant{Interchanged(), Twisted(), TwistedCutoff(8)} {
		got := runPairs(t, regularSpec(outer, inner), v, nil)
		for o := tree.NodeID(0); int(o) < outer.Len(); o++ {
			if !reflect.DeepEqual(column(got, o), column(ref, o)) {
				t.Fatalf("%v: column %d order differs from original", v, o)
			}
		}
	}
}

// Symmetric property for the transposed dependences: within any fixed inner
// node ("row"), interchange enumerates outer nodes in preorder.
func TestRowOrderUnderInterchangeIsPreorder(t *testing.T) {
	outer, inner := tree.NewRandomBST(15, 4), tree.NewBalanced(9)
	got := runPairs(t, regularSpec(outer, inner), Interchanged(), nil)
	pre := outer.Preorder(nil)
	for i := tree.NodeID(0); int(i) < inner.Len(); i++ {
		var os []tree.NodeID
		for _, p := range got {
			if p.i == i {
				os = append(os, p.o)
			}
		}
		if !reflect.DeepEqual(os, pre) {
			t.Fatalf("row %d under interchange = %v, want preorder %v", i, os, pre)
		}
	}
}

// TwistedCutoff with a cutoff at least the inner tree size never twists and
// must match the original schedule exactly; cutoff 0 must match parameterless
// twisting exactly (§7.1).
func TestCutoffLimits(t *testing.T) {
	outer, inner := tree.NewRandomBST(40, 5), tree.NewRandomBST(40, 6)
	orig := runPairs(t, regularSpec(outer, inner), Original(), nil)
	atCut := runPairs(t, regularSpec(outer, inner), TwistedCutoff(inner.Len()), nil)
	if !reflect.DeepEqual(orig, atCut) {
		t.Fatal("cutoff >= |inner| does not reproduce the original schedule")
	}
	tw := runPairs(t, regularSpec(outer, inner), Twisted(), nil)
	zero := runPairs(t, regularSpec(outer, inner), TwistedCutoff(0), nil)
	if !reflect.DeepEqual(tw, zero) {
		t.Fatal("cutoff 0 does not reproduce parameterless twisting")
	}
}

// Monotonicity of the cutoff: smaller cutoffs twist at least as often.
func TestCutoffMonotoneTwists(t *testing.T) {
	outer, inner := tree.NewBalanced(127), tree.NewBalanced(127)
	s := regularSpec(outer, inner)
	s.Work = func(o, i tree.NodeID) {}
	e := MustNew(s)
	prev := int64(-1)
	for _, c := range []int{127, 63, 31, 15, 7, 3, 1, 0} {
		e.Run(TwistedCutoff(c))
		if prev >= 0 && e.Stats.Twists < prev {
			t.Fatalf("cutoff %d twisted %d times, fewer than larger cutoff (%d)", c, e.Stats.Twists, prev)
		}
		prev = e.Stats.Twists
	}
}

// --- irregular truncation -------------------------------------------------

// irregularSpec builds a deterministic, schedule-independent TruncInner2 from
// a seed. With hereditary=true the predicate is fully hereditary: level is
// nondecreasing down the outer tree and thresh is nonincreasing down the
// inner tree, so level(o) > thresh(i) is monotone in both directions — the
// dual-tree Score property of §4.2.
func irregularSpec(outer, inner *tree.Topology, seed int64, hereditary bool, density float64) Spec {
	rng := rand.New(rand.NewSource(seed))
	level := make([]float64, outer.Len())
	for o := tree.NodeID(0); int(o) < outer.Len(); o++ {
		level[o] = rng.Float64()
	}
	thresh := make([]float64, inner.Len())
	for i := range thresh {
		thresh[i] = 1 - density*rng.Float64()
	}
	if hereditary {
		for _, o := range outer.Preorder(nil) {
			if p := outer.Parent(o); p != tree.Nil && level[o] < level[p] {
				level[o] = level[p]
			}
		}
		for _, i := range inner.Preorder(nil) {
			if p := inner.Parent(i); p != tree.Nil && thresh[i] > thresh[p] {
				thresh[i] = thresh[p]
			}
		}
	}
	return Spec{
		Outer:      outer,
		Inner:      inner,
		Hereditary: hereditary,
		TruncInner2: func(o, i tree.NodeID) bool {
			return level[o] > thresh[i]
		},
	}
}

// expectedIrregular computes the executed iteration set directly from the
// template's semantics: (o, i) runs iff no node on the inner root-to-i path
// truncates column o.
func expectedIrregular(s Spec) []pair {
	var out []pair
	var down func(o, i tree.NodeID)
	for _, o := range s.Outer.Preorder(nil) {
		down = func(o, i tree.NodeID) {
			if i == tree.Nil || s.TruncInner2(o, i) {
				return
			}
			out = append(out, pair{o, i})
			down(o, s.Inner.Left(i))
			down(o, s.Inner.Right(i))
		}
		down(o, s.Inner.Root())
	}
	return out
}

func TestIrregularOriginalMatchesSemantics(t *testing.T) {
	outer, inner := tree.NewRandomBST(20, 7), tree.NewRandomBST(24, 8)
	s := irregularSpec(outer, inner, 99, false, 0.7)
	got := runPairs(t, s, Original(), nil)
	want := expectedIrregular(s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("original irregular schedule:\n got %v\nwant %v", got, want)
	}
}

// The heart of §4: every transformed schedule must execute exactly the
// iterations the original template semantics dictate (as a set), and
// preserve order within each column — for both flag representations, with
// and without hereditary subtree truncation.
func TestIrregularAllVariantsAllFlagModes(t *testing.T) {
	cases := []struct {
		name       string
		hereditary bool
		density    float64
		seed       int64
	}{
		{"sparse", false, 0.3, 11},
		{"dense", false, 0.9, 12},
		{"hereditary-sparse", true, 0.3, 13},
		{"hereditary-dense", true, 0.9, 14},
	}
	for _, c := range cases {
		outer, inner := tree.NewRandomBST(30, c.seed), tree.NewRandomBST(26, c.seed+100)
		s := irregularSpec(outer, inner, c.seed, c.hereditary, c.density)
		want := pairSet(expectedIrregular(s))
		ref := runPairs(t, s, Original(), nil)
		column := func(ps []pair, o tree.NodeID) []tree.NodeID {
			var is []tree.NodeID
			for _, p := range ps {
				if p.o == o {
					is = append(is, p.i)
				}
			}
			return is
		}
		for _, v := range []Variant{Original(), Interchanged(), Twisted(), TwistedCutoff(5)} {
			for _, fm := range []FlagMode{FlagSets, FlagCounter} {
				for _, st := range []bool{false, true} {
					got := runPairs(t, s, v, func(e *Exec) {
						e.Flags = fm
						e.SubtreeTruncation = st
					})
					if !reflect.DeepEqual(pairSet(got), want) {
						t.Fatalf("%s/%v/%v/subtree=%v: executed set differs from template semantics",
							c.name, v, fm, st)
					}
					for o := tree.NodeID(0); int(o) < outer.Len(); o++ {
						if !reflect.DeepEqual(column(got, o), column(ref, o)) {
							t.Fatalf("%s/%v/%v/subtree=%v: column %d order differs",
								c.name, v, fm, st, o)
						}
					}
				}
			}
		}
	}
}

// §4.2's work-overhead ordering: interchange visits the full cross product,
// twisting visits only slightly more than the original, and subtree
// truncation narrows the remaining gap.
func TestIterationOverheadOrdering(t *testing.T) {
	outer, inner := tree.NewBalanced(255), tree.NewBalanced(255)
	s := irregularSpec(outer, inner, 21, true, 0.8)
	s.Work = func(o, i tree.NodeID) {}
	e := MustNew(s)

	run := func(v Variant, subtree bool) Stats {
		e.SubtreeTruncation = subtree
		e.Run(v)
		return e.Stats
	}
	orig := run(Original(), true)
	inter := run(Interchanged(), false)
	twNoSub := run(Twisted(), false)
	twSub := run(Twisted(), true)

	if orig.Iterations != orig.Work {
		t.Fatalf("original: iterations %d != work %d", orig.Iterations, orig.Work)
	}
	if inter.Work != orig.Work {
		t.Fatalf("interchange work %d != original %d", inter.Work, orig.Work)
	}
	if inter.Iterations <= orig.Iterations {
		t.Fatalf("interchange iterations %d not above original %d (no truncation possible)", inter.Iterations, orig.Iterations)
	}
	if twNoSub.Iterations >= inter.Iterations {
		t.Fatalf("twisting iterations %d not below interchange %d", twNoSub.Iterations, inter.Iterations)
	}
	if twSub.Iterations > twNoSub.Iterations {
		t.Fatalf("subtree truncation increased iterations: %d > %d", twSub.Iterations, twNoSub.Iterations)
	}
	if twSub.SubtreeCuts == 0 {
		t.Fatal("subtree truncation never fired on a dense hereditary space")
	}
}

// Flag bookkeeping invariants: counter mode never clears; set mode clears
// exactly what it sets (everything is unwound by the end of the run).
func TestFlagAccounting(t *testing.T) {
	outer, inner := tree.NewBalanced(63), tree.NewBalanced(63)
	s := irregularSpec(outer, inner, 31, false, 0.8)
	s.Work = func(o, i tree.NodeID) {}
	e := MustNew(s)

	e.Flags = FlagSets
	e.Run(Twisted())
	if e.Stats.FlagSets == 0 {
		t.Fatal("dense irregular space set no flags")
	}
	if e.Stats.FlagClears != e.Stats.FlagSets {
		t.Fatalf("FlagClears %d != FlagSets %d", e.Stats.FlagClears, e.Stats.FlagSets)
	}
	for _, f := range e.flag {
		if f {
			t.Fatal("flag left set after run")
		}
	}

	e.Flags = FlagCounter
	e.Run(Twisted())
	if e.Stats.FlagClears != 0 {
		t.Fatalf("counter mode cleared %d flags; the §4.3 point is zero clears", e.Stats.FlagClears)
	}
}

// The engine is reusable: back-to-back runs on the same Exec are independent.
func TestRunsAreIndependent(t *testing.T) {
	outer, inner := tree.NewBalanced(31), tree.NewBalanced(31)
	s := irregularSpec(outer, inner, 17, false, 0.8)
	var first []pair
	s.Work = func(o, i tree.NodeID) { first = append(first, pair{o, i}) }
	e := MustNew(s)
	e.Flags = FlagSets
	e.Run(Twisted())
	a := append([]pair(nil), first...)
	first = first[:0]
	e.Run(Twisted())
	if !reflect.DeepEqual(a, first) {
		t.Fatal("second run on same Exec differs from first")
	}
}

func TestRegularStatsIdentities(t *testing.T) {
	outer, inner := tree.NewBalanced(100), tree.NewBalanced(80)
	s := regularSpec(outer, inner)
	s.Work = func(o, i tree.NodeID) {}
	e := MustNew(s)
	for _, v := range []Variant{Original(), Interchanged(), Twisted()} {
		e.Run(v)
		if e.Stats.Work != int64(outer.Len()*inner.Len()) {
			t.Fatalf("%v: work %d != %d", v, e.Stats.Work, outer.Len()*inner.Len())
		}
		if e.Stats.Iterations != e.Stats.Work {
			t.Fatalf("%v: regular space iterations %d != work %d", v, e.Stats.Iterations, e.Stats.Work)
		}
		if e.Stats.TruncChecks != 0 || e.Stats.FlagSets != 0 {
			t.Fatalf("%v: regular space touched truncation machinery: %v", v, e.Stats)
		}
	}
	e.Run(Original())
	if e.Stats.SizeCompares != 0 || e.Stats.Twists != 0 {
		t.Fatalf("original performed twisting work: %v", e.Stats)
	}
}

func TestTwistingActuallyTwists(t *testing.T) {
	outer, inner := tree.NewBalanced(127), tree.NewBalanced(127)
	s := regularSpec(outer, inner)
	s.Work = func(o, i tree.NodeID) {}
	e := MustNew(s)
	e.Run(Twisted())
	if e.Stats.Twists == 0 {
		t.Fatal("parameterless twisting never switched orientation on equal-size trees")
	}
	tw := runPairs(t, regularSpec(outer, inner), Twisted(), nil)
	orig := runPairs(t, regularSpec(outer, inner), Original(), nil)
	if reflect.DeepEqual(tw, orig) {
		t.Fatal("twisted schedule identical to original")
	}
}

// Degenerate chain trees make the template a doubly-nested loop (§2.1); the
// original schedule must then be exactly the row-major loop nest.
func TestChainsDevolveToLoops(t *testing.T) {
	outer, inner := tree.NewChain(6), tree.NewChain(4)
	got := runPairs(t, regularSpec(outer, inner), Original(), nil)
	var want []pair
	for o := 0; o < 6; o++ {
		for i := 0; i < 4; i++ {
			want = append(want, pair{tree.NodeID(o), tree.NodeID(i)})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chain original = %v, want loop order %v", got, want)
	}
}

func TestTruncOuterAndInner1(t *testing.T) {
	outer, inner := tree.NewBalanced(15), tree.NewBalanced(15)
	s := Spec{
		Outer:       outer,
		Inner:       inner,
		TruncOuter:  func(o tree.NodeID) bool { return outer.Size(o) <= 2 },
		TruncInner1: func(i tree.NodeID) bool { return inner.Size(i) <= 1 },
	}
	want := pairSet(runPairs(t, s, Original(), nil))
	if len(want) == 0 {
		t.Fatal("truncation test space is empty; pick different predicates")
	}
	// Expected from first principles: o on a path of non-truncated outer
	// ancestors, i likewise for inner.
	okO := map[tree.NodeID]bool{}
	var markO func(o tree.NodeID)
	markO = func(o tree.NodeID) {
		if o == tree.Nil || outer.Size(o) <= 2 {
			return
		}
		okO[o] = true
		markO(outer.Left(o))
		markO(outer.Right(o))
	}
	markO(outer.Root())
	count := 0
	for p := range want {
		if !okO[p.o] || inner.Size(p.i) <= 1 {
			t.Fatalf("pair %v should have been truncated", p)
		}
		count++
	}
	for _, v := range []Variant{Interchanged(), Twisted()} {
		got := pairSet(runPairs(t, s, v, nil))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: truncated space differs from original", v)
		}
	}
}

func TestNewValidation(t *testing.T) {
	tr := tree.NewBalanced(3)
	if _, err := New(Spec{Outer: tr, Inner: tr}); err == nil {
		t.Fatal("New accepted nil Work")
	}
	if _, err := New(Spec{Inner: tr, Work: func(o, i tree.NodeID) {}}); err == nil {
		t.Fatal("New accepted nil Outer")
	}
	if _, err := New(Spec{Outer: tr, Work: func(o, i tree.NodeID) {}}); err == nil {
		t.Fatal("New accepted nil Inner")
	}
}

func TestEmptySpaces(t *testing.T) {
	empty, full := tree.NewBalanced(0), tree.NewBalanced(7)
	for _, v := range []Variant{Original(), Interchanged(), Twisted()} {
		if got := runPairs(t, regularSpec(empty, full), v, nil); len(got) != 0 {
			t.Fatalf("%v: empty outer produced %d iterations", v, len(got))
		}
		if got := runPairs(t, regularSpec(full, empty), v, nil); len(got) != 0 {
			t.Fatalf("%v: empty inner produced %d iterations", v, len(got))
		}
	}
}

func TestSelfJoinSharedTopology(t *testing.T) {
	tr := tree.NewRandomBST(50, 33)
	want := pairSet(crossProduct(tr, tr))
	for _, v := range []Variant{Original(), Interchanged(), Twisted()} {
		got := pairSet(runPairs(t, regularSpec(tr, tr), v, nil))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: self-join space differs from cross product", v)
		}
	}
}

func TestVariantStrings(t *testing.T) {
	for v, want := range map[Variant]string{
		Original():        "original",
		Interchanged():    "interchanged",
		Twisted():         "twisted",
		TwistedCutoff(16): "twisted-cutoff:16",
	} {
		if v.String() != want {
			t.Fatalf("Variant.String() = %q, want %q", v.String(), want)
		}
	}
	if FlagSets.String() != "sets" || FlagCounter.String() != "counter" {
		t.Fatal("FlagMode.String mismatch")
	}
}

func TestStatsOpsAndOverhead(t *testing.T) {
	base := Stats{InnerCalls: 100, Iterations: 100}
	more := Stats{InnerCalls: 150, Iterations: 150}
	if base.Ops() <= 0 {
		t.Fatal("Ops not positive")
	}
	if ov := more.Overhead(base); ov <= 0 {
		t.Fatalf("overhead = %v, want positive", ov)
	}
	if ov := base.Overhead(base); ov != 0 {
		t.Fatalf("self-overhead = %v", ov)
	}
	if (Stats{}).Overhead(Stats{}) != 0 {
		t.Fatal("zero-baseline overhead not 0")
	}
	if base.String() == "" {
		t.Fatal("Stats.String empty")
	}
}

// RunFrom restricts execution to a sub-space: exactly the original
// iterations whose outer node lies in the subtree and whose inner node lies
// under the given inner root.
func TestRunFromSubspace(t *testing.T) {
	outer, inner := tree.NewBalanced(15), tree.NewBalanced(15)
	s := regularSpec(outer, inner)
	var got []pair
	s.Work = func(o, i tree.NodeID) { got = append(got, pair{o, i}) }
	e := MustNew(s)
	oSub := outer.Left(outer.Root())
	iSub := inner.Right(inner.Root())
	for _, v := range []Variant{Original(), Twisted()} {
		got = nil
		e.RunFrom(v, oSub, iSub)
		want := int(outer.Size(oSub)) * int(inner.Size(iSub))
		if len(got) != want {
			t.Fatalf("%v: RunFrom executed %d iterations, want %d", v, len(got), want)
		}
		for _, p := range got {
			if !outer.Ancestors(oSub, p.o) || !inner.Ancestors(iSub, p.i) {
				t.Fatalf("%v: iteration %v outside the sub-space", v, p)
			}
		}
	}
}
