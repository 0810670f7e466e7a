package sched

import (
	"math/rand"
	"strings"
	"testing"

	"twist/internal/nest"
	"twist/internal/tree"
)

func paperSpec() nest.Spec {
	return nest.Spec{Outer: tree.NewPerfect(2), Inner: tree.NewPerfect(2)}
}

func TestRecordOriginalOrder(t *testing.T) {
	t.Parallel()
	s := paperSpec()
	pairs, err := Record(s, nest.Original())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 49 {
		t.Fatalf("%d pairs, want 49", len(pairs))
	}
	// First column: (A,1)..(A,7).
	for k := 0; k < 7; k++ {
		if pairs[k].O != 0 || pairs[k].I != tree.NodeID(k) {
			t.Fatalf("pair %d = %+v", k, pairs[k])
		}
	}
}

// The first 28 iterations of the twisted schedule, hand-derived from
// Fig 4(a) on the paper's example trees (and consistent with the Fig 4(b)
// reuse distances pinned in internal/nest's tests).
func TestRecordTwistedPrefix(t *testing.T) {
	t.Parallel()
	s := paperSpec()
	pairs, err := Record(s, nest.Twisted())
	if err != nil {
		t.Fatal(err)
	}
	outer, inner := s.Outer, s.Inner
	var got []string
	for _, p := range pairs[:28] {
		got = append(got, "("+OuterLabel(outer, p.O)+","+InnerLabel(inner, p.I)+")")
	}
	want := strings.Fields(
		"(A,1) (A,2) (A,3) (A,4) (A,5) (A,6) (A,7) " +
			"(B,1) (C,1) (D,1) " +
			"(B,2) (B,3) (B,4) (C,2) (C,3) (C,4) (D,2) (D,3) (D,4) " +
			"(B,5) (B,6) (B,7) (C,5) (C,6) (C,7) (D,5) (D,6) (D,7)")
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("twisted iteration %d = %s, want %s\nfull: %v", k, got[k], want[k], got)
		}
	}
}

func TestLabels(t *testing.T) {
	t.Parallel()
	tr := tree.NewBalanced(30)
	if OuterLabel(tr, tr.ByPreorder(0)) != "A" {
		t.Fatal("first outer label not A")
	}
	if OuterLabel(tr, tr.ByPreorder(26)) != "A1" {
		t.Fatalf("label 26 = %s", OuterLabel(tr, tr.ByPreorder(26)))
	}
	if InnerLabel(tr, tr.ByPreorder(0)) != "1" {
		t.Fatal("first inner label not 1")
	}
}

func TestGridContainsAllPositions(t *testing.T) {
	t.Parallel()
	s := paperSpec()
	pairs, _ := Record(s, nest.Twisted())
	g := Grid(s.Outer, s.Inner, pairs)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 8 { // header + 7 rows
		t.Fatalf("grid has %d lines:\n%s", len(lines), g)
	}
	for _, n := range []string{" 1", "49", " A", " G"} {
		if !strings.Contains(g, n) {
			t.Fatalf("grid missing %q:\n%s", n, g)
		}
	}
}

func TestGridMarksSkippedIterations(t *testing.T) {
	t.Parallel()
	s := paperSpec()
	// Fig 6(a)'s irregular space: skip (B, 2) and descendants.
	s.TruncInner2 = func(o, i tree.NodeID) bool { return o == 1 && i == 1 }
	pairs, err := Record(s, nest.Original())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 49-3 {
		t.Fatalf("%d pairs, want 46 (B column loses nodes 2,3,4)", len(pairs))
	}
	g := Grid(s.Outer, s.Inner, pairs)
	if !strings.Contains(g, ".") {
		t.Fatalf("grid does not mark skipped iterations:\n%s", g)
	}
}

func TestOrderRendering(t *testing.T) {
	t.Parallel()
	s := paperSpec()
	pairs, _ := Record(s, nest.Original())
	o := Order(s.Outer, s.Inner, pairs, 7)
	if !strings.HasPrefix(o, "(A,1) (A,2)") {
		t.Fatalf("order rendering starts %q", o[:20])
	}
	if lines := strings.Count(o, "\n"); lines != 7 {
		t.Fatalf("order rendering has %d lines, want 7", lines)
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	t.Parallel()
	s := paperSpec()
	ref, _ := Record(s, nest.Original())
	tw, _ := Record(s, nest.Twisted())
	if err := Check(ref, tw); err != nil {
		t.Fatalf("twisted schedule flagged unsound: %v", err)
	}
	// Missing iteration.
	if err := Check(ref, tw[:len(tw)-1]); err == nil {
		t.Fatal("missing iteration not detected")
	}
	// Column reorder: swap two iterations of column A.
	bad := append([]Pair(nil), ref...)
	bad[1], bad[2] = bad[2], bad[1]
	if err := Check(ref, bad); err == nil {
		t.Fatal("column reorder not detected")
	}
	// Row-major is a valid permutation with intact column order.
	inter, _ := Record(s, nest.Interchanged())
	if err := Check(ref, inter); err != nil {
		t.Fatalf("interchange flagged unsound: %v", err)
	}
}

func TestRecordPreservesUserWork(t *testing.T) {
	t.Parallel()
	s := paperSpec()
	var n int
	s.Work = func(o, i tree.NodeID) { n++ }
	pairs, err := Record(s, nest.Twisted())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pairs) {
		t.Fatalf("user work ran %d times for %d pairs", n, len(pairs))
	}
}

func TestRecordPropagatesSpecError(t *testing.T) {
	t.Parallel()
	if _, err := Record(nest.Spec{}, nest.Original()); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// The parallel executor's per-worker traces must jointly be the reference
// schedule, with every column whole and in order inside one worker — on
// regular and irregular (outer-dependent truncation) spaces, for all four
// variants. Run with -race in CI.
func TestCheckShardedParallelTraces(t *testing.T) {
	t.Parallel()
	outer, inner := tree.NewRandomBST(300, 1), tree.NewRandomBST(280, 2)
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
		if p := outer.Parent(o); p != tree.Nil && level[o] < level[p] {
			level[o] = level[p]
		}
	}
	for _, i := range inner.Preorder(nil) {
		if p := inner.Parent(i); p != tree.Nil && thresh[i] > thresh[p] {
			thresh[i] = thresh[p]
		}
	}
	specs := map[string]nest.Spec{
		"regular": {Outer: outer, Inner: inner},
		"irregular": {
			Outer:       outer,
			Inner:       inner,
			Hereditary:  true,
			TruncInner2: func(o, i tree.NodeID) bool { return level[o] > thresh[i] },
		},
	}
	variants := []nest.Variant{nest.Original(), nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(8)}
	for name, s := range specs {
		for _, v := range variants {
			s := s
			s.Work = func(o, i tree.NodeID) {}
			ref, err := Record(s, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				shards := make([][]Pair, workers)
				if _, err := nest.MustNew(s).RunWith(nest.RunConfig{
					Variant: v,
					Workers: workers,
					WrapWork: func(w int, work func(o, i tree.NodeID)) func(o, i tree.NodeID) {
						return func(o, i tree.NodeID) {
							shards[w] = append(shards[w], Pair{O: o, I: i})
							work(o, i)
						}
					},
				}); err != nil {
					t.Fatal(err)
				}
				if err := CheckSharded(ref, shards); err != nil {
					t.Fatalf("%s %v w=%d: %v", name, v, workers, err)
				}
				// A single worker's trace is a full permutation; the
				// sequential Check must accept it too.
				if workers == 1 {
					if err := Check(ref, shards[0]); err != nil {
						t.Fatalf("%s %v single-worker trace: %v", name, v, err)
					}
				}
			}
		}
	}
}

func TestCheckShardedDetectsViolations(t *testing.T) {
	t.Parallel()
	ref := []Pair{{O: 0, I: 0}, {O: 0, I: 1}, {O: 1, I: 0}}
	ok := [][]Pair{{{O: 0, I: 0}, {O: 0, I: 1}}, {{O: 1, I: 0}}}
	if err := CheckSharded(ref, ok); err != nil {
		t.Fatalf("valid sharding rejected: %v", err)
	}
	split := [][]Pair{{{O: 0, I: 0}}, {{O: 0, I: 1}, {O: 1, I: 0}}}
	if err := CheckSharded(ref, split); err == nil {
		t.Fatal("column split across shards accepted")
	}
	reordered := [][]Pair{{{O: 0, I: 1}, {O: 0, I: 0}}, {{O: 1, I: 0}}}
	if err := CheckSharded(ref, reordered); err == nil {
		t.Fatal("reordered column accepted")
	}
	missing := [][]Pair{{{O: 0, I: 0}, {O: 0, I: 1}}}
	if err := CheckSharded(ref, missing); err == nil {
		t.Fatal("missing iteration accepted")
	}
}
