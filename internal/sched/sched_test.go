package sched

import (
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
