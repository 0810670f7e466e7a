package main

import (
	"reflect"
	"testing"

	"twist/internal/memsim"
	"twist/internal/tree"
)

type triple struct{ a, b, c tree.NodeID }

func collect(s Spec, twisted bool) []triple {
	var out []triple
	s.Work = func(a, b, c tree.NodeID) { out = append(out, triple{a, b, c}) }
	e := MustNew(s)
	if twisted {
		e.RunTwisted()
	} else {
		e.RunOriginal()
	}
	return out
}

func TestOriginalIsLexicographic(t *testing.T) {
	s := Spec{A: tree.NewBalanced(3), B: tree.NewBalanced(2), C: tree.NewBalanced(2)}
	got := collect(s, false)
	var want []triple
	for _, a := range s.A.Preorder(nil) {
		for _, b := range s.B.Preorder(nil) {
			for _, c := range s.C.Preorder(nil) {
				want = append(want, triple{a, b, c})
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("original 3-level order:\n got %v\nwant %v", got, want)
	}
}

func TestTwistedIsPermutation(t *testing.T) {
	shapes := [][3]*tree.Topology{
		{tree.NewBalanced(7), tree.NewBalanced(7), tree.NewBalanced(7)},
		{tree.NewBalanced(15), tree.NewBalanced(5), tree.NewBalanced(9)},
		{tree.NewRandomBST(11, 1), tree.NewRandomBST(13, 2), tree.NewRandomBST(6, 3)},
		{tree.NewChain(4), tree.NewBalanced(6), tree.NewChain(3)},
		{tree.NewBalanced(1), tree.NewBalanced(8), tree.NewBalanced(8)},
	}
	for _, sh := range shapes {
		s := Spec{A: sh[0], B: sh[1], C: sh[2]}
		got := collect(s, true)
		total := sh[0].Len() * sh[1].Len() * sh[2].Len()
		if len(got) != total {
			t.Fatalf("twisted executed %d of %d triples", len(got), total)
		}
		seen := map[triple]bool{}
		for _, x := range got {
			if seen[x] {
				t.Fatalf("triple %v executed twice", x)
			}
			seen[x] = true
		}
	}
}

func TestTwistedActuallyReSortsRoles(t *testing.T) {
	s := Spec{A: tree.NewBalanced(63), B: tree.NewBalanced(63), C: tree.NewBalanced(63)}
	s.Work = func(a, b, c tree.NodeID) {}
	e := MustNew(s)
	e.RunTwisted()
	if e.Stats.Twists == 0 {
		t.Fatal("equal-size trees never re-sorted roles")
	}
	if e.Stats.Work != 63*63*63 {
		t.Fatalf("work = %d", e.Stats.Work)
	}
}

// The three-dimensional locality claim: under the original order the two
// inner dimensions have reuse distances on the order of their full subspace,
// while three-level twisting shrinks them recursively.
func TestTwistedImprovesInnerDimensionLocality(t *testing.T) {
	const n = 15 // per-tree nodes; space is n³
	s := Spec{A: tree.NewBalanced(n), B: tree.NewBalanced(n), C: tree.NewBalanced(n)}
	mean := func(twisted bool, dim int) float64 {
		ra := memsim.NewReuseAnalyzer()
		h := memsim.NewHistogram()
		s.Work = func(a, b, c tree.NodeID) {
			id := [3]tree.NodeID{a, b, c}[dim]
			h.Add(ra.Access(memsim.Addr(dim)<<32 | memsim.Addr(id)))
		}
		e := MustNew(s)
		if twisted {
			e.RunTwisted()
		} else {
			e.RunOriginal()
		}
		return h.Mean()
	}
	// The innermost dimension is the cold one under the original order
	// (every access to a C node is a full C-tree apart); twisting must
	// collapse its distances.
	origC, twC := mean(false, 2), mean(true, 2)
	if twC > origC/2 {
		t.Fatalf("dim 2: twisted mean reuse %v not well below original %v", twC, origC)
	}
	// Combined stream over all three dimensions: twisting lowers the mean
	// too (the outer dimensions were already hot, so the win is smaller).
	meanAll := func(twisted bool) float64 {
		ra := memsim.NewReuseAnalyzer()
		h := memsim.NewHistogram()
		s.Work = func(a, b, c tree.NodeID) {
			h.Add(ra.Access(0<<32 | memsim.Addr(a)))
			h.Add(ra.Access(1<<32 | memsim.Addr(b)))
			h.Add(ra.Access(2<<32 | memsim.Addr(c)))
		}
		e := MustNew(s)
		if twisted {
			e.RunTwisted()
		} else {
			e.RunOriginal()
		}
		return h.Mean()
	}
	origAll, twAll := meanAll(false), meanAll(true)
	if twAll >= origAll {
		t.Fatalf("combined mean reuse: twisted %v not below original %v", twAll, origAll)
	}
}

// Matrix-matrix multiplication through three-level twisting: the §7.2 target
// application. Integer matrices make every schedule bit-identical.
func TestMatMul3Correct(t *testing.T) {
	const n = 12
	ti, ii := rangeTree(n)
	tj, ij := rangeTree(n)
	tk, ik := rangeTree(n)

	var m1, m2 [n][n]int64
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			m1[x][y] = int64(x*7 + y*3 + 1)
			m2[x][y] = int64(x*5 - y*2 + 4)
		}
	}
	var want [n][n]int64
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for k := 0; k < n; k++ {
				want[x][y] += m1[x][k] * m2[k][y]
			}
		}
	}

	var got [n][n]int64
	s := Spec{A: ti, B: tj, C: tk, Work: func(a, b, c tree.NodeID) {
		i, j, k := ii[a], ij[b], ik[c]
		if i < 0 || j < 0 || k < 0 {
			return
		}
		got[i][j] += m1[i][k] * m2[k][j]
	}}
	e := MustNew(s)
	e.RunTwisted()
	if got != want {
		t.Fatal("three-level twisted matrix product incorrect")
	}

	// And the original order gives the same matrix.
	got = [n][n]int64{}
	e.RunOriginal()
	if got != want {
		t.Fatal("original three-level matrix product incorrect")
	}
}

func TestValidation(t *testing.T) {
	tr := tree.NewBalanced(3)
	if _, err := New(Spec{A: tr, B: tr, C: tr}); err == nil {
		t.Fatal("nil Work accepted")
	}
	if _, err := New(Spec{A: tr, C: tr, Work: func(a, b, c tree.NodeID) {}}); err == nil {
		t.Fatal("nil B accepted")
	}
}

func TestEmptyDimension(t *testing.T) {
	s := Spec{A: tree.NewBalanced(3), B: tree.NewBalanced(0), C: tree.NewBalanced(3)}
	if got := collect(s, true); len(got) != 0 {
		t.Fatalf("empty dimension produced %d triples", len(got))
	}
	if got := collect(s, false); len(got) != 0 {
		t.Fatalf("empty dimension produced %d triples (original)", len(got))
	}
}

func BenchmarkThreeLevel(b *testing.B) {
	s := Spec{A: tree.NewBalanced(63), B: tree.NewBalanced(63), C: tree.NewBalanced(63)}
	var sink int64
	s.Work = func(a, bb, c tree.NodeID) { sink += int64(a) ^ int64(bb) ^ int64(c) }
	e := MustNew(s)
	b.Run("original", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			e.RunOriginal()
		}
	})
	b.Run("twisted", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			e.RunTwisted()
		}
	})
	_ = sink
}
