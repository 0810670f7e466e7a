package dualtree

import (
	"math"
	"slices"
	"testing"

	"twist/internal/geom"
	"twist/internal/kdtree"
	"twist/internal/nest"
	"twist/internal/spatial"
	"twist/internal/vptree"
)

var allVariants = []nest.Variant{
	nest.Original(), nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(64),
}

func runSpec(t *testing.T, s nest.Spec, v nest.Variant, fm nest.FlagMode) nest.Stats {
	t.Helper()
	e := nest.MustNew(s)
	e.Flags = fm
	e.Run(v)
	return e.Stats
}

func TestPCMatchesBruteForceAllSchedules(t *testing.T) {
	for _, dist := range []geom.Distribution{geom.Uniform, geom.Clustered} {
		qpts := geom.Generate(dist, 400, 1)
		rpts := geom.Generate(dist, 300, 2)
		radius := 0.1
		want := BrutePC(qpts, rpts, radius, false)
		if want == 0 {
			t.Fatalf("%v: trivial oracle; adjust radius", dist)
		}
		q := kdtree.MustBuild(qpts, 8)
		r := kdtree.MustBuild(rpts, 8)
		pc := NewPC(q, r, radius)
		for _, v := range allVariants {
			for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
				pc.Reset()
				runSpec(t, pc.Spec(), v, fm)
				if pc.Count != want {
					t.Fatalf("%v/%v/%v: count %d, want %d", dist, v, fm, pc.Count, want)
				}
			}
		}
	}
}

func TestPCSelfJoin(t *testing.T) {
	pts := geom.Generate(geom.Clustered, 500, 3)
	radius := 0.05
	want := BrutePC(pts, pts, radius, true)
	ix := kdtree.MustBuild(pts, 8)
	pc := NewPC(ix, ix, radius)
	for _, v := range allVariants {
		pc.Reset()
		runSpec(t, pc.Spec(), v, nest.FlagCounter)
		if pc.Count != want {
			t.Fatalf("%v: self-join count %d, want %d", v, pc.Count, want)
		}
	}
}

func TestPCPrunesWork(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 2000, 4)
	ix := kdtree.MustBuild(pts, 8)
	pc := NewPC(ix, ix, 0.05)
	st := runSpec(t, pc.Spec(), nest.Original(), nest.FlagCounter)
	full := int64(ix.Topo.Len()) * int64(ix.Topo.Len())
	if st.Iterations >= full/4 {
		t.Fatalf("pruning ineffective: %d iterations of %d full cross product", st.Iterations, full)
	}
	if pc.PairOps >= int64(len(pts))*int64(len(pts))/4 {
		t.Fatalf("base cases not pruned: %d pair ops", pc.PairOps)
	}
}

func TestNNMatchesBruteForceAllSchedules(t *testing.T) {
	qpts := geom.Generate(geom.Clustered, 300, 5)
	rpts := geom.Generate(geom.Clustered, 400, 6)
	wantD, wantI := BruteNN(qpts, rpts)
	q := kdtree.MustBuild(qpts, 8)
	r := kdtree.MustBuild(rpts, 8)
	nn := NewNN(q, r)
	for _, v := range allVariants {
		for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
			nn.Reset()
			runSpec(t, nn.Spec(), v, fm)
			for k := range wantD {
				if nn.BestI[k] != wantI[k] || nn.BestD[k] != wantD[k] {
					t.Fatalf("%v/%v: query %d got (%v,%d), want (%v,%d)",
						v, fm, k, nn.BestD[k], nn.BestI[k], wantD[k], wantI[k])
				}
			}
		}
	}
}

func TestNNBoundsPrune(t *testing.T) {
	qpts := geom.Generate(geom.Uniform, 1000, 7)
	rpts := geom.Generate(geom.Uniform, 1000, 8)
	q := kdtree.MustBuild(qpts, 8)
	r := kdtree.MustBuild(rpts, 8)
	nn := NewNN(q, r)
	st := runSpec(t, nn.Spec(), nest.Original(), nest.FlagCounter)
	if nn.PairOps >= int64(len(qpts))*int64(len(rpts))/2 {
		t.Fatalf("NN pruning ineffective: %d pair ops", nn.PairOps)
	}
	if st.TruncChecks == 0 {
		t.Fatal("no truncation checks happened")
	}
}

func TestKNNMatchesBruteForceAllSchedules(t *testing.T) {
	for _, k := range []int{1, 5} {
		qpts := geom.Generate(geom.Clustered, 250, 9)
		rpts := geom.Generate(geom.Clustered, 350, 10)
		wantD, wantI := BruteKNN(qpts, rpts, k, false)
		q := kdtree.MustBuild(qpts, 8)
		r := kdtree.MustBuild(rpts, 8)
		kn := NewKNN(q, r, k)
		for _, v := range allVariants {
			kn.Reset()
			runSpec(t, kn.Spec(), v, nest.FlagCounter)
			for qi := range qpts {
				gotD, gotI := kn.Result(qi)
				if len(gotD) != len(wantD[qi]) {
					t.Fatalf("k=%d %v: query %d has %d neighbors, want %d", k, v, qi, len(gotD), len(wantD[qi]))
				}
				for n := range gotD {
					if gotD[n] != wantD[qi][n] || gotI[n] != wantI[qi][n] {
						t.Fatalf("k=%d %v: query %d neighbor %d got (%v,%d), want (%v,%d)",
							k, v, qi, n, gotD[n], gotI[n], wantD[qi][n], wantI[qi][n])
					}
				}
			}
			next := 0
			kn.EachResult(func(qi int, idx []int32) {
				if qi != next || !slices.Equal(idx, wantI[qi]) {
					t.Fatalf("k=%d %v: EachResult call %d gave query %d indices %v", k, v, next, qi, idx)
				}
				next++
			})
			if next != len(qpts) {
				t.Fatalf("k=%d %v: EachResult visited %d of %d queries", k, v, next, len(qpts))
			}
		}
	}
}

func TestKNNSelfJoinOverVPTree(t *testing.T) {
	// The paper's VP benchmark: kNN (k=10 there; smaller here) over a
	// vantage-point tree.
	pts := geom.Generate(geom.Clustered, 400, 11)
	const k = 4
	wantD, _ := BruteKNN(pts, pts, k, true)
	ix := vptree.MustBuild(pts, 8, 21)
	kn := NewKNN(ix, ix, k)
	for _, v := range allVariants {
		kn.Reset()
		runSpec(t, kn.Spec(), v, nest.FlagCounter)
		for qi := range pts {
			gotD, _ := kn.Result(qi)
			for n := range gotD {
				if gotD[n] != wantD[qi][n] {
					t.Fatalf("%v: query %d neighbor %d distance %v, want %v",
						v, qi, n, gotD[n], wantD[qi][n])
				}
			}
		}
	}
}

func TestKNNFewerRefsThanK(t *testing.T) {
	qpts := geom.Generate(geom.Uniform, 20, 12)
	rpts := geom.Generate(geom.Uniform, 3, 13)
	q := kdtree.MustBuild(qpts, 4)
	r := kdtree.MustBuild(rpts, 4)
	kn := NewKNN(q, r, 5)
	runSpec(t, kn.Spec(), nest.Twisted(), nest.FlagCounter)
	wantD, wantI := BruteKNN(qpts, rpts, 5, false)
	for qi := range qpts {
		gotD, gotI := kn.Result(qi)
		if len(gotD) != 3 {
			t.Fatalf("query %d has %d neighbors, want all 3 refs", qi, len(gotD))
		}
		for n := range gotD {
			if gotD[n] != wantD[qi][n] || gotI[n] != wantI[qi][n] {
				t.Fatalf("query %d neighbor %d mismatch", qi, n)
			}
		}
	}
}

func TestKheap(t *testing.T) {
	h := kheap{k: 3}
	if got := h.kth(); !math.IsInf(got, 1) {
		t.Fatalf("empty kth = %v", got)
	}
	for _, d := range []float64{5, 1, 9, 3, 7, 2} {
		h.offer(neighbor{d: d, idx: int32(d)})
	}
	ns := h.sortedInto(nil)
	if len(ns) != 3 || ns[0].d != 1 || ns[1].d != 2 || ns[2].d != 3 {
		t.Fatalf("sorted = %v", ns)
	}
	if h.kth() != 3 {
		t.Fatalf("kth = %v", h.kth())
	}
	// Ties broken by index: a later equal-distance candidate with a larger
	// index must not displace; with a smaller index it must.
	h2 := kheap{k: 1}
	h2.offer(neighbor{d: 4, idx: 7})
	h2.offer(neighbor{d: 4, idx: 9})
	if h2.ns[0].idx != 7 {
		t.Fatal("tie displaced by larger index")
	}
	h2.offer(neighbor{d: 4, idx: 2})
	if h2.ns[0].idx != 2 {
		t.Fatal("tie not displaced by smaller index")
	}
}

// Resetting a nearest-neighbor instance between runs reuses its result
// and bound arrays (the suite resets before every run). Not parallel:
// AllocsPerRun counts the mallocs of the whole process.
func TestNNResetDoesNotAllocate(t *testing.T) {
	idx := kdtree.MustBuild(geom.Generate(geom.Uniform, 200, 3), 8)
	nn, kn := NewNN(idx, idx), NewKNN(idx, idx, 4)
	if allocs := testing.AllocsPerRun(10, func() { nn.Reset(); kn.Reset() }); allocs != 0 {
		t.Errorf("Reset allocates %v times per call", allocs)
	}
}

func TestDuplicatePointsNNDeterministic(t *testing.T) {
	// Many exactly-coincident points: tie-breaking must keep results
	// schedule-independent.
	base := geom.Generate(geom.Uniform, 50, 14)
	pts := append(append([]geom.Point{}, base...), base...) // every point twice
	q := kdtree.MustBuild(pts, 4)
	r := kdtree.MustBuild(pts, 4)
	wantD, wantI := BruteNN(pts, pts)
	nn := NewNN(q, r)
	for _, v := range allVariants {
		nn.Reset()
		runSpec(t, nn.Spec(), v, nest.FlagSets)
		for k := range pts {
			if nn.BestD[k] != wantD[k] || nn.BestI[k] != wantI[k] {
				t.Fatalf("%v: duplicate-point query %d got (%v,%d), want (%v,%d)",
					v, k, nn.BestD[k], nn.BestI[k], wantD[k], wantI[k])
			}
		}
	}
}

func TestDuplicatePointsKNNDeterministic(t *testing.T) {
	// Every point three times: candidates tie the current kth distance, and
	// one with a smaller index must still displace the heap's top, so the
	// kernel may skip only strictly farther candidates.
	base := geom.Generate(geom.Uniform, 50, 16)
	pts := slices.Concat(base, base, base)
	builds := map[string]func() *spatial.Index{
		"kd": func() *spatial.Index { return kdtree.MustBuild(pts, 4) },
		"vp": func() *spatial.Index { return vptree.MustBuild(pts, 4, 17) },
	}
	for name, build := range builds {
		for _, selfJoin := range []bool{true, false} {
			q, r := build(), build()
			if selfJoin {
				r = q
			}
			for _, k := range []int{5, 10} {
				wantD, wantI := BruteKNN(pts, pts, k, selfJoin)
				kn := NewKNN(q, r, k)
				for _, v := range allVariants {
					for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
						kn.Reset()
						runSpec(t, kn.Spec(), v, fm)
						for qi := range pts {
							gotD, gotI := kn.Result(qi)
							if !slices.Equal(gotD, wantD[qi]) || !slices.Equal(gotI, wantI[qi]) {
								t.Fatalf("%s self=%v k=%d %v/%v: query %d got (%v,%v), want (%v,%v)",
									name, selfJoin, k, v, fm, qi, gotD, gotI, wantD[qi], wantI[qi])
							}
						}
					}
				}
			}
		}
	}
}

// Iteration counts across schedules reproduce the §4.2 ordering on a real
// dual-tree workload (this is the shape behind the 1.25B/5.61B/1.31B/1.27B
// point-correlation numbers).
func TestPCIterationOverheadShape(t *testing.T) {
	pts := geom.Generate(geom.Clustered, 4000, 15)
	ix := kdtree.MustBuild(pts, 8)
	pc := NewPC(ix, ix, 0.03)
	run := func(v nest.Variant, subtree bool) nest.Stats {
		pc.Reset()
		e := nest.MustNew(pc.Spec())
		e.SubtreeTruncation = subtree
		e.Run(v)
		return e.Stats
	}
	orig := run(nest.Original(), true)
	inter := run(nest.Interchanged(), false)
	tw := run(nest.Twisted(), false)
	twSub := run(nest.Twisted(), true)
	if !(inter.Iterations > tw.Iterations && tw.Iterations >= twSub.Iterations && twSub.Iterations >= orig.Iterations) {
		t.Fatalf("iteration ordering violated: orig=%d twist+sub=%d twist=%d inter=%d",
			orig.Iterations, twSub.Iterations, tw.Iterations, inter.Iterations)
	}
	// Twisting should be within a small multiple of the original, while
	// interchange explodes (§4.2: 4%% vs ~4.5x in the paper).
	if float64(twSub.Iterations) > 2.0*float64(orig.Iterations) {
		t.Fatalf("twisted iterations %d more than 2x original %d", twSub.Iterations, orig.Iterations)
	}
	if float64(inter.Iterations) < 1.5*float64(orig.Iterations) {
		t.Fatalf("interchange iterations %d suspiciously low vs original %d", inter.Iterations, orig.Iterations)
	}
}

func buildIndexes(n int, seed int64) (*spatial.Index, *spatial.Index) {
	q := kdtree.MustBuild(geom.Generate(geom.Clustered, n, seed), 8)
	r := kdtree.MustBuild(geom.Generate(geom.Clustered, n, seed+1), 8)
	return q, r
}

func BenchmarkPCOriginal(b *testing.B) {
	q, r := buildIndexes(1<<12, 1)
	pc := NewPC(q, r, 0.05)
	e := nest.MustNew(pc.Spec())
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		pc.Reset()
		e.Run(nest.Original())
	}
}

func BenchmarkPCTwisted(b *testing.B) {
	q, r := buildIndexes(1<<12, 1)
	pc := NewPC(q, r, 0.05)
	e := nest.MustNew(pc.Spec())
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		pc.Reset()
		e.Run(nest.Twisted())
	}
}
