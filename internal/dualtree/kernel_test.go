package dualtree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"twist/internal/geom"
	"twist/internal/kdtree"
	"twist/internal/spatial"
	"twist/internal/tree"
	"twist/internal/vptree"
)

// The reference base cases below are the per-pair formulation the leaf-block
// kernels replaced: points copied into geom.Dist2, self pairs excluded by
// comparing original indices through Perm, and every candidate handed to
// better or offer. The differential tests drive both forms over the same
// node pairs and require identical state after every call.

func refPCWork(p *PC, count, pairOps *int64) func(o, i tree.NodeID) {
	selfJoin := p.Query == p.Ref
	return func(o, i tree.NodeID) {
		if !p.Query.Topo.IsLeaf(o) || !p.Ref.Topo.IsLeaf(i) {
			return
		}
		qs := p.Query.NodePoints(o)
		rs := p.Ref.NodePoints(i)
		*pairOps += int64(len(qs)) * int64(len(rs))
		for qk, q := range qs {
			for rk, r := range rs {
				if selfJoin && p.Query.Perm[int(p.Query.Start[o])+qk] == p.Ref.Perm[int(p.Ref.Start[i])+rk] {
					continue
				}
				if geom.Dist2(q, r) <= p.R2 {
					*count++
				}
			}
		}
	}
}

func refNNWork(nn *NN, bound []float64, pairOps *int64) func(o, i tree.NodeID) {
	return func(o, i tree.NodeID) {
		if !nn.Query.Topo.IsLeaf(o) || !nn.Ref.Topo.IsLeaf(i) {
			return
		}
		qs := nn.Query.NodePoints(o)
		rs := nn.Ref.NodePoints(i)
		*pairOps += int64(len(qs)) * int64(len(rs))
		newBound := 0.0
		for qk, q := range qs {
			qi := nn.Query.Perm[int(nn.Query.Start[o])+qk]
			bd, bi := nn.BestD[qi], nn.BestI[qi]
			for rk, r := range rs {
				ri := nn.Ref.Perm[int(nn.Ref.Start[i])+rk]
				if d := geom.Dist2(q, r); better(d, ri, bd, bi) {
					bd, bi = d, ri
				}
			}
			nn.BestD[qi], nn.BestI[qi] = bd, bi
			if bd > newBound {
				newBound = bd
			}
		}
		tighten(nn.Query.Topo, bound, o, newBound)
	}
}

func refKNNWork(kn *KNN, bound []float64, pairOps *int64) func(o, i tree.NodeID) {
	return func(o, i tree.NodeID) {
		if !kn.Query.Topo.IsLeaf(o) || !kn.Ref.Topo.IsLeaf(i) {
			return
		}
		qs := kn.Query.NodePoints(o)
		rs := kn.Ref.NodePoints(i)
		*pairOps += int64(len(qs)) * int64(len(rs))
		newBound := 0.0
		for qk, q := range qs {
			qi := kn.Query.Perm[int(kn.Query.Start[o])+qk]
			h := &kn.Heaps[qi]
			for rk, r := range rs {
				ri := kn.Ref.Perm[int(kn.Ref.Start[i])+rk]
				if kn.selfJoin && ri == qi {
					continue
				}
				h.offer(neighbor{d: geom.Dist2(q, r), idx: ri})
			}
			if kb := h.kth(); kb > newBound {
				newBound = kb
			}
		}
		tighten(kn.Query.Topo, bound, o, newBound)
	}
}

// kernelCase is one (query, ref) index pair; self-joins pass one index
// twice, so their node-pair sweeps include every diagonal pair o == i.
type kernelCase struct {
	name string
	q, r *spatial.Index
}

func kernelCases() []kernelCase {
	dup := geom.Generate(geom.Uniform, 60, 33)
	dup = slices.Concat(dup, dup, dup, dup) // every point four times
	sets := []struct {
		name     string
		pts, alt []geom.Point
	}{
		{"uniform", geom.Generate(geom.Uniform, 240, 31), geom.Generate(geom.Uniform, 200, 41)},
		{"clustered", geom.Generate(geom.Clustered, 240, 32), geom.Generate(geom.Clustered, 200, 42)},
		// The cross case queries the duplicates against a second index over
		// the same points: every query ties with four references at 0.
		{"duplicate", dup, dup},
	}
	var out []kernelCase
	for _, s := range sets {
		kd := kdtree.MustBuild(s.pts, 8)
		vp := vptree.MustBuild(s.pts, 8, 5)
		out = append(out,
			kernelCase{s.name + "/kd-self", kd, kd},
			kernelCase{s.name + "/vp-self", vp, vp},
			kernelCase{s.name + "/kd-cross", kd, kdtree.MustBuild(s.alt, 6)},
		)
	}
	return out
}

// eachNodePair calls f on every (query node, ref node) pair, leaves and
// internal nodes alike, in a seeded shuffled order: the running bounds then
// pass through many more states than any one schedule produces.
func eachNodePair(c kernelCase, seed int64, f func(o, i tree.NodeID)) {
	var pairs [][2]tree.NodeID
	for o := 0; o < c.q.Topo.Len(); o++ {
		for i := 0; i < c.r.Topo.Len(); i++ {
			pairs = append(pairs, [2]tree.NodeID{tree.NodeID(o), tree.NodeID(i)})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	for _, p := range pairs {
		f(p[0], p[1])
	}
}

func TestPCKernelMatchesReference(t *testing.T) {
	for _, c := range kernelCases() {
		for _, radius := range []float64{0.1, 0.3} {
			t.Run(fmt.Sprintf("%s/r=%v", c.name, radius), func(t *testing.T) {
				pc := NewPC(c.q, c.r, radius)
				var count, ops, refCount, refOps int64
				work := pc.SpecInto(&count, &ops).Work
				ref := refPCWork(pc, &refCount, &refOps)
				eachNodePair(c, 1, func(o, i tree.NodeID) {
					work(o, i)
					ref(o, i)
					if count != refCount || ops != refOps {
						t.Fatalf("after (%d,%d): count %d pairOps %d, reference %d %d", o, i, count, ops, refCount, refOps)
					}
				})
				if count == 0 {
					t.Fatal("no pair in radius: the case checks nothing")
				}
			})
		}
	}
}

func TestNNKernelMatchesReference(t *testing.T) {
	for _, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			nn, refNN := NewNN(c.q, c.r), NewNN(c.q, c.r)
			bound, refBound := InfBounds(c.q.Topo), InfBounds(c.q.Topo)
			var ops, refOps int64
			work := nn.SpecInto(bound, &ops).Work
			ref := refNNWork(refNN, refBound, &refOps)
			eachNodePair(c, 2, func(o, i tree.NodeID) {
				work(o, i)
				ref(o, i)
				for _, qi := range c.q.NodePerm(o) {
					if nn.BestD[qi] != refNN.BestD[qi] || nn.BestI[qi] != refNN.BestI[qi] {
						t.Fatalf("after (%d,%d): query %d best (%v,%d), reference (%v,%d)",
							o, i, qi, nn.BestD[qi], nn.BestI[qi], refNN.BestD[qi], refNN.BestI[qi])
					}
				}
				if ops != refOps || !slices.Equal(bound, refBound) {
					t.Fatalf("after (%d,%d): pairOps %d or bounds differ from reference (%d)", o, i, ops, refOps)
				}
			})
			if !slices.Equal(nn.BestD, refNN.BestD) || !slices.Equal(nn.BestI, refNN.BestI) {
				t.Fatal("final neighbors differ from reference")
			}
		})
	}
}

func TestKNNKernelMatchesReference(t *testing.T) {
	for _, c := range kernelCases() {
		for _, k := range []int{1, 5, 10} {
			t.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(t *testing.T) {
				kn, refKN := NewKNN(c.q, c.r, k), NewKNN(c.q, c.r, k)
				bound, refBound := InfBounds(c.q.Topo), InfBounds(c.q.Topo)
				var ops, refOps int64
				work := kn.SpecInto(bound, &ops).Work
				ref := refKNNWork(refKN, refBound, &refOps)
				eachNodePair(c, 3, func(o, i tree.NodeID) {
					work(o, i)
					ref(o, i)
					// Rejected offers leave a heap untouched, so skipping
					// them keeps even the heap's internal order.
					for _, qi := range c.q.NodePerm(o) {
						if !slices.Equal(kn.Heaps[qi].ns, refKN.Heaps[qi].ns) {
							t.Fatalf("after (%d,%d): query %d heap %v, reference %v",
								o, i, qi, kn.Heaps[qi].ns, refKN.Heaps[qi].ns)
						}
					}
					if ops != refOps || !slices.Equal(bound, refBound) {
						t.Fatalf("after (%d,%d): pairOps %d or bounds differ from reference (%d)", o, i, ops, refOps)
					}
				})
				for q := 0; q < c.q.Len(); q++ {
					d, idx := kn.Result(q)
					refD, refIdx := refKN.Result(q)
					if !slices.Equal(d, refD) || !slices.Equal(idx, refIdx) {
						t.Fatalf("query %d: result (%v,%v), reference (%v,%v)", q, d, idx, refD, refIdx)
					}
				}
			})
		}
	}
}
