// Package dualtree implements the paper's four real-world benchmark
// algorithms (§6.1) in the style of Curtin et al.'s tree-independent
// dual-tree framework [11]: a *query* tree is traversed against a *reference*
// tree, a Score rule prunes node pairs whose bounding regions cannot
// interact, and a BaseCase runs on point pairs at the leaves.
//
// Each algorithm is expressed as an instance of the nested recursion template
// (internal/nest): the query tree is the outer tree, the reference tree is
// the inner tree, Score is truncateInner2?(o, i) — the outer-dependent,
// irregular truncation of paper §4 — and BaseCase is performed by work(o, i)
// at leaf-leaf pairs. Box pruning is hereditary (shrinking either box can
// only increase the minimum box distance), enabling the §4.2 subtree
// truncation.
//
// The nearest-neighbor algorithms carry dependences over the inner recursion
// (each query's current best distance tightens Score), while different query
// nodes never read each other's state: exactly the "parallel outer
// recursion" soundness criterion of §3.3. Pruning with any currently-valid
// bound is conservative, so every schedule produces identical final results
// (verified against brute force in the tests).
package dualtree

import (
	"math"

	"twist/internal/geom"
	"twist/internal/nest"
	"twist/internal/spatial"
	"twist/internal/tree"
)

// PC is dual-tree 2-point correlation: it counts the pairs (q, r) of query
// and reference points with ‖q−r‖ ≤ radius. Score prunes node pairs whose
// boxes are farther apart than the radius — a fixed threshold, so the
// iteration space, although irregular, is schedule-independent.
type PC struct {
	Query, Ref *spatial.Index
	R2         float64

	// Count is the result: the number of in-radius pairs.
	Count int64

	// PairOps counts point-pair distance evaluations (the base-case work
	// attributed to the schedule's instruction model).
	PairOps int64
}

// NewPC returns a point-correlation instance with the given radius. Counting
// a set against itself (the paper's PC) passes the same index twice; self
// pairs (q == r by original point identity) are then excluded.
func NewPC(query, ref *spatial.Index, radius float64) *PC {
	return &PC{Query: query, Ref: ref, R2: radius * radius}
}

// Reset clears results between runs.
func (p *PC) Reset() { p.Count, p.PairOps = 0, 0 }

// Spec assembles the nested-recursion template for this instance.
func (p *PC) Spec() nest.Spec { return p.SpecInto(&p.Count, &p.PairOps) }

// SpecInto is Spec with the result cells supplied by the caller. Parallel
// runs use it to give each task a private (count, pairOps) shard, summed
// after the run; the template is otherwise identical to Spec's.
func (p *PC) SpecInto(count, pairOps *int64) nest.Spec {
	q, r, r2 := p.Query, p.Ref, p.R2
	selfJoin := q == r
	return nest.Spec{
		Outer:      q.Topo,
		Inner:      r.Topo,
		Hereditary: true,
		TruncInner2: func(o, i tree.NodeID) bool {
			return q.MinDist2(o, r, i) > r2
		},
		Work: func(o, i tree.NodeID) {
			if !q.Topo.IsLeaf(o) || !r.Topo.IsLeaf(i) {
				return
			}
			qs, rs := q.NodePoints(o), r.NodePoints(i)
			*pairOps += int64(len(qs)) * int64(len(rs))
			*count += pcLeaves(qs, rs, r2, selfJoin && o == i)
		},
	}
}

// pcLeaves is PC's base case on one leaf pair: the number of in-radius
// pairs, less the diagonal qk == rk when diag is set. In a self-join the
// diagonal of a leaf paired with itself holds exactly the self pairs, since
// Perm is a bijection and distinct leaves own disjoint point ranges.
func pcLeaves(qs, rs []geom.Point, r2 float64, diag bool) int64 {
	var n int64
	for qk := range qs {
		q := &qs[qk]
		for rk := range rs {
			if q.Dist2(&rs[rk]) <= r2 {
				n++
			}
		}
	}
	if diag {
		// Take back the self pairs the loop counted, by the same test.
		for k := range qs {
			if qs[k].Dist2(&rs[k]) <= r2 {
				n--
			}
		}
	}
	return n
}

// BrutePC is the oracle: counts in-radius pairs by exhaustive comparison.
// If selfJoin is true, pairs (k, k) are excluded.
func BrutePC(query, ref []geom.Point, radius float64, selfJoin bool) int64 {
	r2 := radius * radius
	var count int64
	for qk, q := range query {
		for rk, r := range ref {
			if selfJoin && qk == rk {
				continue
			}
			if geom.Dist2(q, r) <= r2 {
				count++
			}
		}
	}
	return count
}

// NN is dual-tree all-nearest-neighbors: for every query point, find the
// closest reference point. Score prunes a node pair when the boxes' minimum
// distance exceeds the node's bound — the largest current best distance of
// any query point in the node's subtree — which tightens as base cases run:
// the inner-recursion-carried dependence of §6.1.
type NN struct {
	Query, Ref *spatial.Index

	// BestD[q] and BestI[q] are the squared distance and original reference
	// index of the nearest neighbor of original query point q.
	BestD []float64
	BestI []int32

	// PairOps counts point-pair distance evaluations.
	PairOps int64

	// bound[n] is an upper bound on max over query points in n's subtree of
	// their current best distance; it only decreases.
	bound []float64
}

// NewNN returns an all-nearest-neighbor instance.
func NewNN(query, ref *spatial.Index) *NN {
	nn := &NN{Query: query, Ref: ref}
	nn.Reset()
	return nn
}

// Reset clears results and bounds between runs. It allocates only on the
// first call; later calls clear the arrays in place.
func (nn *NN) Reset() {
	if nn.BestD == nil {
		nn.BestD = make([]float64, nn.Query.Len())
		nn.BestI = make([]int32, nn.Query.Len())
	}
	for k := range nn.BestD {
		nn.BestD[k] = math.Inf(1)
		nn.BestI[k] = -1
	}
	// Cleared in place: Spec closures capture the slice, so reallocating
	// here would leave them tightening a stale array across runs.
	if nn.bound == nil {
		nn.bound = make([]float64, nn.Query.Topo.Len())
	}
	for k := range nn.bound {
		nn.bound[k] = math.Inf(1)
	}
	nn.PairOps = 0
}

// better reports whether (d, idx) improves on (d0, idx0), breaking distance
// ties by smaller original index so results are schedule-independent.
func better(d float64, idx int32, d0 float64, idx0 int32) bool {
	return d < d0 || (d == d0 && idx < idx0)
}

// Spec assembles the nested-recursion template for this instance.
func (nn *NN) Spec() nest.Spec { return nn.SpecInto(nn.bound, &nn.PairOps) }

// SpecInto is Spec with the pruning-bound array and the pairOps cell
// supplied by the caller. Parallel runs give each task a fresh all-infinite
// bound array (conservative pruning — always sound, and it makes each
// task's behaviour a pure function of its subtree) plus a private pairOps
// shard. BestD/BestI stay shared: distinct outer subtrees touch disjoint
// query points, so concurrent tasks never write the same cell.
func (nn *NN) SpecInto(bound []float64, pairOps *int64) nest.Spec {
	q, r := nn.Query, nn.Ref
	return nest.Spec{
		Outer:      q.Topo,
		Inner:      r.Topo,
		Hereditary: true,
		TruncInner2: func(o, i tree.NodeID) bool {
			return q.MinDist2(o, r, i) > bound[o]
		},
		Work: func(o, i tree.NodeID) {
			if !q.Topo.IsLeaf(o) || !r.Topo.IsLeaf(i) {
				return
			}
			qs, rs := q.NodePoints(o), r.NodePoints(i)
			*pairOps += int64(len(qs)) * int64(len(rs))
			qPerm, rPerm := q.NodePerm(o), r.NodePerm(i)
			newBound := 0.0
			for qk := range qs {
				qp, qi := &qs[qk], qPerm[qk]
				bd, bi := nn.BestD[qi], nn.BestI[qi]
				for rk := range rs {
					// A candidate farther than the current best cannot
					// win, so its original index is never loaded.
					d := qp.Dist2(&rs[rk])
					if d > bd {
						continue
					}
					if ri := rPerm[rk]; better(d, ri, bd, bi) {
						bd, bi = d, ri
					}
				}
				nn.BestD[qi], nn.BestI[qi] = bd, bi
				if bd > newBound {
					newBound = bd
				}
			}
			tighten(q.Topo, bound, o, newBound)
		},
	}
}

// InfBounds returns a fresh all-infinite bound array sized for the query
// tree — the starting state of SpecInto's pruning for one parallel task.
func InfBounds(topo *tree.Topology) []float64 {
	bound := make([]float64, topo.Len())
	for k := range bound {
		bound[k] = math.Inf(1)
	}
	return bound
}

// tighten lowers the leaf's bound to b and propagates the improvement up the
// query tree: an ancestor's bound is the max of its children's.
func tighten(topo *tree.Topology, bound []float64, leaf tree.NodeID, b float64) {
	if b >= bound[leaf] {
		return
	}
	bound[leaf] = b
	for n := topo.Parent(leaf); n != tree.Nil; n = topo.Parent(n) {
		nb := childBoundMax(topo, bound, n)
		if nb >= bound[n] {
			break
		}
		bound[n] = nb
	}
}

// childBoundMax returns the max bound among n's children (or keeps n's own
// bound if a child is absent — absent children carry no points, but a
// single-child node's bound is just the child's).
func childBoundMax(topo *tree.Topology, bound []float64, n tree.NodeID) float64 {
	l, r := topo.Left(n), topo.Right(n)
	switch {
	case l == tree.Nil && r == tree.Nil:
		return bound[n]
	case l == tree.Nil:
		return bound[r]
	case r == tree.Nil:
		return bound[l]
	default:
		return math.Max(bound[l], bound[r])
	}
}

// BruteNN is the oracle: exhaustive all-nearest-neighbors with the same
// tie-breaking rule. Returns squared distances and reference indices.
func BruteNN(query, ref []geom.Point) ([]float64, []int32) {
	ds := make([]float64, len(query))
	is := make([]int32, len(query))
	for qk, q := range query {
		bd, bi := math.Inf(1), int32(-1)
		for rk, r := range ref {
			if d := geom.Dist2(q, r); better(d, int32(rk), bd, bi) {
				bd, bi = d, int32(rk)
			}
		}
		ds[qk], is[qk] = bd, bi
	}
	return ds, is
}
