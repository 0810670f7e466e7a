package dualtree

import (
	"math"
	"sort"

	"twist/internal/geom"
	"twist/internal/nest"
	"twist/internal/spatial"
	"twist/internal/tree"
)

// neighbor is one candidate in a query's k-best set.
type neighbor struct {
	d   float64 // squared distance
	idx int32   // original reference index
}

// worse orders neighbors descending by (distance, index): a max-heap keyed
// this way keeps the k best with deterministic, schedule-independent tie
// handling.
func worse(a, b neighbor) bool {
	return a.d > b.d || (a.d == b.d && a.idx > b.idx)
}

// kheap is a fixed-capacity max-heap of the k best neighbors seen so far.
type kheap struct {
	k  int
	ns []neighbor
}

// full reports whether k candidates have been collected.
func (h *kheap) full() bool { return len(h.ns) == h.k }

// kth returns the current kth-best squared distance (+inf until full).
func (h *kheap) kth() float64 {
	if !h.full() {
		return math.Inf(1)
	}
	return h.ns[0].d
}

// offer inserts a candidate if it beats the current kth best.
func (h *kheap) offer(n neighbor) {
	if !h.full() {
		h.ns = append(h.ns, n)
		// Sift up.
		for c := len(h.ns) - 1; c > 0; {
			p := (c - 1) / 2
			if !worse(h.ns[c], h.ns[p]) {
				break
			}
			h.ns[c], h.ns[p] = h.ns[p], h.ns[c]
			c = p
		}
		return
	}
	if !worse(h.ns[0], n) {
		return
	}
	h.ns[0] = n
	// Sift down.
	for c := 0; ; {
		l, r := 2*c+1, 2*c+2
		w := c
		if l < len(h.ns) && worse(h.ns[l], h.ns[w]) {
			w = l
		}
		if r < len(h.ns) && worse(h.ns[r], h.ns[w]) {
			w = r
		}
		if w == c {
			break
		}
		h.ns[c], h.ns[w] = h.ns[w], h.ns[c]
		c = w
	}
}

// sortedInto appends the neighbors to buf ascending by (distance, index)
// and returns the extended slice. An insertion sort: k is small, and the
// order is total, since a heap never holds one reference index twice.
func (h *kheap) sortedInto(buf []neighbor) []neighbor {
	n := len(buf)
	buf = append(buf, h.ns...)
	out := buf[n:]
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && worse(out[b-1], out[b]); b-- {
			out[b-1], out[b] = out[b], out[b-1]
		}
	}
	return buf
}

// KNN is dual-tree k-nearest-neighbors: for every query point, find the k
// closest reference points. The paper's KNN benchmark runs it over kd-trees
// (k=5) and the VP benchmark runs the same algorithm over vantage-point
// trees (k=10); only the spatial.Index construction differs.
type KNN struct {
	Query, Ref *spatial.Index
	K          int

	// Heaps[q] holds the current k best for original query point q.
	Heaps []kheap

	// PairOps counts point-pair distance evaluations.
	PairOps int64

	// bound[n] bounds the kth-best distance of any query point in n's
	// subtree (infinite until every point there has k candidates).
	bound []float64

	// block backs every heap: Heaps[q] owns block[q*K : (q+1)*K].
	block []neighbor

	selfJoin bool
}

// NewKNN returns a k-nearest-neighbor instance. Passing the same index for
// query and ref excludes self pairs, the usual all-kNN convention.
func NewKNN(query, ref *spatial.Index, k int) *KNN {
	kn := &KNN{Query: query, Ref: ref, K: k, selfJoin: query == ref}
	kn.Reset()
	return kn
}

// Reset clears results and bounds between runs. It allocates only on the
// first call: the heaps are truncated in place over one shared block.
func (kn *KNN) Reset() {
	if kn.Heaps == nil {
		n := kn.Query.Len()
		kn.Heaps = make([]kheap, n)
		kn.block = make([]neighbor, n*kn.K)
	}
	for q := range kn.Heaps {
		// The capped slice keeps each heap's appends inside its own K cells.
		kn.Heaps[q] = kheap{k: kn.K, ns: kn.block[q*kn.K : q*kn.K : (q+1)*kn.K]}
	}
	// Cleared in place: Spec closures capture the slice, so reallocating
	// here would leave them tightening a stale array across runs.
	if kn.bound == nil {
		kn.bound = make([]float64, kn.Query.Topo.Len())
	}
	for k := range kn.bound {
		kn.bound[k] = math.Inf(1)
	}
	kn.PairOps = 0
}

// Spec assembles the nested-recursion template for this instance.
func (kn *KNN) Spec() nest.Spec { return kn.SpecInto(kn.bound, &kn.PairOps) }

// SpecInto is Spec with the pruning-bound array and pairOps cell supplied by
// the caller; see NN.SpecInto for the parallel-sharding rationale. Heaps
// stay shared — distinct outer subtrees hold disjoint query points.
func (kn *KNN) SpecInto(bound []float64, pairOps *int64) nest.Spec {
	q, r := kn.Query, kn.Ref
	selfJoin := kn.selfJoin
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
			// Self pairs sit on the diagonal of a leaf paired with itself;
			// see pcLeaves.
			diag := selfJoin && o == i
			qPerm, rPerm := q.NodePerm(o), r.NodePerm(i)
			newBound := 0.0
			for qk := range qs {
				qp, h := &qs[qk], &kn.Heaps[qPerm[qk]]
				kth := h.kth()
				for rk := range rs {
					// A candidate farther than the kth best cannot enter
					// the heap; one at exactly the kth distance still can,
					// on a smaller index, so it goes to offer.
					d := qp.Dist2(&rs[rk])
					if d > kth || diag && qk == rk {
						continue
					}
					h.offer(neighbor{d: d, idx: rPerm[rk]})
					kth = h.kth()
				}
				if kth > newBound {
					newBound = kth
				}
			}
			tighten(q.Topo, bound, o, newBound)
		},
	}
}

// Result returns, for original query point q, the sorted (ascending) squared
// distances and reference indices of its k nearest neighbors.
func (kn *KNN) Result(q int) ([]float64, []int32) {
	ns := kn.Heaps[q].sortedInto(nil)
	ds := make([]float64, len(ns))
	is := make([]int32, len(ns))
	for k, n := range ns {
		ds[k], is[k] = n.d, n.idx
	}
	return ds, is
}

// EachResult calls f(q, idx) for every original query point q in order,
// where idx holds q's nearest reference indices in Result's order. idx is
// one buffer reused across calls, so f must not keep it; the whole sweep
// allocates two k-element buffers instead of Result's copies per point.
func (kn *KNN) EachResult(f func(q int, idx []int32)) {
	ns := make([]neighbor, 0, kn.K)
	idx := make([]int32, 0, kn.K)
	for q := range kn.Heaps {
		ns = kn.Heaps[q].sortedInto(ns[:0])
		idx = idx[:0]
		for _, n := range ns {
			idx = append(idx, n.idx)
		}
		f(q, idx)
	}
}

// BruteKNN is the oracle: exhaustive k-nearest-neighbors with the same tie
// rule. Returns per-query ascending (distance, index) lists.
func BruteKNN(query, ref []geom.Point, k int, selfJoin bool) ([][]float64, [][]int32) {
	ds := make([][]float64, len(query))
	is := make([][]int32, len(query))
	for qk, q := range query {
		cands := make([]neighbor, 0, len(ref))
		for rk, r := range ref {
			if selfJoin && qk == rk {
				continue
			}
			cands = append(cands, neighbor{d: geom.Dist2(q, r), idx: int32(rk)})
		}
		sort.Slice(cands, func(a, b int) bool { return worse(cands[b], cands[a]) })
		if len(cands) > k {
			cands = cands[:k]
		}
		ds[qk] = make([]float64, len(cands))
		is[qk] = make([]int32, len(cands))
		for n, c := range cands {
			ds[qk][n], is[qk][n] = c.d, c.idx
		}
	}
	return ds, is
}
