// Package spatial defines the common shape of the space-partitioning trees
// the dual-tree benchmarks traverse (paper §6): an arena tree.Topology whose
// every node owns a contiguous range of points and a bounding box over them.
//
// Both the kd-tree (internal/kdtree) and the vantage-point tree
// (internal/vptree) build this representation; they differ only in how they
// *partition* points, i.e. in the tree shape. The dual-tree algorithms in
// internal/dualtree prune with box-to-box distances, which are valid bounds
// for any Index because every node's box tightly contains its points.
package spatial

import (
	"errors"
	"fmt"

	"twist/internal/geom"
	"twist/internal/tree"
)

// Index is a space-partitioning tree over a point set.
type Index struct {
	// Topo is the tree shape; node IDs index the parallel slices below.
	Topo *tree.Topology

	// Points holds the point set, permuted so that every node's subtree owns
	// the contiguous range [Start[n], End[n]).
	Points []geom.Point

	// Boxes[n] is the tight bounding box of the points in node n's range.
	Boxes []geom.Box

	// Start and End delimit node n's point range within Points.
	Start, End []int32

	// Perm maps permuted positions back to original point indices:
	// Points[k] == original[Perm[k]]. Queries report original indices.
	Perm []int32
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.Points) }

// NodePoints returns the points owned by node n's subtree.
func (ix *Index) NodePoints(n tree.NodeID) []geom.Point {
	return ix.Points[ix.Start[n]:ix.End[n]]
}

// NodePerm returns the original indices of the points NodePoints(n)
// returns, position for position.
func (ix *Index) NodePerm(n tree.NodeID) []int32 {
	return ix.Perm[ix.Start[n]:ix.End[n]]
}

// Count returns how many points node n's subtree owns.
func (ix *Index) Count(n tree.NodeID) int32 { return ix.End[n] - ix.Start[n] }

// MinDist2 returns a lower bound on the squared distance between any point
// of node a in ix and any point of node b in other.
func (ix *Index) MinDist2(a tree.NodeID, other *Index, b tree.NodeID) float64 {
	return ix.Boxes[a].MinDist2(&other.Boxes[b])
}

// MaxDist2 returns an upper bound on the squared distance between any point
// of node a in ix and any point of node b in other.
func (ix *Index) MaxDist2(a tree.NodeID, other *Index, b tree.NodeID) float64 {
	return ix.Boxes[a].MaxDist2(other.Boxes[b])
}

// Validate checks the structural invariants an Index must satisfy: a valid
// topology, nesting point ranges that exactly tile each parent's range,
// boxes that contain their points, and a permutation that is a bijection.
func (ix *Index) Validate() error {
	if ix.Topo == nil {
		return errors.New("spatial: nil topology")
	}
	if err := ix.Topo.Validate(); err != nil {
		return err
	}
	n := ix.Topo.Len()
	if len(ix.Boxes) != n || len(ix.Start) != n || len(ix.End) != n {
		return fmt.Errorf("spatial: parallel slices sized %d/%d/%d for %d nodes",
			len(ix.Boxes), len(ix.Start), len(ix.End), n)
	}
	if len(ix.Perm) != len(ix.Points) {
		return fmt.Errorf("spatial: perm len %d != points len %d", len(ix.Perm), len(ix.Points))
	}
	seen := make([]bool, len(ix.Perm))
	for _, p := range ix.Perm {
		if p < 0 || int(p) >= len(seen) || seen[p] {
			return fmt.Errorf("spatial: perm is not a bijection at %d", p)
		}
		seen[p] = true
	}
	if n == 0 {
		if len(ix.Points) != 0 {
			return errors.New("spatial: points without nodes")
		}
		return nil
	}
	root := ix.Topo.Root()
	if ix.Start[root] != 0 || ix.End[root] != int32(len(ix.Points)) {
		return fmt.Errorf("spatial: root range [%d,%d) does not cover %d points",
			ix.Start[root], ix.End[root], len(ix.Points))
	}
	var walk func(id tree.NodeID) error
	walk = func(id tree.NodeID) error {
		s, e := ix.Start[id], ix.End[id]
		if s > e {
			return fmt.Errorf("spatial: node %d has inverted range [%d,%d)", id, s, e)
		}
		if e == s {
			return fmt.Errorf("spatial: node %d owns no points", id)
		}
		for _, p := range ix.Points[s:e] {
			if !ix.Boxes[id].Contains(p) {
				return fmt.Errorf("spatial: node %d box does not contain its point %v", id, p)
			}
		}
		l, r := ix.Topo.Left(id), ix.Topo.Right(id)
		switch {
		case l == tree.Nil && r == tree.Nil:
			return nil
		case l != tree.Nil && r != tree.Nil:
			if ix.Start[l] != s || ix.End[l] != ix.Start[r] || ix.End[r] != e {
				return fmt.Errorf("spatial: node %d children ranges [%d,%d)+[%d,%d) do not tile [%d,%d)",
					id, ix.Start[l], ix.End[l], ix.Start[r], ix.End[r], s, e)
			}
			if err := walk(l); err != nil {
				return err
			}
			return walk(r)
		case l != tree.Nil:
			if ix.Start[l] != s || ix.End[l] != e {
				return fmt.Errorf("spatial: node %d single child does not cover its range", id)
			}
			return walk(l)
		default:
			if ix.Start[r] != s || ix.End[r] != e {
				return fmt.Errorf("spatial: node %d single child does not cover its range", id)
			}
			return walk(r)
		}
	}
	return walk(root)
}

// builder accumulates nodes during top-down construction; shared by the
// kd-tree and vp-tree builders via Construct.
type builder struct {
	tb    *tree.Builder
	boxes []geom.Box
	start []int32
	end   []int32
}

// Partitioner splits the point range [lo, hi) (in permuted order) around a
// pivot mid with lo < mid < hi, rearranging pts/perm in place so the left
// child owns [lo, mid) and the right child owns [mid, hi). Returning lo or
// hi (or any out-of-range mid) makes the node a leaf.
type Partitioner func(pts []geom.Point, perm []int32, lo, hi int32) (mid int32)

// Construct builds an Index over pts using the given partitioner and leaf
// capacity. It copies pts; the caller's slice is not modified.
func Construct(pts []geom.Point, leafSize int, split Partitioner) (*Index, error) {
	if leafSize < 1 {
		return nil, errors.New("spatial: leafSize must be >= 1")
	}
	ix := &Index{
		Points: append([]geom.Point(nil), pts...),
		Perm:   make([]int32, len(pts)),
	}
	for k := range ix.Perm {
		ix.Perm[k] = int32(k)
	}
	b := &builder{tb: tree.NewBuilder(2 * len(pts))}
	var root tree.NodeID = tree.Nil
	if len(pts) > 0 {
		root = b.build(ix, 0, int32(len(pts)), int32(leafSize), split)
	}
	topo, err := b.tb.Build(root)
	if err != nil {
		return nil, err
	}
	ix.Topo = topo
	ix.Boxes, ix.Start, ix.End = b.boxes, b.start, b.end
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

func (b *builder) build(ix *Index, lo, hi, leafSize int32, split Partitioner) tree.NodeID {
	id := b.tb.Add()
	b.boxes = append(b.boxes, geom.BoxOf(ix.Points[lo:hi]))
	b.start = append(b.start, lo)
	b.end = append(b.end, hi)
	if hi-lo > leafSize {
		mid := split(ix.Points, ix.Perm, lo, hi)
		if mid > lo && mid < hi {
			l := b.build(ix, lo, mid, leafSize, split)
			r := b.build(ix, mid, hi, leafSize, split)
			b.tb.SetLeft(id, l)
			b.tb.SetRight(id, r)
		}
	}
	return id
}
