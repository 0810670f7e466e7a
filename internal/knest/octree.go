package knest

import (
	"errors"

	"twist/internal/geom"
)

// Octree is a space-partitioning tree over 3-D points where each internal
// node splits its box at the center into up to 8 occupied octants — the
// spatial structure of classic n-body codes, and a natural k-ary index
// space for the generalized template (arity varies from 1 to 8 per node).
type Octree struct {
	Topo   *Topology
	Points []geom.Point // permuted: each node's subtree owns a contiguous range
	Boxes  []geom.Box   // tight bounding box per node
	Start  []int32
	End    []int32
}

// BuildOctree constructs an octree over pts with at most leafSize points per
// leaf. Octants with no points produce no child. Splitting stops when all
// points coincide.
func BuildOctree(pts []geom.Point, leafSize int) (*Octree, error) {
	if leafSize < 1 {
		return nil, errors.New("knest: leafSize must be >= 1")
	}
	oc := &Octree{Points: append([]geom.Point(nil), pts...)}
	b := NewBuilder(2 * len(pts))
	var root NodeID = Nil
	if len(pts) > 0 {
		root = oc.build(b, 0, int32(len(pts)), int32(leafSize))
	}
	topo, err := b.Build(root)
	if err != nil {
		return nil, err
	}
	oc.Topo = topo
	if err := oc.validate(); err != nil {
		return nil, err
	}
	return oc, nil
}

// MustBuildOctree is BuildOctree that panics on error.
func MustBuildOctree(pts []geom.Point, leafSize int) *Octree {
	oc, err := BuildOctree(pts, leafSize)
	if err != nil {
		panic(err)
	}
	return oc
}

// octant returns the 3-bit octant index of p relative to center.
func octant(p, center geom.Point) int {
	k := 0
	for d := 0; d < geom.Dim; d++ {
		if p[d] >= center[d] {
			k |= 1 << d
		}
	}
	return k
}

func (oc *Octree) build(b *Builder, lo, hi, leafSize int32) NodeID {
	id := b.Add()
	box := geom.BoxOf(oc.Points[lo:hi])
	oc.Boxes = append(oc.Boxes, box)
	oc.Start = append(oc.Start, lo)
	oc.End = append(oc.End, hi)
	if hi-lo <= leafSize {
		return id
	}
	var center geom.Point
	for d := 0; d < geom.Dim; d++ {
		center[d] = (box.Min[d] + box.Max[d]) / 2
	}
	// Counting sort of the range into octants. Because the box is tight,
	// every non-degenerate dimension separates its min- and max-points into
	// different octants; all points landing in one octant therefore means
	// every dimension is degenerate — the points coincide — and the node
	// stays a leaf. Splits always make progress.
	var counts [8]int32
	for _, p := range oc.Points[lo:hi] {
		counts[octant(p, center)]++
	}
	if counts[octant(oc.Points[lo], center)] == hi-lo {
		return id
	}
	var starts [9]int32
	for k := 0; k < 8; k++ {
		starts[k+1] = starts[k] + counts[k]
	}
	tmp := make([]geom.Point, hi-lo)
	var fill [8]int32
	for _, p := range oc.Points[lo:hi] {
		k := octant(p, center)
		tmp[starts[k]+fill[k]] = p
		fill[k]++
	}
	copy(oc.Points[lo:hi], tmp)
	for k := 0; k < 8; k++ {
		if counts[k] == 0 {
			continue
		}
		cl := lo + starts[k]
		child := oc.build(b, cl, cl+counts[k], leafSize)
		b.AddChild(id, child)
	}
	return id
}

// validate checks ranges, boxes, and child tiling.
func (oc *Octree) validate() error {
	n := oc.Topo.Len()
	if len(oc.Boxes) != n || len(oc.Start) != n || len(oc.End) != n {
		return errors.New("knest: octree parallel slices inconsistent")
	}
	for _, id := range oc.Topo.Preorder(nil) {
		s, e := oc.Start[id], oc.End[id]
		if s >= e {
			return errors.New("knest: octree node owns no points")
		}
		for _, p := range oc.Points[s:e] {
			if !oc.Boxes[id].Contains(p) {
				return errors.New("knest: octree box does not contain its points")
			}
		}
		kids := oc.Topo.Kids(id)
		if len(kids) == 0 {
			continue
		}
		var covered int32
		for _, c := range kids {
			covered += oc.End[c] - oc.Start[c]
		}
		if covered != e-s {
			return errors.New("knest: octree children do not tile parent range")
		}
	}
	return nil
}

// NodePoints returns the points of node n's subtree.
func (oc *Octree) NodePoints(n NodeID) []geom.Point {
	return oc.Points[oc.Start[n]:oc.End[n]]
}

// MinDist2 is the squared minimum box distance between node a of oc and node
// b of other — the dual-tree Score bound.
func (oc *Octree) MinDist2(a NodeID, other *Octree, b NodeID) float64 {
	return oc.Boxes[a].MinDist2(&other.Boxes[b])
}

// PCSpec assembles dual-tree point correlation over two octrees as a k-ary
// nested recursion. count must point at the result accumulator.
func PCSpec(query, ref *Octree, radius float64, count *int64) Spec {
	r2 := radius * radius
	return Spec{
		Outer:      query.Topo,
		Inner:      ref.Topo,
		Hereditary: true,
		TruncInner2: func(o, i NodeID) bool {
			return query.MinDist2(o, ref, i) > r2
		},
		Work: func(o, i NodeID) {
			if !query.Topo.IsLeaf(o) || !ref.Topo.IsLeaf(i) {
				return
			}
			for _, q := range query.NodePoints(o) {
				for _, r := range ref.NodePoints(i) {
					if geom.Dist2(q, r) <= r2 {
						*count++
					}
				}
			}
		},
	}
}
