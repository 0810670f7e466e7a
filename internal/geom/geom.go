// Package geom provides the geometric substrate for the dual-tree n-body
// benchmarks of paper §6: points, Euclidean metrics, axis-aligned bounding
// boxes with min/max box-to-box distances (the pruning rules of Curtin et
// al.'s tree-independent dual-tree framework), and deterministic synthetic
// point generators standing in for the paper's undisclosed inputs.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Dim is the dimensionality of all points in this repository. The paper's
// dual-tree benchmarks are low-dimensional n-body style workloads; we fix
// d=3, which keeps kd-tree pruning effective (the O(n log n) iteration regime
// of paper §4.2) while exercising real multi-dimensional box arithmetic.
const Dim = 3

// Point is a point in Dim-dimensional Euclidean space.
type Point [Dim]float64

// Dist2 returns the squared Euclidean distance between p and q. All pruning
// and neighbor comparisons work in squared distances to avoid sqrt in hot
// loops; distances are exposed to users via math.Sqrt at the boundary.
func Dist2(p, q Point) float64 { return p.Dist2(&q) }

// Dist2 is the squared Euclidean distance from p to q read in place, for
// base-case loops that would otherwise copy two points per pair. It is the
// one definition of the metric, so every caller rounds alike: each square
// is rounded on its own (the conversions forbid fusing a multiply into the
// add) and the sum associates as (dx²+dy²)+dz². Pair counts, neighbor ties
// and vp-tree splits all depend on that rounding.
func (p *Point) Dist2(q *Point) float64 {
	dx, dy, dz := p[0]-q[0], p[1]-q[1], p[2]-q[2]
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// Point.Dist2 spells out three coordinates; this fails to compile if Dim
// changes.
var _ = [1]struct{}{}[Dim-3]

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Sqrt(Dist2(p, q)) }

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max Point
}

// EmptyBox returns a box that contains nothing; Extend-ing it with a point
// yields the degenerate box at that point.
func EmptyBox() Box {
	var b Box
	for d := 0; d < Dim; d++ {
		b.Min[d] = math.Inf(1)
		b.Max[d] = math.Inf(-1)
	}
	return b
}

// Extend grows the box to include p.
func (b *Box) Extend(p Point) {
	for d := 0; d < Dim; d++ {
		if p[d] < b.Min[d] {
			b.Min[d] = p[d]
		}
		if p[d] > b.Max[d] {
			b.Max[d] = p[d]
		}
	}
}

// Union grows the box to include every point of o.
func (b *Box) Union(o Box) {
	b.Extend(o.Min)
	b.Extend(o.Max)
}

// Contains reports whether p lies inside the (closed) box.
func (b Box) Contains(p Point) bool {
	for d := 0; d < Dim; d++ {
		if p[d] < b.Min[d] || p[d] > b.Max[d] {
			return false
		}
	}
	return true
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool { return b.Min[0] > b.Max[0] }

// LongestAxis returns the axis along which the box is widest, and its width.
func (b Box) LongestAxis() (axis int, width float64) {
	for d := 0; d < Dim; d++ {
		if w := b.Max[d] - b.Min[d]; w > width {
			width, axis = w, d
		}
	}
	return axis, width
}

// MinDist2 returns the squared minimum distance between any point of b and
// any point of o (0 if the boxes overlap). This is the lower bound used by
// dual-tree Score functions: if MinDist2 exceeds the search radius/bound, the
// node pair is pruned — the truncateInner2?(o,i) of the paper's template. It
// runs once per visited node pair, so both boxes are read in place.
func (b *Box) MinDist2(o *Box) float64 {
	var s float64
	for d := range Dim {
		var gap float64
		if b.Max[d] < o.Min[d] {
			gap = o.Min[d] - b.Max[d]
		} else if o.Max[d] < b.Min[d] {
			gap = b.Min[d] - o.Max[d]
		}
		s += gap * gap
	}
	return s
}

// MaxDist2 returns the squared maximum distance between any point of b and
// any point of o — the upper bound used to tighten nearest-neighbor bounds.
func (b Box) MaxDist2(o Box) float64 {
	var s float64
	for d := 0; d < Dim; d++ {
		lo := b.Min[d] - o.Max[d]
		hi := b.Max[d] - o.Min[d]
		m := math.Max(math.Abs(lo), math.Abs(hi))
		s += m * m
	}
	return s
}

// MinDistToPoint2 returns the squared minimum distance from the box to p.
func (b Box) MinDistToPoint2(p Point) float64 {
	var s float64
	for d := 0; d < Dim; d++ {
		var gap float64
		if p[d] < b.Min[d] {
			gap = b.Min[d] - p[d]
		} else if p[d] > b.Max[d] {
			gap = p[d] - b.Max[d]
		}
		s += gap * gap
	}
	return s
}

// BoxOf returns the tight bounding box of pts.
func BoxOf(pts []Point) Box {
	b := EmptyBox()
	for _, p := range pts {
		b.Extend(p)
	}
	return b
}

// Distribution selects a synthetic point distribution. The paper does not
// publish its inputs; these generators are the substitution (DESIGN.md §1):
// Uniform gives the worst-case "everything interacts" regime, Clustered gives
// the realistic n-body regime where dual-tree pruning is effective.
type Distribution int

const (
	// Uniform draws points i.i.d. uniform in the unit cube.
	Uniform Distribution = iota
	// Clustered draws points from a mixture of Gaussian blobs whose centers
	// are uniform in the unit cube — the clustered inputs that make
	// point-correlation interesting (paper §6.1: PC "determines how
	// clustered a data set is").
	Clustered
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Clustered:
		return "clustered"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Generate produces n deterministic pseudo-random points for the given
// distribution and seed.
func Generate(dist Distribution, n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	switch dist {
	case Uniform:
		for i := range pts {
			for d := 0; d < Dim; d++ {
				pts[i][d] = rng.Float64()
			}
		}
	case Clustered:
		// ~sqrt(n) clusters with sigma chosen so clusters are tight relative
		// to the unit cube but still overlap occasionally.
		k := int(math.Sqrt(float64(n)))
		if k < 1 {
			k = 1
		}
		centers := make([]Point, k)
		for i := range centers {
			for d := 0; d < Dim; d++ {
				centers[i][d] = rng.Float64()
			}
		}
		const sigma = 0.02
		for i := range pts {
			c := centers[rng.Intn(k)]
			for d := 0; d < Dim; d++ {
				pts[i][d] = c[d] + rng.NormFloat64()*sigma
			}
		}
	default:
		panic(fmt.Sprintf("geom: unknown distribution %d", int(dist)))
	}
	return pts
}
