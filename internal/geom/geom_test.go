package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(rng *rand.Rand, scale float64) Point {
	var p Point
	for d := 0; d < Dim; d++ {
		p[d] = (rng.Float64() - 0.5) * scale
	}
	return p
}

// TestDist2AssociationOrder pins the metric's rounding to the per-axis
// accumulation ((0+dx²)+dy²)+dz² of rounded squares, bit for bit, in both
// the value and the in-place form: pair counts, neighbor ties and vp-tree
// splits all depend on it.
func TestDist2AssociationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 20000; k++ {
		p, q := randPoint(rng, math.Pow(10, float64(rng.Intn(9)-4))), randPoint(rng, 1)
		var want float64
		for d := 0; d < Dim; d++ {
			diff := p[d] - q[d]
			want += float64(diff * diff)
		}
		if got := Dist2(p, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dist2(%v, %v) = %v, per-axis sum %v", p, q, got, want)
		}
		if got := p.Dist2(&q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("(%v).Dist2(%v) = %v, per-axis sum %v", p, q, got, want)
		}
	}
}

func TestDistSymmetricAndNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		p, q := randPoint(rng, 10), randPoint(rng, 10)
		if Dist2(p, q) < 0 {
			t.Fatalf("negative squared distance for %v %v", p, q)
		}
		if Dist2(p, q) != Dist2(q, p) {
			t.Fatalf("asymmetric distance for %v %v", p, q)
		}
		if Dist2(p, p) != 0 {
			t.Fatalf("Dist2(p,p) = %v", Dist2(p, p))
		}
		if got, want := Dist(p, q), math.Sqrt(Dist2(p, q)); got != want {
			t.Fatalf("Dist=%v, sqrt(Dist2)=%v", got, want)
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(a, b, c [Dim]float64) bool {
		p, q, r := Point(a), Point(b), Point(c)
		return Dist(p, r) <= Dist(p, q)+Dist(q, r)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxExtendContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = randPoint(rng, 5)
	}
	b := BoxOf(pts)
	for _, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("box %v does not contain member point %v", b, p)
		}
	}
}

func TestEmptyBox(t *testing.T) {
	b := EmptyBox()
	if !b.Empty() {
		t.Fatal("EmptyBox not Empty")
	}
	if b.Contains(Point{}) {
		t.Fatal("empty box contains the origin")
	}
	b.Extend(Point{1, 2, 3})
	if b.Empty() {
		t.Fatal("extended box still empty")
	}
	if b.Min != (Point{1, 2, 3}) || b.Max != (Point{1, 2, 3}) {
		t.Fatalf("degenerate box = %v", b)
	}
}

func TestBoxUnion(t *testing.T) {
	a := BoxOf([]Point{{0, 0, 0}, {1, 1, 1}})
	b := BoxOf([]Point{{2, -1, 0.5}})
	a.Union(b)
	for _, p := range []Point{{0, 0, 0}, {1, 1, 1}, {2, -1, 0.5}} {
		if !a.Contains(p) {
			t.Fatalf("union missing %v", p)
		}
	}
}

// The central soundness property for dual-tree pruning: for any two point
// sets, MinDist2 of their boxes lower-bounds and MaxDist2 upper-bounds every
// cross pair distance.
func TestMinMaxDistBoundEveryPair(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		na, nb := 1+rng.Intn(20), 1+rng.Intn(20)
		as := make([]Point, na)
		bs := make([]Point, nb)
		for i := range as {
			as[i] = randPoint(rng, 4)
		}
		for i := range bs {
			bs[i] = randPoint(rng, 4)
		}
		ba, bb := BoxOf(as), BoxOf(bs)
		lo, hi := ba.MinDist2(&bb), ba.MaxDist2(bb)
		for _, p := range as {
			for _, q := range bs {
				d := Dist2(p, q)
				if d < lo-1e-12 {
					t.Fatalf("pair dist2 %v below box MinDist2 %v", d, lo)
				}
				if d > hi+1e-12 {
					t.Fatalf("pair dist2 %v above box MaxDist2 %v", d, hi)
				}
			}
		}
	}
}

func TestMinDistOverlappingBoxesIsZero(t *testing.T) {
	a := BoxOf([]Point{{0, 0, 0}, {2, 2, 2}})
	b := BoxOf([]Point{{1, 1, 1}, {3, 3, 3}})
	if got := a.MinDist2(&b); got != 0 {
		t.Fatalf("overlapping MinDist2 = %v", got)
	}
	if got := a.MinDist2(&a); got != 0 {
		t.Fatalf("self MinDist2 = %v", got)
	}
}

func TestMinDistDisjointBoxes(t *testing.T) {
	a := BoxOf([]Point{{0, 0, 0}, {1, 1, 1}})
	b := BoxOf([]Point{{4, 0, 0}, {5, 1, 1}})
	if got, want := a.MinDist2(&b), 9.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MinDist2 = %v, want %v", got, want)
	}
	// Symmetric.
	if a.MinDist2(&b) != b.MinDist2(&a) {
		t.Fatal("MinDist2 not symmetric")
	}
}

func TestMinDistToPoint(t *testing.T) {
	b := BoxOf([]Point{{0, 0, 0}, {1, 1, 1}})
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{0.5, 0.5, 0.5}, 0},
		{Point{2, 0.5, 0.5}, 1},
		{Point{2, 2, 0.5}, 2},
		{Point{-1, -1, -1}, 3},
	}
	for _, c := range cases {
		if got := b.MinDistToPoint2(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("MinDistToPoint2(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLongestAxis(t *testing.T) {
	b := BoxOf([]Point{{0, 0, 0}, {1, 3, 2}})
	axis, width := b.LongestAxis()
	if axis != 1 || width != 3 {
		t.Fatalf("LongestAxis = %d,%v; want 1,3", axis, width)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Clustered} {
		a := Generate(dist, 100, 99)
		b := Generate(dist, 100, 99)
		if len(a) != 100 || len(b) != 100 {
			t.Fatalf("%v: wrong lengths %d %d", dist, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: nondeterministic at %d: %v vs %v", dist, i, a[i], b[i])
			}
		}
		c := Generate(dist, 100, 100)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v: different seeds produced identical points", dist)
		}
	}
}

func TestGenerateUniformInUnitCube(t *testing.T) {
	for _, p := range Generate(Uniform, 1000, 5) {
		for d := 0; d < Dim; d++ {
			if p[d] < 0 || p[d] >= 1 {
				t.Fatalf("uniform point %v outside unit cube", p)
			}
		}
	}
}

func TestClusteredIsActuallyClustered(t *testing.T) {
	// Mean nearest-neighbor distance of clustered points should be well
	// below that of uniform points at the same n.
	mean := func(pts []Point) float64 {
		var sum float64
		for i, p := range pts {
			best := math.Inf(1)
			for j, q := range pts {
				if i == j {
					continue
				}
				if d := Dist2(p, q); d < best {
					best = d
				}
			}
			sum += math.Sqrt(best)
		}
		return sum / float64(len(pts))
	}
	u := mean(Generate(Uniform, 400, 7))
	c := mean(Generate(Clustered, 400, 7))
	if c >= u {
		t.Fatalf("clustered NN distance %v not below uniform %v", c, u)
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Clustered.String() != "clustered" {
		t.Fatal("Distribution.String mismatch")
	}
	if Distribution(42).String() == "" {
		t.Fatal("unknown distribution has empty String")
	}
}
