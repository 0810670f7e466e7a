package memsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveReuse is the O(n²) reference: distinct addresses between consecutive
// accesses to the same address.
func naiveReuse(trace []Addr) []int {
	out := make([]int, len(trace))
	last := map[Addr]int{}
	for k, a := range trace {
		if t0, ok := last[a]; ok {
			distinct := map[Addr]bool{}
			for _, b := range trace[t0+1 : k] {
				distinct[b] = true
			}
			out[k] = len(distinct)
		} else {
			out[k] = Infinite
		}
		last[a] = k
	}
	return out
}

func TestReuseAnalyzerSmallSequences(t *testing.T) {
	cases := []struct {
		trace []Addr
		want  []int
	}{
		{[]Addr{1}, []int{Infinite}},
		{[]Addr{1, 1}, []int{Infinite, 0}},
		{[]Addr{1, 2, 1}, []int{Infinite, Infinite, 1}},
		{[]Addr{1, 2, 3, 1, 2, 3}, []int{Infinite, Infinite, Infinite, 2, 2, 2}},
		{[]Addr{1, 2, 2, 2, 1}, []int{Infinite, Infinite, 0, 0, 1}},
		{[]Addr{5, 4, 3, 4, 5}, []int{Infinite, Infinite, Infinite, 1, 2}},
	}
	for _, c := range cases {
		r := NewReuseAnalyzer()
		for k, a := range c.trace {
			if got := r.Access(a); got != c.want[k] {
				t.Fatalf("trace %v access %d: got %d, want %d", c.trace, k, got, c.want[k])
			}
		}
	}
}

func TestReuseAnalyzerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(400)
		alphabet := 1 + rng.Intn(30)
		trace := make([]Addr, n)
		for k := range trace {
			trace[k] = Addr(rng.Intn(alphabet))
		}
		want := naiveReuse(trace)
		r := NewReuseAnalyzer()
		for k, a := range trace {
			if got := r.Access(a); got != want[k] {
				t.Fatalf("trial %d access %d (addr %d): got %d, want %d", trial, k, a, got, want[k])
			}
		}
		if r.Distinct() > alphabet {
			t.Fatalf("Distinct=%d > alphabet %d", r.Distinct(), alphabet)
		}
	}
}

// growingReuse is the unbounded Bennett–Kruskal analyzer the compacting
// ReuseAnalyzer replaced, kept as a reference: a map from address to last
// access time and a Fenwick tree grown by one slot per access, so its
// memory is O(trace length) but it never renumbers anything.
type growingReuse struct {
	last map[Addr]int
	bit  []int
	time int
}

func newGrowingReuse() *growingReuse {
	return &growingReuse{last: make(map[Addr]int), bit: make([]int, 1)}
}

func (r *growingReuse) sum(i int) int {
	s := 0
	for ; i > 0; i -= i & -i {
		s += r.bit[i]
	}
	return s
}

func (r *growingReuse) add(i, v int) {
	for ; i < len(r.bit); i += i & -i {
		r.bit[i] += v
	}
}

func (r *growingReuse) Access(a Addr) int {
	r.time++
	t := r.time
	lb := t & -t
	r.bit = append(r.bit, r.sum(t-1)-r.sum(t-lb))
	d := Infinite
	if t0, ok := r.last[a]; ok {
		d = r.sum(t-1) - r.sum(t0)
		r.add(t0, -1)
	}
	r.last[a] = t
	r.add(t, 1)
	return d
}

// TestReuseAnalyzerMatchesGrowingAcrossCompactions drives the analyzer
// through many compactions and tree growths: long seeded traces (10³ to
// 3·10⁵ accesses) over alphabets of 1 to 2¹⁶ addresses spread across
// several 1 GiB regions, drawn uniformly, as cyclic sweeps (every reuse at
// the largest distance) and as a local random walk. Every distance must
// equal the growing reference analyzer's.
func TestReuseAnalyzerMatchesGrowingAcrossCompactions(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	lengths := []int{1_000, 5_000, 40_000, 300_000}
	alphabets := []int{1, 2, 37, 1_000, 1 << 12, 1 << 16}
	for trial := 0; trial < 12; trial++ {
		n := lengths[trial%len(lengths)]
		alpha := alphabets[trial%len(alphabets)]
		regions := 1 + rng.Intn(4)
		addr := func(k int) Addr {
			return Addr(1+k%regions)<<30 | Addr(k/regions)*64
		}
		r, ref := NewReuseAnalyzer(), newGrowingReuse()
		walk := 0
		for k := 0; k < n; k++ {
			var x int
			switch trial % 3 {
			case 0:
				x = rng.Intn(alpha)
			case 1:
				x = k % alpha
			default:
				walk = (walk + alpha + rng.Intn(9) - 4) % alpha
				x = walk
			}
			a := addr(x)
			if got, want := r.Access(a), ref.Access(a); got != want {
				t.Fatalf("trial %d (n=%d, alphabet %d, %d regions) access %d (addr %#x): got %d, want %d",
					trial, n, alpha, regions, k, a, got, want)
			}
		}
		if r.Distinct() != len(ref.last) {
			t.Fatalf("trial %d: Distinct=%d, reference %d", trial, r.Distinct(), len(ref.last))
		}
	}
}

// The analyzer's memory is O(distinct addresses), not O(trace length):
// after 10⁶ accesses over 10³ addresses the Fenwick tree must still fit in
// four times the distinct count plus its initial capacity.
func TestReuseAnalyzerBoundedByDistinct(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	r := NewReuseAnalyzer()
	for k := 0; k < 1_000_000; k++ {
		r.Access(Addr(rng.Intn(1000)) * 64)
	}
	if limit := 4*r.Distinct() + reuseInitCap; len(r.bit) > limit+1 {
		t.Fatalf("Fenwick tree has %d positions after 10⁶ accesses over %d addresses, want at most %d",
			len(r.bit)-1, r.Distinct(), limit)
	}
}

// Property: reuse distance is always in [0, distinct-1] for non-first
// accesses, and a repeat access immediately after has distance 0.
func TestQuickReuseBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		r := NewReuseAnalyzer()
		seen := map[Addr]bool{}
		for _, b := range raw {
			a := Addr(b % 16)
			d := r.Access(a)
			if seen[a] {
				if d < 0 || d >= len(seen) {
					return false
				}
			} else if d != Infinite {
				return false
			}
			seen[a] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for _, d := range []int{Infinite, 0, 1, 1, 5, 100} {
		h.Add(d)
	}
	if h.Total() != 6 || h.InfiniteCount() != 1 {
		t.Fatalf("total=%d inf=%d", h.Total(), h.InfiniteCount())
	}
	if got := h.CDF(0); got != 0 {
		t.Fatalf("CDF(0)=%v", got)
	}
	if got := h.CDF(1); got != 1.0/6 {
		t.Fatalf("CDF(1)=%v", got)
	}
	if got := h.CDF(2); got != 3.0/6 {
		t.Fatalf("CDF(2)=%v", got)
	}
	if got := h.CDF(1000); got != 5.0/6 { // infinite access never counts
		t.Fatalf("CDF(1000)=%v", got)
	}
	if h.Max() != 100 {
		t.Fatalf("Max=%d", h.Max())
	}
	if got, want := h.Mean(), (0.0+1+1+5+100)/5; got != want {
		t.Fatalf("Mean=%v want %v", got, want)
	}
	s := h.Series([]int{1, 2, 1000})
	if s[0] != 1.0/6 || s[1] != 3.0/6 || s[2] != 5.0/6 {
		t.Fatalf("Series=%v", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.CDF(10) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

// --- cache simulator -------------------------------------------------------

func tiny(ways, lines int) CacheConfig {
	return CacheConfig{Name: "T", SizeBytes: lines * 64, LineBytes: 64, Ways: ways}
}

// mustHierarchy builds a sequential hierarchy for a geometry known valid.
func mustHierarchy(cfgs ...CacheConfig) *Hierarchy {
	h, err := newHierarchy(cfgs...)
	if err != nil {
		panic(err)
	}
	return h
}

func TestCacheHitOnRepeat(t *testing.T) {
	h := mustHierarchy(tiny(2, 4))
	h.Access(0)
	h.Access(0)
	s := h.Stats()[0]
	if s.Accesses != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
}

func TestCacheSameLineDifferentBytes(t *testing.T) {
	h := mustHierarchy(tiny(2, 4))
	h.Access(0)
	h.Access(63) // same 64B line
	h.Access(64) // next line
	s := h.Stats()[0]
	if s.Misses != 2 {
		t.Fatalf("misses = %d, want 2", s.Misses)
	}
}

// LRU within a set: a 2-way set holding lines A,B evicts A when C arrives;
// touching A again misses, but B... was evicted by A's refill. Classic LRU
// sequence check.
func TestCacheLRUWithinSet(t *testing.T) {
	// 2 ways, 2 sets; lines 0,2,4 all map to set 0 (line index mod 2).
	h := mustHierarchy(tiny(2, 4))
	a, b, c := Addr(0), Addr(2*64), Addr(4*64)
	h.Access(a) // miss, set0: [a]
	h.Access(b) // miss, set0: [b,a]
	h.Access(a) // hit,  set0: [a,b]
	h.Access(c) // miss, evict b (LRU), set0: [c,a]
	h.Access(a) // hit
	h.Access(b) // miss (was evicted)
	s := h.Stats()[0]
	if s.Accesses != 6 || s.Misses != 4 {
		t.Fatalf("stats = %+v; want 6 accesses, 4 misses", s)
	}
}

func TestWorkingSetFitsLevel(t *testing.T) {
	h := mustHierarchy(
		CacheConfig{Name: "L1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 4},
		CacheConfig{Name: "L2", SizeBytes: 8 << 10, LineBytes: 64, Ways: 8},
	)
	// Working set of 32 lines = 2 KiB: exceeds L1 (16 lines), fits L2.
	const lines = 32
	for pass := 0; pass < 50; pass++ {
		for k := 0; k < lines; k++ {
			h.Access(Addr(k * 64))
		}
	}
	st := h.Stats()
	l1, l2 := st[0], st[1]
	if l1.MissRate() < 0.9 {
		t.Fatalf("L1 miss rate %v; cyclic overflow under LRU should thrash", l1.MissRate())
	}
	// L2 sees the L1 misses; after the first pass everything hits there.
	if l2.MissRate() > 0.05 {
		t.Fatalf("L2 miss rate %v; working set fits L2", l2.MissRate())
	}
}

func TestHierarchyDescendsOnMiss(t *testing.T) {
	h := mustHierarchy(tiny(2, 4), tiny(4, 16))
	h.Access(0)
	st := h.Stats()
	if st[0].Accesses != 1 || st[1].Accesses != 1 {
		t.Fatalf("stats = %+v; cold miss must reach both levels", st)
	}
	h.Access(0)
	st = h.Stats()
	if st[1].Accesses != 1 {
		t.Fatalf("L1 hit leaked to L2: %+v", st)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := mustHierarchy(tiny(2, 4))
	h.Access(0)
	h.Reset()
	st := h.Stats()[0]
	if st.Accesses != 0 || st.Misses != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	h.Access(0)
	if h.Stats()[0].Misses != 1 {
		t.Fatal("reset did not clear contents")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{Name: "neg", SizeBytes: -1, LineBytes: 64, Ways: 2},
		{Name: "line", SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{Name: "ways", SizeBytes: 64, LineBytes: 64, Ways: 2},
		{Name: "sets", SizeBytes: 3 * 64, LineBytes: 64, Ways: 1},
	}
	for _, c := range bad {
		if _, err := newHierarchy(c); err == nil {
			t.Fatalf("config %q accepted", c.Name)
		}
	}
	if _, err := newHierarchy(); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
	if _, err := newHierarchy(tiny(2, 4), CacheConfig{Name: "L2", SizeBytes: 4096, LineBytes: 128, Ways: 2}); err == nil {
		t.Fatal("mixed line sizes accepted")
	}
}

func TestDefaultHierarchyGeometry(t *testing.T) {
	h := mustHierarchy(DefaultLevels()...)
	st := h.Stats()
	if len(st) != 3 || st[0].Name != "L1" || st[2].Name != "L3" {
		t.Fatalf("default levels = %+v", st)
	}
}

func TestMapperDisjoint(t *testing.T) {
	ms := DisjointMappers(3, 64)
	if ms[0].Addr(1<<20) >= ms[1].Addr(0) {
		t.Fatal("tree 0 range overlaps tree 1")
	}
	if ms[1].Addr(5)-ms[1].Addr(4) != 64 {
		t.Fatal("stride not honored")
	}
}

func TestRemapper(t *testing.T) {
	m := Remapper{Base: 1 << 30, Stride: 32, Perm: []int32{2, 0, 1}}
	for id, slot := range m.Perm {
		if got, want := m.Addr(int32(id)), Addr(1<<30)+Addr(slot)*32; got != want {
			t.Fatalf("Addr(%d) = %#x, want %#x", id, got, want)
		}
	}
	ident := Remapper{Base: 1 << 30, Stride: 64}
	if ident.Addr(7) != (Mapper{Base: 1 << 30, Stride: 64}).Addr(7) {
		t.Fatal("nil-perm Remapper disagrees with Mapper")
	}
}

// Simulated LRU miss counts must agree with reuse-distance theory for a
// fully-associative cache: an access misses iff its reuse distance (in
// lines) is >= capacity. We emulate full associativity with a 1-set config.
func TestCacheAgreesWithStackDistance(t *testing.T) {
	const ways = 8
	h := mustHierarchy(CacheConfig{Name: "FA", SizeBytes: ways * 64, LineBytes: 64, Ways: ways})
	r := NewReuseAnalyzer()
	rng := rand.New(rand.NewSource(9))
	var wantMisses int64
	for k := 0; k < 5000; k++ {
		line := Addr(rng.Intn(32))
		d := r.Access(line)
		if d == Infinite || d >= ways {
			wantMisses++
		}
		h.Access(line * 64)
	}
	if got := h.Stats()[0].Misses; got != wantMisses {
		t.Fatalf("simulator misses %d, stack-distance theory %d", got, wantMisses)
	}
}

// BenchmarkReuseAnalyzer times whole traces of uniform draws from 2¹²
// addresses; the 2²⁰-access case reaches many compactions, so a cost that
// grows with trace length rather than distinct addresses shows in ns/access
// and B/op.
func BenchmarkReuseAnalyzer(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("accesses=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			trace := make([]Addr, n)
			for k := range trace {
				trace[k] = Addr(rng.Intn(1 << 12))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				r := NewReuseAnalyzer()
				for _, a := range trace {
					r.Access(a)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/access")
		})
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := mustHierarchy(DefaultLevels()...)
	rng := rand.New(rand.NewSource(1))
	trace := make([]Addr, 1<<16)
	for k := range trace {
		trace[k] = Addr(rng.Intn(1<<22)) &^ 63
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, a := range trace {
			h.Access(a)
		}
	}
}
