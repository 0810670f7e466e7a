package memsim

import (
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

func BenchmarkReuseAnalyzer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trace := make([]Addr, 1<<16)
	for k := range trace {
		trace[k] = Addr(rng.Intn(1 << 12))
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r := NewReuseAnalyzer()
		for _, a := range trace {
			r.Access(a)
		}
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
