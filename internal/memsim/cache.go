package memsim

import (
	"fmt"
	"math/bits"

	"twist/internal/obs"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
}

func (c CacheConfig) validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("memsim: %s: sizes and ways must be positive", c.Name)
	}
	if bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("memsim: %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("memsim: %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets == 0 {
		return fmt.Errorf("memsim: %s: fewer lines (%d) than ways (%d)", c.Name, lines, c.Ways)
	}
	if sets*c.Ways != lines {
		return fmt.Errorf("memsim: %s: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("memsim: %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// LevelStats is the per-level outcome of a simulation. Accesses - Misses is
// the hit count; Evictions counts misses that displaced a resident line
// (capacity/conflict replacement), so Misses - Evictions is the number of
// cold installs into empty ways.
type LevelStats struct {
	Name      string
	Accesses  int64
	Misses    int64
	Evictions int64
}

// MissRate returns Misses/Accesses (0 for an untouched level). This is the
// quantity plotted in Fig 8(b) and Fig 9(b): the local miss rate of each
// level over the accesses that reach it.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// level is one set-associative true-LRU cache level.
type level struct {
	name      string
	lineShift uint
	setMask   uint64
	ways      int
	// tags[set*ways : (set+1)*ways] ordered most- to least-recently used;
	// zero means empty (tag 0 is reserved by biasing real tags by +1).
	tags      []uint64
	accesses  int64
	misses    int64
	evictions int64
}

func newLevel(c CacheConfig) *level {
	sets := c.SizeBytes / c.LineBytes / c.Ways
	return &level{
		name:      c.Name,
		lineShift: uint(bits.TrailingZeros(uint(c.LineBytes))),
		setMask:   uint64(sets - 1),
		ways:      c.Ways,
		tags:      make([]uint64, sets*c.Ways),
	}
}

// access probes the level with a line-aligned address and reports a hit. On
// a miss the line is installed (allocate-on-miss), evicting the LRU way.
func (l *level) access(line uint64) bool {
	l.accesses++
	set := int(line & l.setMask)
	tag := line + 1 // bias so 0 marks an empty way
	ws := l.tags[set*l.ways : (set+1)*l.ways]
	for k, t := range ws {
		if t == tag {
			copy(ws[1:k+1], ws[:k]) // move to MRU position
			ws[0] = tag
			return true
		}
	}
	l.misses++
	if ws[l.ways-1] != 0 {
		l.evictions++
	}
	copy(ws[1:], ws[:l.ways-1])
	ws[0] = tag
	return false
}

// Hierarchy is a multi-level cache: an access probes L1 first and descends
// on miss, installing the line at every level it missed in (a simple
// mostly-inclusive model, adequate for the miss-rate *shape* comparisons the
// paper makes — see DESIGN.md §1).
type Hierarchy struct {
	levels []*level
}

// newHierarchy builds a hierarchy from the given level configs, ordered from
// closest (L1) to farthest (LLC): the simulator behind New.
func newHierarchy(cfgs ...CacheConfig) (*Hierarchy, error) {
	if err := validateLevels(cfgs); err != nil {
		return nil, err
	}
	h := &Hierarchy{}
	for _, c := range cfgs {
		h.levels = append(h.levels, newLevel(c))
	}
	return h, nil
}

// validateLevels checks cfgs as a hierarchy — at least one level, each a
// valid power-of-two geometry, one line size throughout — without
// allocating any level's tag array.
func validateLevels(cfgs []CacheConfig) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("memsim: hierarchy needs at least one level")
	}
	line := cfgs[0].LineBytes
	for _, c := range cfgs {
		if err := c.validate(); err != nil {
			return err
		}
		if c.LineBytes != line {
			return fmt.Errorf("memsim: mixed line sizes %d and %d", line, c.LineBytes)
		}
	}
	return nil
}

// DefaultLevels returns the scaled three-level hierarchy used throughout the
// evaluation: 32K/8-way L1 and 256K/8-way L2 matching the paper's Xeon, and
// a 2M/16-way LLC scaled down from the paper's 20M so that the paper's
// "working set exceeds the LLC" regime is reached at laptop-scale inputs
// (the substitution documented in DESIGN.md §1).
func DefaultLevels() []CacheConfig {
	return []CacheConfig{
		{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		{Name: "L3", SizeBytes: 2 << 20, LineBytes: 64, Ways: 16},
	}
}

// Access simulates one load of the byte at a.
func (h *Hierarchy) Access(a Addr) {
	line := uint64(a) >> h.levels[0].lineShift
	for _, l := range h.levels {
		if l.access(line) {
			return
		}
	}
}

// AccessBatch simulates the loads of as in order. It is the consumption
// side of the streaming trace pipeline (see Stream): batching amortizes the
// Stream's lock over thousands of accesses.
func (h *Hierarchy) AccessBatch(as []Addr) {
	for _, a := range as {
		h.Access(a)
	}
}

// Stats returns the per-level statistics, L1 first.
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for k, l := range h.levels {
		out[k] = LevelStats{Name: l.name, Accesses: l.accesses, Misses: l.misses, Evictions: l.evictions}
	}
	return out
}

// Reset clears contents and statistics, keeping the geometry.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		for k := range l.tags {
			l.tags[k] = 0
		}
		l.accesses, l.misses, l.evictions = 0, 0, 0
	}
}

// ResetStats clears the counters but keeps cache contents. Run a warmup pass
// of a trace, call ResetStats, and replay to measure steady-state miss rates
// without cold-start compulsory misses — the regime hardware counters see on
// a long-running program.
func (h *Hierarchy) ResetStats() {
	for _, l := range h.levels {
		l.accesses, l.misses, l.evictions = 0, 0, 0
	}
}

// Publish emits the hierarchy's per-level counters into r under
// prefix.<level>.{accesses,hits,misses,evictions} — the memsim half of the
// observability layer (internal/obs). Call it after a simulation completes;
// like Stats, it reads the counters without clearing them.
func (h *Hierarchy) Publish(r obs.Recorder, prefix string) {
	if r == nil {
		return
	}
	for _, s := range h.Stats() {
		p := prefix + "." + s.Name
		r.Count(p+".accesses", s.Accesses)
		r.Count(p+".hits", s.Accesses-s.Misses)
		r.Count(p+".misses", s.Misses)
		r.Count(p+".evictions", s.Evictions)
	}
}

// Close implements Simulator; the hierarchy holds no background resources,
// so it is a no-op.
func (h *Hierarchy) Close() {}

// Mapper assigns addresses to arena tree nodes: node k of the tree lives at
// Base + k*Stride. With Stride 64 (one line per node) the simulation is the
// pure temporal-locality study of the paper's §3.2, where work(o, i) touches
// exactly node o and node i; smaller strides add spatial sharing between
// preorder-adjacent nodes (an ablation; see DESIGN.md §4.5).
type Mapper struct {
	Base   Addr
	Stride Addr
}

// Addr returns the address of node id.
func (m Mapper) Addr(id int32) Addr { return m.Base + Addr(id)*m.Stride }

// DisjointMappers returns n mappers with address ranges spaced far apart, so
// distinct trees never alias (each tree gets a 1 GiB region).
func DisjointMappers(n int, stride Addr) []Mapper {
	out := make([]Mapper, n)
	for k := range out {
		out[k] = Mapper{Base: Addr(k+1) << 30, Stride: stride}
	}
	return out
}

// Remapper is a Mapper composed with an old→new storage-slot permutation:
// node id lives at Base + Perm[id]*Stride (Base + id*Stride when Perm is
// nil). It is the address-generation form of an arena repacking pass
// (internal/layout): the traversal keeps emitting node IDs, and the
// Remapper realizes whatever packing the layout chose — which is equivalent
// to physically rebuilding the arena, because simulated addresses are the
// only observable the cache model has (DESIGN.md §4.12).
type Remapper struct {
	Base   Addr
	Stride Addr
	Perm   []int32 // old→new slot table; nil = identity
}

// Addr returns the address of node id under the permuted packing.
func (r Remapper) Addr(id int32) Addr {
	if r.Perm != nil {
		id = r.Perm[id]
	}
	return r.Base + Addr(id)*r.Stride
}
