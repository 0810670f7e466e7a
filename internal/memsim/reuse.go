// Package memsim provides the trace-driven memory-hierarchy analysis that
// stands in for the paper's hardware measurements (DESIGN.md §1): an exact
// LRU stack/reuse-distance analyzer (for Fig 5) and a multi-level
// set-associative cache simulator (for Fig 8b and Fig 9b).
//
// Both consume abstract address traces. The schedules under study emit one
// address per tree-node access, produced by a Mapper from the arena node
// index, so the simulated behaviour is a pure function of the schedule — the
// quantity the paper's transformations change.
//
// # Streaming traces
//
// Long traces are fed through the Stream/Sink pipeline rather than
// materialized: each producer goroutine owns one Sink (a fixed ring buffer
// whose Emit is an array store — a Sink is NOT safe for concurrent use) and
// the Stream serializes full batches into its Hierarchy, so memory stays
// O(cache geometry + sinks·batch) regardless of trace length. The ordering
// contract is the foundation of the regression gate (DESIGN.md §4.7): with
// exactly one Sink the simulated access order is the emission order and the
// resulting LevelStats are bit-identical to calling Hierarchy.Access
// directly; with several Sinks batches interleave in completion order
// (merge mode), which simulates every access exactly once but is not
// deterministic. Call Stream.Close after all producers stop to flush
// partial batches; only then do the Hierarchy's Stats cover the full trace.
//
// Telemetry: Hierarchy.Publish and Stream.Publish export per-level
// hit/miss/eviction counters and pipeline counters into an obs.Recorder.
package memsim

// Addr is an abstract memory address (byte-granular).
type Addr uint64

// Infinite is the reuse distance reported for the first access to an address
// (the paper's ∞ entries in §3.2).
const Infinite = -1

// ReuseAnalyzer computes exact LRU stack distances ("reuse distances",
// Mattson et al. [24]) online: for each access, the number of *distinct*
// other addresses touched since the previous access to the same address.
//
// The implementation is the classic Bennett–Kruskal scheme, bounded by the
// distinct addresses rather than the trace length. Each address gets a slot
// on first touch; the slot remembers the position of its last access; a
// Fenwick tree over positions holds a 1 at the most recent position of
// every address, so the stack distance of an access to an address last
// touched at position t0 is the number of ones after t0: Distinct() minus
// the prefix count through t0. Positions are handed out in access order
// from a fixed-capacity tree; when it fills, the live marks are renumbered
// to their ranks (1..Distinct(), order kept, so every later distance is
// unchanged) in a tree of at least twice the distinct count. Memory is
// O(distinct addresses), and each compaction is paid for by the at least
// Distinct() accesses that fill the tree again.
type ReuseAnalyzer struct {
	slot map[Addr]int32 // address → slot, assigned on first touch
	last []int32        // slot → position of its last access (1-based)
	bit  []int32        // Fenwick tree over positions 1..len(bit)-1
	now  int32          // positions handed out since the last compaction
}

// reuseInitCap is the position capacity a new ReuseAnalyzer starts with.
const reuseInitCap = 1 << 10

// NewReuseAnalyzer returns an analyzer with no history.
func NewReuseAnalyzer() *ReuseAnalyzer {
	return &ReuseAnalyzer{slot: make(map[Addr]int32), bit: make([]int32, reuseInitCap+1)}
}

func (r *ReuseAnalyzer) bitAdd(i, v int32) {
	for n := int32(len(r.bit)); i < n; i += i & -i {
		r.bit[i] += v
	}
}

func (r *ReuseAnalyzer) bitSum(i int32) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += r.bit[i]
	}
	return s
}

// Access records an access to a and returns its reuse distance, or Infinite
// if a has never been accessed before.
func (r *ReuseAnalyzer) Access(a Addr) int {
	if int(r.now) == len(r.bit)-1 {
		r.compact()
	}
	r.now++
	t := r.now
	s, ok := r.slot[a]
	if !ok {
		r.slot[a] = int32(len(r.last))
		r.last = append(r.last, t)
		r.bitAdd(t, 1)
		return Infinite
	}
	// Every address holds one mark, all at positions before t, so the
	// marks after t0 are the distinct addresses touched since then.
	t0 := r.last[s]
	d := len(r.last) - int(r.bitSum(t0))
	r.bitAdd(t0, -1)
	r.bitAdd(t, 1)
	r.last[s] = t
	return d
}

// compact renumbers each live mark to its rank among the marks and
// rebuilds the tree with ones at 1..Distinct(), growing it to twice the
// distinct count if it holds less. The ranks come from a prefix count of
// the marked positions, computed in the tree's own array before the
// rebuild overwrites it: O(capacity) sequential work, no tree queries.
func (r *ReuseAnalyzer) compact() {
	clear(r.bit)
	for _, t0 := range r.last {
		r.bit[t0] = 1
	}
	for i := 1; i < len(r.bit); i++ {
		r.bit[i] += r.bit[i-1]
	}
	for s, t0 := range r.last {
		r.last[s] = r.bit[t0]
	}
	live := int32(len(r.last))
	if n := 2 * len(r.last); n > len(r.bit)-1 {
		r.bit = make([]int32, n+1)
	}
	// Node i covers positions (i-lowbit(i), i]; count the ones among them.
	// Nodes past the live count still cover marks below it.
	for i := int32(1); i < int32(len(r.bit)); i++ {
		lo := i - i&-i
		r.bit[i] = max(min(i, live)-lo, 0)
	}
	r.now = live
}

// Distinct reports how many distinct addresses have been accessed so far.
func (r *ReuseAnalyzer) Distinct() int { return len(r.last) }

// Histogram aggregates reuse distances into the CDF the paper plots in Fig 5:
// "percentage of accesses with reuse distance less than r". Counts are kept
// densely by distance — a distance is always below the distinct-address
// count of its trace, so the table is O(distinct addresses) — and every
// summary is an integer sum over it.
type Histogram struct {
	counts   []int64 // counts[d] = accesses at finite distance d
	total    int64
	infinite int64
	max      int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one reuse distance: Infinite for a cold access, otherwise a
// non-negative distance.
func (h *Histogram) Add(d int) {
	h.total++
	if d == Infinite {
		h.infinite++
		return
	}
	if d >= len(h.counts) {
		n := max(d+1, 2*len(h.counts))
		h.counts = append(h.counts, make([]int64, n-len(h.counts))...)
	}
	h.counts[d]++
	if d > h.max {
		h.max = d
	}
}

// Total returns the number of recorded accesses.
func (h *Histogram) Total() int64 { return h.total }

// InfiniteCount returns the number of cold (first-touch) accesses.
func (h *Histogram) InfiniteCount() int64 { return h.infinite }

// CDF returns the fraction of all accesses whose reuse distance is strictly
// less than r. Cold accesses never count (their distance is infinite).
func (h *Histogram) CDF(r int) float64 {
	if h.total == 0 {
		return 0
	}
	var n int64
	for _, c := range h.counts[:max(min(r, len(h.counts)), 0)] {
		n += c
	}
	return float64(n) / float64(h.total)
}

// Series evaluates the CDF at each of rs and returns the fractions; rs is
// typically a log-spaced grid matching the paper's log-scale x axis.
func (h *Histogram) Series(rs []int) []float64 {
	out := make([]float64, len(rs))
	for k, r := range rs {
		out[k] = h.CDF(r)
	}
	return out
}

// Max returns the largest finite distance recorded (0 if none).
func (h *Histogram) Max() int { return h.max }

// Mean returns the mean finite reuse distance (0 if none recorded).
func (h *Histogram) Mean() float64 {
	var sum, n int64
	for d, c := range h.counts {
		sum += int64(d) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
