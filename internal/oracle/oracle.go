// Package oracle is the semantic-equivalence backstop for the paper's
// schedule transformations: it decides, for any reordered execution of a
// nested recursive iteration space, whether that execution was a *legal
// permutation* of the baseline recursion — and when it was not, it says
// where, with a minimized counterexample.
//
// The model (DESIGN.md §4.9) follows the paper's §3.3 soundness argument.
// A golden Trace captures the baseline (Original, Fig 2) schedule of a
// nest.Spec whose truncation predicates are pure functions of the node pair:
// the multiset of visited (o, i) pairs, and, per outer node o, the order in
// which o's column visits its inner nodes. Every legal schedule — interchange,
// twisting, truncated twisting, either truncation-flag representation, the
// §4.2 subtree cut, and any parallel decomposition of the outer tree — must
// then replay exactly that multiset, keeping each column's internal order
// (inner-tree preorder) intact, with each column confined to one worker.
// Checks verify all three properties and nothing else: the *placement* of
// truncation-flag operations legitimately differs across schedules and is
// deliberately outside the verdict (it is carried in the Trace only as a
// fixture digest).
//
// Statefully adaptive truncation (nearest-neighbor bounds that tighten as
// work runs) makes the visit multiset schedule-dependent; Capture detects
// such specs by running the baseline twice and refuses them. Workloads
// expose a purified spec via Instance.OracleSpec.
package oracle

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"twist/internal/nest"
	"twist/internal/tree"
)

// Visit is one executed iteration (o, i) of a nested recursive space.
type Visit struct {
	O, I tree.NodeID
}

// String implements fmt.Stringer.
func (v Visit) String() string { return fmt.Sprintf("(o=%d,i=%d)", v.O, v.I) }

// Trace is a golden trace of the baseline schedule.
type Trace struct {
	// Seq is the baseline visit sequence in execution order.
	Seq []Visit

	// Truncs records each (o, i) at which the truncation predicate fired
	// during the baseline run, in execution order. Transformed schedules
	// legitimately make truncation decisions at different pairs (region
	// flags, subtree cuts), so Truncs contributes to fixture digests but
	// never to an equivalence verdict.
	Truncs []Visit

	counts map[Visit]int32
	cols   map[tree.NodeID][]tree.NodeID
}

func newTrace() *Trace {
	return &Trace{
		counts: make(map[Visit]int32),
		cols:   make(map[tree.NodeID][]tree.NodeID),
	}
}

func (g *Trace) addVisit(o, i tree.NodeID) {
	v := Visit{o, i}
	g.Seq = append(g.Seq, v)
	g.counts[v]++
	g.cols[o] = append(g.cols[o], i)
}

// Visits reports the number of visits in the trace.
func (g *Trace) Visits() int { return len(g.Seq) }

// Columns reports the number of distinct outer nodes visited.
func (g *Trace) Columns() int { return len(g.cols) }

// splitmix64's finalizer: the bijective mixer behind all trace digests.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func visitKey(v Visit) uint64 {
	return uint64(uint32(v.O))<<32 | uint64(uint32(v.I))
}

// Digest is an order-independent hash of the visit multiset: any permutation
// of the same visits produces the same value.
func (g *Trace) Digest() uint64 {
	h := mix64(uint64(len(g.Seq)) + 0x9e3779b97f4a7c15)
	for _, v := range g.Seq {
		h += mix64(visitKey(v) + 0x9e3779b97f4a7c15)
	}
	return h
}

// ColumnDigest hashes the per-column visit orders: independent of the order
// in which columns were interleaved, but sensitive to any reordering of
// visits within one column.
func (g *Trace) ColumnDigest() uint64 {
	var h uint64
	for o, is := range g.cols {
		ch := uint64(14695981039346656037)
		for _, i := range is {
			ch = (ch ^ uint64(uint32(i))) * 1099511628211
		}
		h += mix64(uint64(uint32(o)) ^ ch)
	}
	return h
}

// TruncDigest is an order-independent hash of the truncation-decision
// multiset (fixture identity only; see Trace.Truncs).
func (g *Trace) TruncDigest() uint64 {
	h := mix64(uint64(len(g.Truncs)) + 0x9e3779b97f4a7c15)
	for _, v := range g.Truncs {
		h += mix64(visitKey(v) + 0x6a09e667f3bcc909)
	}
	return h
}

// FromSequence builds a Trace from an externally captured visit sequence —
// generated code executed out of process, a replayed log.
func FromSequence(seq []Visit) *Trace {
	g := newTrace()
	for _, v := range seq {
		g.addVisit(v.O, v.I)
	}
	return g
}

// Capture runs the baseline (Original) schedule of s and returns its golden
// trace. The spec's Work is replaced by the recorder — workload state is
// never mutated — so the truncation predicates must be pure functions of the
// node pair; Capture runs the baseline twice and reports an error if the two
// runs diverge (a stateful predicate). Use workloads.Instance.OracleSpec to
// purify the adaptive benchmarks first.
func Capture(s nest.Spec) (*Trace, error) {
	if s.Outer == nil || s.Inner == nil {
		return nil, errors.New("oracle: Spec.Outer and Spec.Inner must be non-nil")
	}
	return CaptureFrom(s, s.Outer.Root(), s.Inner.Root())
}

// CaptureFrom is Capture restricted to the sub-space rooted at outer node o
// and inner node i; it is the building block counterexample minimization
// descends with.
func CaptureFrom(s nest.Spec, o, i tree.NodeID) (*Trace, error) {
	a, err := captureOnce(s, o, i)
	if err != nil {
		return nil, err
	}
	b, err := captureOnce(s, o, i)
	if err != nil {
		return nil, err
	}
	if a.Digest() != b.Digest() || a.ColumnDigest() != b.ColumnDigest() || a.TruncDigest() != b.TruncDigest() {
		return nil, fmt.Errorf("oracle: truncation predicates are stateful — two identical baseline runs diverge (%d vs %d visits, %d vs %d truncations); freeze the adaptive state first (DESIGN.md §4.9)",
			len(a.Seq), len(b.Seq), len(a.Truncs), len(b.Truncs))
	}
	return a, nil
}

func captureOnce(s nest.Spec, o, i tree.NodeID) (*Trace, error) {
	g := newTrace()
	rec := s
	rec.Work = g.addVisit
	if t2 := s.TruncInner2; t2 != nil {
		rec.TruncInner2 = func(o, i tree.NodeID) bool {
			if t2(o, i) {
				g.Truncs = append(g.Truncs, Visit{o, i})
				return true
			}
			return false
		}
	}
	e, err := nest.New(rec)
	if err != nil {
		return nil, err
	}
	e.RunFrom(nest.Original(), o, i)
	return g, nil
}

// Runner executes the schedule under test on the sub-space rooted at (o, i)
// of s, reporting every visit. The oracle calls it with Work-irrelevant
// specs (visit is the only observable), possibly several times on shrinking
// sub-spaces during counterexample minimization.
type Runner func(s nest.Spec, o, i tree.NodeID, visit func(o, i tree.NodeID))

// EngineRunner adapts the in-repo engine to a Runner: variant v under flag
// mode fm, with or without the §4.2 subtree-truncation optimization.
func EngineRunner(v nest.Variant, fm nest.FlagMode, subtree bool) Runner {
	return func(s nest.Spec, o, i tree.NodeID, visit func(o, i tree.NodeID)) {
		s.Work = visit
		e := nest.MustNew(s)
		e.Flags = fm
		e.SubtreeTruncation = subtree
		e.RunFrom(v, o, i)
	}
}

// maxDiffs caps the pair diffs listed in a Verdict; DiffPairs always carries
// the full count.
const maxDiffs = 8

// Diff is one divergent entry of the visit multiset.
type Diff struct {
	Visit
	Want, Got int32
}

// String implements fmt.Stringer.
func (d Diff) String() string {
	return fmt.Sprintf("(o=%d,i=%d got %d want %d)", d.O, d.I, d.Got, d.Want)
}

// Verdict is the outcome of one equivalence check.
type Verdict struct {
	// OK reports permutation equivalence: visit multiset equal to the golden
	// trace, per-column order intact, no column split across workers.
	OK bool

	// Label identifies the schedule under test, for error messages.
	Label string

	// OuterRoot/InnerRoot is the sub-space the verdict refers to: the full
	// roots for a passing check, the minimal failing sub-space found by
	// greedy shrinking for a failing one, and tree.Nil for CheckSequence,
	// which cannot re-run the execution to shrink it.
	OuterRoot, InnerRoot tree.NodeID

	// Missing and Extra list multiset divergences (golden-has-more and
	// run-has-more respectively), sorted by (o, i) and capped at maxDiffs
	// entries each; DiffPairs is the uncapped count of differing pairs.
	Missing, Extra []Diff
	DiffPairs      int

	// OrderColumn, when not tree.Nil, is the first outer column whose
	// intra-column visit order diverges from the baseline, at position
	// OrderIndex. Only meaningful when the multiset matched.
	OrderColumn tree.NodeID
	OrderIndex  int

	// SplitColumn, when not tree.Nil, is a column whose visits were spread
	// across two parallel streams — a violation of the §3.3 rule that one
	// outer column's iterations never run concurrently.
	SplitColumn tree.NodeID
}

// String implements fmt.Stringer.
func (v *Verdict) String() string {
	if v.OK {
		return "oracle: " + v.Label + ": equivalent"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %s: DIVERGES", v.Label)
	if v.SplitColumn != tree.Nil {
		fmt.Fprintf(&b, "; column o=%d split across parallel streams", v.SplitColumn)
	}
	if v.DiffPairs > 0 {
		fmt.Fprintf(&b, "; %d pair(s) differ", v.DiffPairs)
		if v.OuterRoot != tree.Nil {
			fmt.Fprintf(&b, ", minimal sub-space (o=%d, i=%d)", v.OuterRoot, v.InnerRoot)
		}
		if len(v.Missing) > 0 {
			fmt.Fprintf(&b, "; missing %v", v.Missing)
		}
		if len(v.Extra) > 0 {
			fmt.Fprintf(&b, "; extra %v", v.Extra)
		}
	}
	if v.OrderColumn != tree.Nil {
		fmt.Fprintf(&b, "; column o=%d order diverges at position %d", v.OrderColumn, v.OrderIndex)
	}
	return b.String()
}

// Err returns nil for a passing verdict and an error carrying String()
// otherwise.
func (v *Verdict) Err() error {
	if v.OK {
		return nil
	}
	return errors.New(v.String())
}

// compare is the single verdict kernel: merge the streams, diff the multiset
// against the golden trace, and — when the multiset matches — check each
// column's internal order and single-stream confinement.
func (g *Trace) compare(label string, streams [][]Visit, o, i tree.NodeID) *Verdict {
	v := &Verdict{
		OK: true, Label: label,
		OuterRoot: o, InnerRoot: i,
		OrderColumn: tree.Nil, OrderIndex: -1,
		SplitColumn: tree.Nil,
	}
	got := make(map[Visit]int32, len(g.counts))
	owner := make(map[tree.NodeID]int)
	cols := make(map[tree.NodeID][]tree.NodeID, len(g.cols))
	for w, seq := range streams {
		for _, vis := range seq {
			got[vis]++
			cols[vis.O] = append(cols[vis.O], vis.I)
			if prev, ok := owner[vis.O]; ok && prev != w {
				if v.SplitColumn == tree.Nil {
					v.SplitColumn = vis.O
					v.OK = false
				}
			} else {
				owner[vis.O] = w
			}
		}
	}

	var diffs []Diff
	for vis, want := range g.counts {
		if got[vis] != want {
			diffs = append(diffs, Diff{vis, want, got[vis]})
		}
	}
	for vis, gc := range got {
		if _, ok := g.counts[vis]; !ok {
			diffs = append(diffs, Diff{vis, 0, gc})
		}
	}
	if len(diffs) > 0 {
		v.OK = false
		v.DiffPairs = len(diffs)
		sort.Slice(diffs, func(a, b int) bool {
			if diffs[a].O != diffs[b].O {
				return diffs[a].O < diffs[b].O
			}
			return diffs[a].I < diffs[b].I
		})
		for _, d := range diffs {
			if d.Got < d.Want && len(v.Missing) < maxDiffs {
				v.Missing = append(v.Missing, d)
			}
			if d.Got > d.Want && len(v.Extra) < maxDiffs {
				v.Extra = append(v.Extra, d)
			}
		}
		return v
	}

	// Multiset matched: columns have identical contents, so order is the
	// only remaining question. Iterate in sorted column order so the first
	// reported divergence is deterministic.
	keys := make([]tree.NodeID, 0, len(g.cols))
	for col := range g.cols {
		keys = append(keys, col)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, col := range keys {
		want, have := g.cols[col], cols[col]
		for k := range want {
			if k >= len(have) || want[k] != have[k] {
				v.OK = false
				v.OrderColumn = col
				v.OrderIndex = k
				return v
			}
		}
	}
	return v
}

// checkAt runs the schedule under test once on the sub-space rooted at
// (o, i) and compares it against golden.
func checkAt(golden *Trace, s nest.Spec, run Runner, label string, o, i tree.NodeID) *Verdict {
	var seq []Visit
	run(s, o, i, func(o, i tree.NodeID) { seq = append(seq, Visit{o, i}) })
	return golden.compare(label, [][]Visit{seq}, o, i)
}

// Check verifies that the schedule run produces a legal permutation of the
// golden trace over the full space of s. On failure the verdict is greedily
// minimized: the check descends into any child sub-space — outer child ×
// same inner root, or same outer root × inner child — that still fails
// (re-capturing the sub-space's own golden trace via CaptureFrom), until no
// child reproduces the divergence. For a dropped or duplicated leaf pair
// this shrinks all the way to the 1×1 sub-space naming the exact pair.
func (g *Trace) Check(s nest.Spec, run Runner, label string) *Verdict {
	o, i := s.Outer.Root(), s.Inner.Root()
	v := checkAt(g, s, run, label, o, i)
	if v.OK {
		return v
	}
	for {
		descended := false
		var cands [4][2]tree.NodeID
		cands[0] = [2]tree.NodeID{s.Outer.Left(o), i}
		cands[1] = [2]tree.NodeID{s.Outer.Right(o), i}
		cands[2] = [2]tree.NodeID{o, s.Inner.Left(i)}
		cands[3] = [2]tree.NodeID{o, s.Inner.Right(i)}
		for _, cand := range cands {
			co, ci := cand[0], cand[1]
			if co == tree.Nil || ci == tree.Nil {
				continue
			}
			sub, err := CaptureFrom(s, co, ci)
			if err != nil {
				return v // stateful below the root? keep the current verdict
			}
			if sv := checkAt(sub, s, run, label, co, ci); !sv.OK {
				o, i, v = co, ci, sv
				descended = true
				break
			}
		}
		if !descended {
			return v
		}
	}
}

// CheckVariant checks one engine schedule (variant × flag mode × subtree
// optimization) against the golden trace, with counterexample minimization.
func (g *Trace) CheckVariant(s nest.Spec, v nest.Variant, fm nest.FlagMode, subtree bool) *Verdict {
	return g.CheckVariantOn(s, nest.EngineRecursive, v, fm, subtree)
}

// CheckVariantOn is CheckVariant under an engine label. The label selects
// nothing (nest.Engine); it only reaches the verdict text, which names a
// non-default engine so that verdicts keep the text they have always had.
func (g *Trace) CheckVariantOn(s nest.Spec, eng nest.Engine, v nest.Variant, fm nest.FlagMode, subtree bool) *Verdict {
	label := fmt.Sprintf("%v flags=%v subtree=%v", v, fm, subtree)
	if eng != nest.EngineRecursive {
		label += fmt.Sprintf(" engine=%v", eng)
	}
	return g.Check(s, EngineRunner(v, fm, subtree), label)
}

// CheckSequence compares an externally produced execution — one visit
// sequence per stream (per worker of a parallel run) — against the golden
// trace: the streams must jointly replay its multiset, with every column
// whole and in order inside one stream. No re-run is possible, so there is
// no minimization either.
func (g *Trace) CheckSequence(label string, streams ...[]Visit) *Verdict {
	return g.compare(label, streams, tree.Nil, tree.Nil)
}

// CheckParallel runs s under the parallel executor described by cfg —
// workers and spawn depth — and verifies the merged execution is a legal
// permutation of the golden trace with every outer column confined to a
// single worker. The cfg.Stealing and cfg.Engine labels select nothing; they
// only reach the verdict text. The oracle owns cfg.WrapWork (it
// installs per-worker visit recorders) and clears cfg.ForTask: the spec must
// already be pure, so task-private state sharding is unnecessary. configure
// (flag mode, subtree truncation, ...) applies to the Exec before the run,
// and every worker inherits it.
func (g *Trace) CheckParallel(s nest.Spec, cfg nest.RunConfig, configure ...func(*nest.Exec)) (*Verdict, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	bufs := make([][]Visit, cfg.Workers)
	cfg.ForTask = nil
	cfg.WrapWork = func(worker int, _ func(o, i tree.NodeID)) func(o, i tree.NodeID) {
		return func(o, i tree.NodeID) {
			bufs[worker] = append(bufs[worker], Visit{o, i})
		}
	}
	run := s
	run.Work = func(o, i tree.NodeID) {} // replaced per worker by WrapWork
	e, err := nest.New(run)
	if err != nil {
		return nil, err
	}
	for _, c := range configure {
		c(e)
	}
	if _, err := e.RunWith(cfg); err != nil {
		return nil, err
	}
	label := fmt.Sprintf("%v workers=%d stealing=%v", cfg.Variant, cfg.Workers, cfg.Stealing)
	if cfg.Engine != nest.EngineRecursive {
		label += fmt.Sprintf(" engine=%v", cfg.Engine)
	}
	return g.compare(label, bufs, s.Outer.Root(), s.Inner.Root()), nil
}
