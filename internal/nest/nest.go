// Package nest implements the paper's primary contribution: scheduling
// transformations for nested recursive iteration spaces.
//
// A nested recursion in the sense of the paper (Fig 2) is a pair of recursive
// functions — an outer recursion that, at every node o of an "outer tree",
// launches an inner recursion over an "inner tree", executing work(o, i) at
// every visited pair. The engine here executes such a computation under four
// schedules:
//
//   - Original      — the template as written (column-by-column, Fig 2)
//   - Interchanged  — recursion interchange (row-by-row, Fig 3)
//   - Twisted       — recursion twisting (parameterless tiling, Fig 4a)
//   - TwistedCutoff — twisting with the cutoff parameter of §7.1
//
// Irregular, outer-dependent truncation (truncateInner2?, §4) is handled with
// truncation flags per Fig 6(b), optionally using the preorder-counter
// representation of §4.3 and the subtree-truncation optimization of §4.2.
//
// Terminology is the paper's (§2.1): the *outer tree* and *inner tree* are
// fixed properties of the original program, while the *outer recursion* and
// *inner recursion* are roles that twisting exchanges. Throughout this
// package, the variable o is always a node of the outer tree and i is always
// a node of the inner tree, regardless of the current orientation.
//
// # Parallel runs and the RunConfig contract
//
// Exec.Run executes sequentially; Exec.RunWith executes the §7.3 parallel
// decomposition under a RunConfig. The contract callers rely on:
//
//   - The task decomposition is a pure function of the Spec and
//     RunConfig.SpawnDepth — never of Workers or runtime scheduling — so
//     the merged RunResult.Stats (and RunResult.Tasks) are byte-identical
//     across worker counts. This determinism is what the observability
//     layer's exact-match regression gating builds on (DESIGN.md §4.7).
//
//   - Soundness needs the §3.3 criterion (outer recursions independent),
//     and Spec.Work plus the truncation predicates must tolerate concurrent
//     calls for distinct outer nodes. Iterations of one outer column never
//     run concurrently.
//
//   - Workloads with mutable per-run state supply RunConfig.ForTask to give
//     each task private shards (reductions, pruning bounds), making task
//     behaviour a pure function of its outer root; RunConfig.WrapWork
//     routes per-worker side channels (e.g. memsim trace sinks); and
//     RunConfig.Recorder receives executor telemetry (tasks, steals, merged
//     operation counts) — see internal/obs.
//
//   - RunConfig.Ctx cancels cooperatively; the first observed error is
//     returned alongside the partial merged Stats.
package nest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"twist/internal/tree"
)

// Spec describes one instance of the nested recursion template (paper Fig 2).
type Spec struct {
	// Outer and Inner are the index spaces of the original outer and inner
	// recursions. They may be the same topology (self-joins are common in the
	// dual-tree benchmarks).
	Outer, Inner *tree.Topology

	// TruncOuter is truncateOuter?(o): a truncation condition on the outer
	// index alone. The engine always treats the absent child (tree.Nil) as
	// truncated; TruncOuter, if non-nil, adds to that. It must be a pure
	// function of o (and of state not mutated by Work).
	TruncOuter func(o tree.NodeID) bool

	// TruncInner1 is truncateInner1?(i): a truncation condition on the inner
	// index alone, with the same conventions as TruncOuter.
	TruncInner1 func(i tree.NodeID) bool

	// TruncInner2 is truncateInner2?(o, i): the outer-dependent truncation of
	// §4 that makes the iteration space irregular. nil means the space is
	// regular (rectangular), as in the tree-join example of Fig 1(a).
	// TruncInner2 may read state updated by Work within the same column o
	// (intra-traversal dependences, §3.3) — the dual-tree bound updates —
	// but must not be influenced by other columns' work in ways that would
	// make the transformed schedules unsound; see §3.3's parallel-outer
	// criterion.
	TruncInner2 func(o, i tree.NodeID) bool

	// Work is the loop body: invoked once per non-truncated iteration (o, i).
	Work func(o, i tree.NodeID)

	// Hereditary asserts TruncInner2(o,i) ⇒ TruncInner2(o',i') for every o'
	// in the subtree of o and every i' in the subtree of i: once a node pair
	// is pruned, every descendant pair is too. Dual-tree Score pruning has
	// this property (shrinking either bounding box can only increase the
	// minimum box distance). It licenses the aggressive form of the
	// subtree-truncation optimization of §4.2, which cuts a truncated node's
	// whole outer subtree without planting flags on the descendants.
	Hereditary bool
}

// validate reports structural problems with the Spec.
func (s *Spec) validate() error {
	if s.Outer == nil || s.Inner == nil {
		return errors.New("nest: Spec.Outer and Spec.Inner must be non-nil")
	}
	if s.Work == nil {
		return errors.New("nest: Spec.Work must be non-nil")
	}
	return nil
}

// FlagMode selects the representation of truncation flags (§4).
type FlagMode int

const (
	// FlagSets is the Fig 6(b) protocol: a boolean flag per outer-tree node
	// plus a per-row unTrunc set, unwound when the truncating inner subtree
	// completes. (Our implementation skips re-evaluating truncateInner2? for
	// an already-flagged node; nested truncating regions are always contained
	// in the flagging region, so a single bit per node suffices. This
	// resolves an under-specification in the paper's pseudocode, where a
	// nested set/clear could prematurely unflag a node.)
	FlagSets FlagMode = iota

	// FlagCounter is the §4.3 optimization: each outer-tree node holds a
	// counter c; an inner node with preorder number v is truncated for that
	// outer node iff v < c. Setting the flag stores Next(i) (the preorder
	// position just past i's subtree), so nodes are untruncated naturally as
	// the traversal passes the truncating subtree — no unset loop at all.
	FlagCounter
)

// String implements fmt.Stringer.
func (m FlagMode) String() string {
	switch m {
	case FlagSets:
		return "sets"
	case FlagCounter:
		return "counter"
	}
	return "unknown"
}

// ParseFlagMode parses a flag-mode name as printed by FlagMode.String —
// "sets" or "counter". It is the single flag-parsing entry point shared by
// the command-line tools and the serving layer.
func ParseFlagMode(s string) (FlagMode, error) {
	switch strings.TrimSpace(s) {
	case "sets":
		return FlagSets, nil
	case "counter":
		return FlagCounter, nil
	}
	return 0, fmt.Errorf("nest: unknown flag mode %q (want sets or counter)", s)
}

// Exec executes one Spec under the transformed schedules. An Exec is not safe
// for concurrent use; create one per goroutine.
type Exec struct {
	spec Spec

	// Flags selects the truncation-flag representation. Default FlagCounter.
	Flags FlagMode

	// SubtreeTruncation enables the §4.2 optimization (requires
	// Spec.Hereditary; ignored otherwise). Default true.
	SubtreeTruncation bool

	// Engine is a visit-engine label (see Engine) and selects nothing:
	// every run uses the recursive engine.
	Engine Engine

	// Stats accumulates the operation counts for the run; see Stats. Reset
	// before each Run.
	Stats Stats

	irregular bool

	// FlagSets state.
	flag    []bool
	unTrunc []tree.NodeID

	// FlagCounter state.
	ctr []int32

	// Twisting control for the current run.
	twist  bool
	cutoff int32

	// Cancellation state. ctx, when non-nil, is polled at outer-subtree
	// granularity (every outer-recursion entry, rate-limited); the first
	// observed ctx.Err() is latched in ctxErr and the recursion unwinds
	// without further work.
	ctx     context.Context
	ctxErr  error
	ctxPoll uint32
}

// New returns an Exec for the given spec.
func New(s Spec) (*Exec, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	e := &Exec{
		spec:              s,
		Flags:             FlagCounter,
		SubtreeTruncation: true,
		irregular:         s.TruncInner2 != nil,
	}
	return e, nil
}

// MustNew is New that panics on error.
func MustNew(s Spec) *Exec {
	e, err := New(s)
	if err != nil {
		panic(err)
	}
	return e
}

// Spec returns the spec the Exec was built from.
func (e *Exec) Spec() Spec { return e.spec }

// Run executes the computation under the given schedule variant, starting
// from the roots of the two trees, and leaves operation counts in e.Stats.
func (e *Exec) Run(v Variant) {
	e.RunFrom(v, e.spec.Outer.Root(), e.spec.Inner.Root())
}

// RunContext is Run with cooperative cancellation: the context is polled at
// outer-subtree granularity (see canceled), and on cancellation the run
// unwinds early, leaving the partial operation counts in e.Stats and
// returning ctx.Err(). A nil ctx behaves exactly like Run.
func (e *Exec) RunContext(ctx context.Context, v Variant) error {
	e.ctx = ctx
	defer func() { e.ctx = nil }()
	e.Run(v)
	return e.ctxErr
}

// RunFrom executes the computation on the sub-space rooted at outer node o
// and inner node i. It is the building block of the §7.3 parallel execution
// (twisting applied to an already-spawned task) and of region-restricted
// reruns; most callers want Run.
func (e *Exec) RunFrom(v Variant, o, i tree.NodeID) {
	e.Stats = Stats{}
	e.prepare()
	e.runVariant(v, o, i)
}

// prepare sizes and clears the truncation-flag state (and resets the
// cancellation latch) without running. Callers that drive the recursion
// functions directly — the parallel executor's workers — invoke it once
// before their first descent.
func (e *Exec) prepare() {
	e.ctxErr = nil
	e.ctxPoll = 0
	if !e.irregular {
		return
	}
	n := e.spec.Outer.Len()
	switch e.Flags {
	case FlagSets:
		if cap(e.flag) < n {
			e.flag = make([]bool, n)
		} else {
			e.flag = e.flag[:n]
			for k := range e.flag {
				e.flag[k] = false
			}
		}
		e.unTrunc = e.unTrunc[:0]
	case FlagCounter:
		if cap(e.ctr) < n {
			e.ctr = make([]int32, n)
		} else {
			e.ctr = e.ctr[:n]
			for k := range e.ctr {
				e.ctr[k] = 0
			}
		}
	}
}

// runVariant dispatches one schedule on the sub-space rooted at (o, i)
// without resetting Stats or flag state. It is the executor building block:
// RunFrom is prepare + runVariant, and the work-stealing executor calls it
// once per task, accumulating into the worker's Stats.
func (e *Exec) runVariant(v Variant, o, i tree.NodeID) {
	switch v.Kind {
	case KindOriginal:
		e.twist = false
		e.outer(o, i)
	case KindInterchanged:
		e.twist = false
		e.outerSwapped(o, i)
	case KindTwisted:
		e.twist, e.cutoff = true, 0
		e.outer(o, i)
	case KindTwistedCutoff:
		e.twist, e.cutoff = true, v.Cutoff
		e.outer(o, i)
	default:
		panic("nest: unknown schedule variant")
	}
}

// canceled polls the run's context at outer-subtree granularity. Polling is
// rate-limited to one ctx.Err() call per 64 outer entries (the first entry
// polls immediately) so cancellation support costs nothing measurable on the
// hot path; once an error is observed it is latched and every subsequent
// call returns true, unwinding the recursion.
func (e *Exec) canceled() bool {
	if e.ctx == nil {
		return false
	}
	if e.ctxErr != nil {
		return true
	}
	e.ctxPoll++
	if e.ctxPoll&63 == 1 {
		if err := e.ctx.Err(); err != nil {
			e.ctxErr = err
			return true
		}
	}
	return false
}

// truncO reports whether the outer index o is truncated (absent or rejected
// by truncateOuter?).
func (e *Exec) truncO(o tree.NodeID) bool {
	return o == tree.Nil || (e.spec.TruncOuter != nil && e.spec.TruncOuter(o))
}

// truncI reports whether the inner index i is truncated (absent or rejected
// by truncateInner1?).
func (e *Exec) truncI(i tree.NodeID) bool {
	return i == tree.Nil || (e.spec.TruncInner1 != nil && e.spec.TruncInner1(i))
}

// flagged reports whether outer node o currently has its truncation flag set
// with respect to inner position i.
func (e *Exec) flagged(o, i tree.NodeID) bool {
	if e.Flags == FlagCounter {
		return e.spec.Inner.Order(i) < e.ctr[o]
	}
	return e.flag[o]
}

// setFlag marks outer node o truncated for the subtree of inner node i.
func (e *Exec) setFlag(o, i tree.NodeID) {
	e.Stats.FlagSets++
	if e.Flags == FlagCounter {
		// Monotone: callers only set when not flagged, so Order(i) >= ctr[o]
		// and Next(i) > Order(i); the counter never moves backwards within a
		// column, which is what keeps the §4.3 scheme sound under twisting.
		e.ctr[o] = e.spec.Inner.Next(i)
		return
	}
	e.flag[o] = true
	e.unTrunc = append(e.unTrunc, o)
}

// clearFlags unwinds flags recorded since mark (FlagSets mode only; the
// counter representation expires naturally — that is the point of §4.3).
func (e *Exec) clearFlags(mark int) {
	if e.Flags != FlagSets {
		return
	}
	for k := len(e.unTrunc) - 1; k >= mark; k-- {
		e.flag[e.unTrunc[k]] = false
		e.Stats.FlagClears++
	}
	e.unTrunc = e.unTrunc[:mark]
}

// outer is recurseOuter (Fig 2 / Fig 4a): the outer recursion in the original
// orientation, descending the outer tree. When twisting is enabled it swaps
// orientation whenever the child outer subtree is no larger than the tree the
// inner recursion currently holds (and, with a cutoff, only while that inner
// tree is still larger than the cutoff — §7.1).
func (e *Exec) outer(o, i tree.NodeID) {
	e.Stats.OuterCalls++
	if e.truncO(o) || e.canceled() {
		return
	}
	e.inner(o, i)
	out, in := e.spec.Outer, e.spec.Inner
	for _, c := range [2]tree.NodeID{out.Left(o), out.Right(o)} {
		if e.twist {
			e.Stats.SizeCompares++
			if out.Size(c) <= in.Size(i) && in.Size(i) > e.cutoff {
				e.Stats.Twists++
				e.outerSwapped(c, i)
				continue
			}
		}
		e.outer(c, i)
	}
}

// inner is recurseInner (Fig 2): the inner recursion in the original
// orientation, descending the inner tree for a fixed outer node o. In this
// orientation truncateInner2? cuts the recursion directly, exactly as in the
// original program; the truncation flag is consulted too, because an
// enclosing swapped-orientation row may already have truncated o for the
// region containing i (§4.1, final paragraph).
func (e *Exec) inner(o, i tree.NodeID) {
	e.Stats.InnerCalls++
	if e.truncI(i) {
		return
	}
	if e.irregular {
		e.Stats.TruncChecks++
		if e.flagged(o, i) || e.spec.TruncInner2(o, i) {
			return
		}
	}
	e.Stats.Iterations++
	e.Stats.Work++
	e.spec.Work(o, i)
	in := e.spec.Inner
	e.inner(o, in.Left(i))
	e.inner(o, in.Right(i))
}

// outerSwapped is recurseOuterSwapped (Fig 3 / Fig 4a / Fig 6b): the outer
// recursion in the swapped orientation, descending the inner tree. Flags set
// by its row (innerSwapped) are scoped to the subtree of i and unwound when
// that subtree completes, per Fig 6(b) line 9.
//
// Deviation from the paper's pseudocode: we also return immediately when the
// outer region is empty (o truncated). The literal Fig 3 code would traverse
// the entire inner tree performing no work in that case; every realistic
// implementation guards it.
func (e *Exec) outerSwapped(o, i tree.NodeID) {
	e.Stats.OuterCalls++
	if e.truncI(i) {
		return
	}
	if e.truncO(o) || e.canceled() {
		return
	}
	mark := len(e.unTrunc)
	allTrunc := e.innerSwapped(o, i)
	if allTrunc && e.SubtreeTruncation && e.irregular {
		// §4.2 region cut: every node of the outer subtree is truncated for
		// the whole region of i (its flag — literal or heredity-implied —
		// persists until i's subtree completes), so the deeper rows can do
		// no work at all. "If at any point every node in a subtree ... has
		// the truncation flag set ..., then the inner tree recursion
		// (performed by recurseOuterSwapped) can be truncated early."
		e.Stats.SubtreeCuts++
		e.clearFlags(mark)
		return
	}
	out, in := e.spec.Outer, e.spec.Inner
	for _, c := range [2]tree.NodeID{in.Left(i), in.Right(i)} {
		if e.twist {
			e.Stats.SizeCompares++
			if in.Size(c) <= out.Size(o) {
				e.Stats.Twists++
				e.outer(o, c)
				continue
			}
		}
		e.outerSwapped(o, c)
	}
	e.clearFlags(mark)
}

// innerSwapped is recurseInnerSwapped (Fig 3 / Fig 6b): the inner recursion
// in the swapped orientation, descending the outer tree for a fixed inner
// node i. Because recursion in this orientation descends the outer tree, it
// cannot use truncateInner2? to cut recursion; instead truncation is recorded
// in flags and the work call is skipped (Fig 6b line 20).
//
// It returns whether every node of the outer subtree rooted at o is truncated
// for (the region of) i, which drives the §4.2 subtree-truncation
// optimization in two forms:
//
//   - With a fully Hereditary condition, a truncated node's whole outer
//     subtree is skipped outright — its descendants are pruned for every
//     remaining pair of the region, so neither their work nor their flags
//     are needed.
//   - In all cases, an all-truncated report lets outerSwapped cut the
//     remaining descent of the inner subtree (the region cut).
func (e *Exec) innerSwapped(o, i tree.NodeID) bool {
	e.Stats.InnerCalls++
	if e.truncO(o) {
		return true // an empty outer subtree is vacuously all-truncated
	}
	truncated := false
	if e.irregular {
		e.Stats.TruncChecks++
		if e.flagged(o, i) {
			truncated = true
		} else if e.spec.TruncInner2(o, i) {
			e.setFlag(o, i)
			truncated = true
		}
	}
	e.Stats.Iterations++
	if !truncated {
		e.Stats.Work++
		e.spec.Work(o, i)
	} else if e.spec.Hereditary && e.SubtreeTruncation {
		e.Stats.SubtreeCuts++
		return true
	}
	out := e.spec.Outer
	l := e.innerSwapped(out.Left(o), i)
	r := e.innerSwapped(out.Right(o), i)
	return truncated && l && r
}

// VariantKind enumerates the schedules the engine can run.
type VariantKind int

// The four schedules of the paper: the untransformed baseline (§2), full
// interchange (§3), recursion twisting (§4), and twisting with the §7.1
// size cutoff.
const (
	KindOriginal VariantKind = iota
	KindInterchanged
	KindTwisted
	KindTwistedCutoff
)

// Variant selects an engine schedule; construct one with Original,
// Interchanged, Twisted, or TwistedCutoff. Variant is the engine's lowered
// schedule representation: the four constructors are exactly the canonical
// points of the composable schedule algebra (internal/transform/algebra),
// and new code should express schedules there — algebra.Schedule.Variant
// lowers any inline-free schedule onto this type.
type Variant struct {
	Kind   VariantKind
	Cutoff int32 // for KindTwistedCutoff: twist only while Size(inner) > Cutoff
}

// Original is the untransformed column-by-column schedule (Fig 2).
func Original() Variant { return Variant{Kind: KindOriginal} }

// Interchanged is the row-by-row schedule of recursion interchange (Fig 3).
func Interchanged() Variant { return Variant{Kind: KindInterchanged} }

// Twisted is parameterless recursion twisting (Fig 4a).
func Twisted() Variant { return Variant{Kind: KindTwisted} }

// TwistedCutoff is twisting with the §7.1 cutoff: the schedule switches from
// the original to the interchanged order only while the inner tree is larger
// than cutoff.
func TwistedCutoff(cutoff int) Variant {
	if cutoff < 0 || cutoff > math.MaxInt32 {
		panic("nest: cutoff out of range")
	}
	return Variant{Kind: KindTwistedCutoff, Cutoff: int32(cutoff)}
}

// String implements fmt.Stringer. The output is a valid schedule
// expression: algebra.ParseSchedule parses it back to this variant.
func (v Variant) String() string {
	switch v.Kind {
	case KindOriginal:
		return "original"
	case KindInterchanged:
		return "interchanged"
	case KindTwisted:
		return "twisted"
	case KindTwistedCutoff:
		return fmt.Sprintf("twisted-cutoff:%d", v.Cutoff)
	}
	return "unknown"
}
