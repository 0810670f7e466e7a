package nest

import (
	"fmt"

	"twist/internal/obs"
)

// Stats counts the dynamic operations a schedule performed. It is the
// instruction-count model that stands in for the paper's hardware instruction
// counters (Fig 8a, Fig 10a): the paper attributes the instruction overhead
// of the transformed code to extra recursive calls and to tracking/managing
// truncation information (§4.3, §6.2), which are exactly the events counted
// here.
type Stats struct {
	// OuterCalls and InnerCalls count invocations of the outer-recursion and
	// inner-recursion functions respectively (including immediately
	// truncated ones).
	OuterCalls int64
	InnerCalls int64

	// Iterations counts visits to the work position of the template — the
	// paper's unit in §4.2 ("the original code performs 1.25 billion
	// iterations..."). In the original orientation a truncated call never
	// reaches the work position; in the swapped orientation a flagged
	// iteration reaches it but skips the work, which is why interchange
	// "is forced to perform" the full cross product.
	Iterations int64

	// Work counts actual executions of Spec.Work.
	Work int64

	// TruncChecks counts evaluations of the truncation-flag/TruncInner2
	// machinery at the work position.
	TruncChecks int64

	// FlagSets and FlagClears count truncation-flag writes (Fig 6b lines 16
	// and 9). FlagClears is always zero in FlagCounter mode — the absence of
	// the unset loop is the entire point of the §4.3 optimization.
	FlagSets   int64
	FlagClears int64

	// SizeCompares and Twists count the twisting decision sites of Fig 4(a)
	// and how often they switched orientation.
	SizeCompares int64
	Twists       int64

	// SubtreeCuts counts early returns taken by the §4.2 subtree-truncation
	// optimization.
	SubtreeCuts int64

	// ExtraOps is workload-defined extra work attributed to Spec.Work bodies
	// (e.g. point-pair distance computations in the dual-tree base cases).
	// Workloads add to it from inside Work; the engine only resets it.
	ExtraOps int64
}

// Cost weights for Ops. A recursive call costs more than a flag write, which
// costs about as much as a compare; the absolute scale is arbitrary since
// every figure that uses Ops reports a ratio against the baseline schedule.
const (
	costOuterCall  = 8 // call + truncation test + two child recursions
	costInnerCall  = 6
	costTruncCheck = 2
	costFlagSet    = 3 // write + unTrunc push (or counter store)
	costFlagClear  = 3
	costCompare    = 2
	costIteration  = 1
)

// Add accumulates o into s field-wise. The parallel executor uses it to
// merge per-worker statistics once at the end of a run; every field is a
// plain sum, so the merge of a deterministic decomposition is itself
// deterministic regardless of worker count or stealing order.
func (s *Stats) Add(o Stats) {
	s.OuterCalls += o.OuterCalls
	s.InnerCalls += o.InnerCalls
	s.Iterations += o.Iterations
	s.Work += o.Work
	s.TruncChecks += o.TruncChecks
	s.FlagSets += o.FlagSets
	s.FlagClears += o.FlagClears
	s.SizeCompares += o.SizeCompares
	s.Twists += o.Twists
	s.SubtreeCuts += o.SubtreeCuts
	s.ExtraOps += o.ExtraOps
}

// Record publishes every field of s as a counter into r under
// prefix.{outer_calls,inner_calls,iterations,work,trunc_checks,flag_sets,
// flag_clears,size_compares,twists,subtree_cuts,extra_ops,ops} — the nest
// half of the observability layer (internal/obs). The truncation-machinery
// counters (trunc_checks, flag_sets, subtree_cuts) are the "truncation
// hits" telemetry the schedules differ most on.
func (s Stats) Record(r obs.Recorder, prefix string) {
	if r == nil {
		return
	}
	r.Count(prefix+".outer_calls", s.OuterCalls)
	r.Count(prefix+".inner_calls", s.InnerCalls)
	r.Count(prefix+".iterations", s.Iterations)
	r.Count(prefix+".work", s.Work)
	r.Count(prefix+".trunc_checks", s.TruncChecks)
	r.Count(prefix+".flag_sets", s.FlagSets)
	r.Count(prefix+".flag_clears", s.FlagClears)
	r.Count(prefix+".size_compares", s.SizeCompares)
	r.Count(prefix+".twists", s.Twists)
	r.Count(prefix+".subtree_cuts", s.SubtreeCuts)
	r.Count(prefix+".extra_ops", s.ExtraOps)
	r.Count(prefix+".ops", s.Ops())
}

// Ops returns the weighted dynamic operation count — the model standing in
// for retired instructions in Fig 8(a)/10(a). Comparisons between schedules
// of the same workload are meaningful; absolute values are model units.
func (s Stats) Ops() int64 {
	return s.OuterCalls*costOuterCall +
		s.InnerCalls*costInnerCall +
		s.TruncChecks*costTruncCheck +
		s.FlagSets*costFlagSet +
		s.FlagClears*costFlagClear +
		s.SizeCompares*costCompare +
		s.Iterations*costIteration +
		s.ExtraOps
}

// Overhead returns the fractional instruction overhead of s relative to the
// baseline run base, e.g. 0.25 for a 25% increase (the y-axis of Fig 8a).
func (s Stats) Overhead(base Stats) float64 {
	b := base.Ops()
	if b == 0 {
		return 0
	}
	return float64(s.Ops()-b) / float64(b)
}

// String implements fmt.Stringer with a compact one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"outer=%d inner=%d iters=%d work=%d truncChecks=%d flagSets=%d flagClears=%d cmps=%d twists=%d subtreeCuts=%d extra=%d ops=%d",
		s.OuterCalls, s.InnerCalls, s.Iterations, s.Work, s.TruncChecks,
		s.FlagSets, s.FlagClears, s.SizeCompares, s.Twists, s.SubtreeCuts,
		s.ExtraOps, s.Ops())
}
