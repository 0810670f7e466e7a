// Package twist is a library of locality-enhancing scheduling transformations
// for nested recursive iteration spaces, reproducing "Locality
// Transformations for Nested Recursive Iteration Spaces" (Sundararajah,
// Sakka, Kulkarni — ASPLOS 2017).
//
// A nested recursion — a recursive method that calls another recursive
// method, as in a tree join or a dual-tree n-body algorithm — defines a
// two-dimensional iteration space whose points are pairs (o, i) of positions
// in an outer and an inner tree. This package reschedules such computations:
//
//   - Original: the untransformed column-by-column schedule.
//   - Interchanged: recursion interchange, the analog of loop interchange.
//   - Twisted: recursion twisting, a parameterless analog of multi-level
//     loop tiling that improves locality at every level of the memory
//     hierarchy simultaneously.
//   - TwistedCutoff: twisting with a cutoff parameter that falls back to
//     the original order for small subproblems.
//
// Programs with data-dependent truncation (an inner recursion cut off based
// on both indices, as dual-tree algorithms do with Score-based pruning) are
// handled with truncation flags; see Spec.TruncInner2 and Spec.Hereditary.
//
// # Quick start
//
//	outer := twist.NewBalancedTree(1 << 10)
//	inner := twist.NewBalancedTree(1 << 10)
//	spec := twist.Spec{
//		Outer: outer,
//		Inner: inner,
//		Work:  func(o, i twist.NodeID) { join(o, i) },
//	}
//	exec := twist.MustNew(spec)
//	res, err := twist.Run(exec, twist.WithVariant(twist.Twisted()))
//
// The iteration order changes; the set of Work invocations (and, for
// programs meeting the paper's soundness criterion, the program result)
// does not. Run is the single entrypoint for every execution axis —
// schedule (WithVariant / WithSchedule), parallelism (WithWorkers),
// telemetry (WithRecorder), cancellation (WithContext) — see run.go.
package twist

import (
	"twist/internal/depcheck"
	"twist/internal/layout"
	"twist/internal/nest"
	"twist/internal/sched"
	"twist/internal/transform/algebra"
	"twist/internal/tree"
)

// NodeID identifies a node of a Topology; Nil is the absent child.
type NodeID = tree.NodeID

// Nil is the absent-node sentinel.
const Nil = tree.Nil

// Topology is the shape of a binary tree: the index space of one recursion.
type Topology = tree.Topology

// TreeBuilder constructs Topologies node by node.
type TreeBuilder = tree.Builder

// NewTreeBuilder returns a TreeBuilder with capacity for n nodes.
func NewTreeBuilder(n int) *TreeBuilder { return tree.NewBuilder(n) }

// NewBalancedTree builds a balanced binary tree with n nodes, IDs assigned
// in preorder.
func NewBalancedTree(n int) *Topology { return tree.NewBalanced(n) }

// NewPerfectTree builds a perfect binary tree of the given height in edges.
func NewPerfectTree(height int) *Topology { return tree.NewPerfect(height) }

// NewChainTree builds a degenerate right-spine tree — the recursion template
// over chains devolves into an ordinary nested loop.
func NewChainTree(n int) *Topology { return tree.NewChain(n) }

// NewRandomBST builds the shape of a random-insertion binary search tree.
func NewRandomBST(n int, seed int64) *Topology { return tree.NewRandomBST(n, seed) }

// Spec describes one instance of the nested recursion template.
type Spec = nest.Spec

// Exec executes a Spec under the transformed schedules.
type Exec = nest.Exec

// Stats holds the dynamic operation counts of a run.
type Stats = nest.Stats

// FlagMode selects the truncation-flag representation for irregular spaces.
type FlagMode = nest.FlagMode

// Truncation-flag representations: FlagSets is the paper's Fig 6(b) set
// protocol; FlagCounter is the §4.3 preorder-counter optimization.
const (
	FlagSets    = nest.FlagSets
	FlagCounter = nest.FlagCounter
)

// Variant selects an engine schedule. The four constructors are the
// canonical points of the composable schedule algebra; see Schedule for the
// general form.
type Variant = nest.Variant

// Schedule is a normalized composition of schedule transformations — code
// motion (twisting), interchange, strip mining, and inlining — the general
// form of the four Variant constructors. Every composition normalizes to
// the canonical form [inline(k)∘][stripmine(c)∘]core; schedules are
// legality-checked against dependence witnesses, and inline-free schedules
// lower exactly onto a Variant via Schedule.Variant. The zero value is the
// identity schedule.
type Schedule = algebra.Schedule

// ParseSchedule parses a schedule expression — terms joined by ∘ (or the
// ASCII "."), e.g. "stripmine(64)∘twist(flagged)" or "inline(2)∘twisted".
// Every Variant name ("original", "interchanged" or "interchange",
// "twisted", "twisted-cutoff[:N]") is a valid expression, and
// ParseSchedule(s.String()) == s for every schedule s.
func ParseSchedule(expr string) (Schedule, error) { return algebra.ParseSchedule(expr) }

// ScheduleOf expresses an engine variant as its canonical schedule:
// Original() = identity, Interchanged() = interchange, Twisted() =
// twist(flagged), TwistedCutoff(N) = stripmine(N)∘twist(flagged).
func ScheduleOf(v Variant) (Schedule, error) { return algebra.FromVariant(v) }

// New returns an Exec for the given spec.
func New(s Spec) (*Exec, error) { return nest.New(s) }

// MustNew is New that panics on error.
func MustNew(s Spec) *Exec { return nest.MustNew(s) }

// Original is the untransformed column-by-column schedule.
func Original() Variant { return nest.Original() }

// Interchanged is the row-by-row schedule of recursion interchange.
func Interchanged() Variant { return nest.Interchanged() }

// Twisted is parameterless recursion twisting.
func Twisted() Variant { return nest.Twisted() }

// TwistedCutoff is twisting with a cutoff: the schedule only twists while
// the tree held by the inner recursion is larger than cutoff.
func TwistedCutoff(cutoff int) Variant { return nest.TwistedCutoff(cutoff) }

// RunConfig configures a parallel run on the work-stealing executor: the
// schedule variant, worker count, spawn depth, optional context
// cancellation, and the per-task Spec hooks. See Exec.RunWith.
type RunConfig = nest.RunConfig

// RunResult reports a parallel run: merged Stats (identical across worker
// counts for a fixed SpawnDepth), per-worker Stats, and task and steal
// counts.
type RunResult = nest.RunResult

// DefaultSpawnDepth is the outer-tree depth at which the parallel executor
// stops splitting; see nest.DefaultSpawnDepth for why it is a constant.
const DefaultSpawnDepth = nest.DefaultSpawnDepth

// Pair is one iteration of the space: an outer and an inner tree node.
type Pair = sched.Pair

// Record executes variant v of spec s and returns the iterations in
// execution order (the spec's own Work still runs).
func Record(s Spec, v Variant) ([]Pair, error) { return sched.Record(s, v) }

// RenderGrid renders a recorded schedule as the iteration-space matrices of
// the paper's Fig 1(c)/4(b): each cell holds the iteration's position in the
// schedule.
func RenderGrid(outer, inner *Topology, pairs []Pair) string {
	return sched.Grid(outer, inner, pairs)
}

// CheckSchedule verifies that got is a permutation of reference that
// preserves per-column order — the paper's §3.3 soundness conditions for
// programs whose dependences are carried over the inner recursion.
func CheckSchedule(reference, got []Pair) error { return sched.Check(reference, got) }

// CheckShardedSchedule is CheckSchedule for the per-worker traces of a
// parallel run: the shards must jointly cover the reference exactly once,
// with every column whole and in reference order inside a single shard.
func CheckShardedSchedule(reference []Pair, shards [][]Pair) error {
	return sched.CheckSharded(reference, shards)
}

// LayoutKind names an arena layout pass: a storage-order factorization of a
// tree's node records that leaves every traversal's visit sequence — and
// hence the program result — unchanged while changing which cache lines the
// traversal touches (the complement of the schedule transformations above).
type LayoutKind = layout.Kind

// The arena layouts: BuildOrderLayout is the identity (nodes stay in arena
// build order at full stride); HotColdLayout splits each record into a hot
// traversal half; PreorderLayout stores nodes in preorder; ScheduleLayout
// stores them in first-touch order under a given schedule; VEBLayout uses
// cache-oblivious van Emde Boas blocking.
const (
	BuildOrderLayout = layout.BuildOrder
	HotColdLayout    = layout.HotCold
	PreorderLayout   = layout.Preorder
	ScheduleLayout   = layout.Schedule
	VEBLayout        = layout.VEB
)

// ParseLayout parses a LayoutKind from its String form ("buildorder",
// "hotcold", "preorder", "schedule", "veb", plus common aliases; "" is
// BuildOrderLayout).
func ParseLayout(name string) (LayoutKind, error) { return layout.ParseKind(name) }

// LayoutRemap is an old→new arena slot permutation; nil is the identity.
type LayoutRemap = layout.Remap

// RealizeLayout computes the slot permutation of a topology-determined
// layout (every kind except ScheduleLayout, whose order depends on a
// traversal — see internal/layout.Schemes).
func RealizeLayout(k LayoutKind, t *Topology) (LayoutRemap, error) {
	s, err := layout.Realize(k, t)
	if err != nil {
		return nil, err
	}
	return s.Remap, nil
}

// ApplyLayout physically repacks a topology under a remap: node old is
// stored at slot remap[old], with every edge re-indexed, so the returned
// tree is isomorphic to t and any traversal visits the same logical nodes
// in the same order.
func ApplyLayout(t *Topology, r LayoutRemap) (*Topology, error) { return layout.Apply(t, r) }

// Loc is an abstract memory location for dependence analysis.
type Loc = depcheck.Loc

// Footprint reports the locations one work(o, i) invocation reads and writes.
type Footprint = depcheck.Footprint

// DependenceKind classifies a program's dependence structure.
type DependenceKind = depcheck.Kind

// Dependence structures, in increasing strictness of what they permit:
// Independent (TJ, MM), InnerCarried (the dual-tree benchmarks; outer
// recursion parallel, transformations sound per §3.3), CrossColumn (the
// §3.3 sufficient condition fails).
const (
	Independent  = depcheck.Independent
	InnerCarried = depcheck.InnerCarried
	CrossColumn  = depcheck.CrossColumn
)

// DependenceResult is the outcome of AnalyzeDependences; its Sound method
// reports whether the §3.3 criterion held on the analyzed input.
type DependenceResult = depcheck.Result

// AnalyzeDependences executes the original schedule of s, recording every
// iteration's footprint, and classifies the dependence structure — the
// dynamic version of the soundness analysis the paper leaves to future work
// (§3.3). A Sound() result certifies interchange and twisting for the
// analyzed input.
func AnalyzeDependences(s Spec, fp Footprint, maxConflicts int) (DependenceResult, error) {
	return depcheck.Analyze(s, fp, maxConflicts)
}
