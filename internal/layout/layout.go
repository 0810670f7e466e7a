// Package layout implements arena repacking passes for the spatial axis of
// the locality study: schedule-aware memory layouts for the arena trees the
// nested recursions traverse (ROADMAP item 3; the SoCal direction in
// PAPERS.md).
//
// The paper's transformations reorder the *temporal* sequence of (o, i)
// visits; every arena, however, still sits in build order, one cache line per
// node (workloads' §3.2 address model). This package opens the orthogonal
// *spatial* axis: a layout is a pass over an existing tree/kdtree/vptree
// arena that produces an old→new slot permutation (a Remap) plus a packed
// record stride, realized either physically — Apply/ApplyIndex rebuild the
// arena with nodes in the new order — or, equivalently under the simulated
// address model, at address-generation time (Scheme.Addr; DESIGN.md §4.12
// proves the equivalence). Because a layout only renames storage slots and
// never touches the traversal, every schedule visits the identical (o, i)
// sequence under every layout — oracle verdicts are layout-invariant by
// construction.
//
// Five passes are provided:
//
//	buildorder — the identity: one 64-byte line per node, in build order
//	             (the legacy model every pre-layout baseline was measured
//	             under).
//	hotcold    — hot/cold field splitting: the traversal-hot half of each
//	             node record (links, subtree size) is packed into its own
//	             arena at 32 bytes per node, build order preserved; the cold
//	             payload half moves to a separate arena the traversal never
//	             touches.
//	preorder   — hot/cold splitting plus preorder packing: hot records are
//	             stored in preorder. (The benchmark builders — balanced
//	             trees, range trees, kd/vp arenas — assign IDs in preorder
//	             already, so preorder ≡ hotcold on their arenas; the pass
//	             does real work for insertion-ordered or hand-built
//	             topologies.)
//	schedule   — hot/cold splitting plus first-touch packing: hot records
//	             are stored in the order a given schedule variant first
//	             touches the nodes, so the measured traversal walks its own
//	             arena nearly sequentially.
//	veb        — hot/cold splitting plus van Emde Boas blocking: the tree is
//	             split at half its height, the top half is laid out first,
//	             then each bottom subtree recursively — the cache-oblivious
//	             layout that keeps every root-to-node path within
//	             O(log_B n) blocks.
package layout

import (
	"fmt"
	"strings"

	"twist/internal/geom"
	"twist/internal/nest"
	"twist/internal/spatial"
	"twist/internal/tree"
)

// Record footprints of the address model: a full node record is one cache
// line (workloads' nodeStride); the traversal-hot half that the splitting
// passes pack is 32 bytes (two children, subtree size, preorder bounds).
const (
	NodeBytes = 64 // full node record: the paper's one-line-per-node model
	HotBytes  = 32 // traversal-hot record after hot/cold splitting
)

// Kind names an arena repacking pass.
type Kind uint8

// The five layout passes. BuildOrder is the zero value: the legacy
// one-line-per-node arena every pre-layout baseline was measured under.
const (
	BuildOrder Kind = iota
	HotCold
	Preorder
	Schedule
	VEB
)

// Kinds returns all layout kinds in canonical sweep order.
func Kinds() []Kind { return []Kind{BuildOrder, HotCold, Preorder, Schedule, VEB} }

// String returns the canonical name: "buildorder", "hotcold", "preorder",
// "schedule", "veb". ParseKind(k.String()) == k for every kind.
func (k Kind) String() string {
	switch k {
	case BuildOrder:
		return "buildorder"
	case HotCold:
		return "hotcold"
	case Preorder:
		return "preorder"
	case Schedule:
		return "schedule"
	case VEB:
		return "veb"
	}
	return fmt.Sprintf("layout(%d)", uint8(k))
}

// ParseKind parses a layout name, case-insensitively. The empty string,
// "identity", and "build-order" are aliases for BuildOrder; "van-emde-boas"
// and "vEB" for VEB; "firsttouch" and "schedule-order" for Schedule;
// "hot-cold" for HotCold.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "buildorder", "build-order", "identity":
		return BuildOrder, nil
	case "hotcold", "hot-cold":
		return HotCold, nil
	case "preorder", "pre-order":
		return Preorder, nil
	case "schedule", "schedule-order", "firsttouch", "first-touch":
		return Schedule, nil
	case "veb", "van-emde-boas":
		return VEB, nil
	}
	return 0, fmt.Errorf("layout: unknown layout %q (valid: buildorder, hotcold, preorder, schedule, veb)", name)
}

// Stride returns the packed record stride of the pass in bytes: NodeBytes
// for the legacy build-order arena, HotBytes for every splitting pass.
func (k Kind) Stride() int64 {
	if k == BuildOrder {
		return NodeBytes
	}
	return HotBytes
}

// Reorders reports whether the pass permutes node storage slots (as opposed
// to only splitting the record). On the preorder-ID arenas the benchmark
// builders produce, Preorder's permutation is the identity.
func (k Kind) Reorders() bool { return k == Preorder || k == Schedule || k == VEB }

// Remap is an old→new storage-slot table for one arena: Remap[id] is the
// packed slot of node id. A valid Remap is a permutation of [0, len).
// A nil Remap is the identity.
type Remap []int32

// Validate checks that r is a permutation of [0, len(r)).
func (r Remap) Validate() error {
	seen := make([]bool, len(r))
	for id, slot := range r {
		if slot < 0 || int(slot) >= len(r) {
			return fmt.Errorf("layout: node %d mapped to slot %d, want [0,%d)", id, slot, len(r))
		}
		if seen[slot] {
			return fmt.Errorf("layout: slot %d assigned twice", slot)
		}
		seen[slot] = true
	}
	return nil
}

// Slot returns the packed slot of id (the identity for a nil Remap).
func (r Remap) Slot(id tree.NodeID) int32 {
	if r == nil {
		return int32(id)
	}
	return r[id]
}

// Inverse returns the new→old table: Inverse()[slot] is the node stored at
// slot. r must be a valid permutation.
func (r Remap) Inverse() Remap {
	inv := make(Remap, len(r))
	for id, slot := range r {
		inv[slot] = int32(id)
	}
	return inv
}

// PreorderRemap returns the remap packing t's nodes in preorder. For the
// benchmark builders (which assign IDs in preorder) the result is the
// identity permutation; for insertion-ordered topologies it reorders.
func PreorderRemap(t *tree.Topology) Remap {
	r := make(Remap, t.Len())
	for id := range r {
		r[id] = t.Order(tree.NodeID(id))
	}
	return r
}

// VEBRemap returns the van Emde Boas remap of t: the tree is cut at half
// its height, the top region is laid out recursively, then each subtree
// hanging below the cut, recursively. Nodes of one height-√h region are
// therefore contiguous at every recursion level, which bounds the number of
// distinct blocks on any root-to-node path by O(log_B n) for every block
// size B at once — the cache-oblivious property. Works on arbitrary (not
// just perfect) topologies by cutting on depth.
func VEBRemap(t *tree.Topology) Remap {
	n := t.Len()
	r := make(Remap, n)
	for id := range r {
		r[id] = -1
	}
	var next int32
	// frontier is one buffer shared by every region. assign lays out the
	// first h levels of the subtree at root and appends the roots of the
	// subtrees hanging below level h to it. A split keeps its top region's
	// frontier in frontier[lo:hi] while the bottom regions append theirs
	// above it, then closes the gap, so nothing is allocated per region.
	var frontier []tree.NodeID
	var assign func(root tree.NodeID, h int)
	assign = func(root tree.NodeID, h int) {
		if root == tree.Nil {
			return
		}
		if h == 1 {
			r[root] = next
			next++
			if l := t.Left(root); l != tree.Nil {
				frontier = append(frontier, l)
			}
			if rt := t.Right(root); rt != tree.Nil {
				frontier = append(frontier, rt)
			}
			return
		}
		topH := (h + 1) / 2
		lo := len(frontier)
		assign(root, topH)
		hi := len(frontier)
		for k := lo; k < hi; k++ {
			assign(frontier[k], h-topH)
		}
		frontier = frontier[:lo+copy(frontier[lo:], frontier[hi:])]
	}
	if n > 0 {
		// Height()+1 levels cover the whole tree, so the frontier comes back
		// empty and every reachable node gets a slot.
		assign(t.Root(), t.Height()+1)
	}
	fillUnassigned(r, next)
	return r
}

// FirstTouch is the schedule-order slot rule for one arena: the k-th
// distinct node touched gets slot k. A node's slot is therefore fixed at
// its first touch, so a traversal can generate schedule-order addresses as
// it goes (workloads.Instance.SequentialLayout) instead of recording a
// whole run first (ScheduleRemaps); both use this one rule.
type FirstTouch struct {
	// Remap holds the slot of every node touched so far and -1 for the
	// rest, until Finish completes it.
	Remap Remap
	next  int32
}

// NewFirstTouch returns the rule for an arena of n nodes, none touched.
func NewFirstTouch(n int) *FirstTouch {
	r := make(Remap, n)
	for id := range r {
		r[id] = -1
	}
	return &FirstTouch{Remap: r}
}

// Touch gives id the next free slot if this is its first touch.
func (f *FirstTouch) Touch(id tree.NodeID) {
	if f.Remap[id] < 0 {
		f.Remap[id] = f.next
		f.next++
	}
}

// Finish gives every untouched node a slot after all touched ones, in build
// order, and returns the now complete permutation.
func (f *FirstTouch) Finish() Remap {
	fillUnassigned(f.Remap, f.next)
	return f.Remap
}

// ScheduleRemaps runs spec under schedule variant v and returns the
// first-touch remaps of the outer and inner arenas: node n is stored at
// slot k iff n was the k-th distinct node of its tree touched by a Work
// invocation. Nodes the schedule never touches (truncated subtrees of the
// irregular spaces) keep their relative build order after all touched
// nodes. The recording run executes spec.Work, so callers measuring a
// stateful workload should record on a scratch instance (same constructor,
// same seed) — first-touch order is deterministic for a fixed spec and
// variant, which is what makes the layout reproducible.
func ScheduleRemaps(spec nest.Spec, v nest.Variant) (outer, inner Remap, err error) {
	fo := NewFirstTouch(spec.Outer.Len())
	fi := NewFirstTouch(spec.Inner.Len())
	work := spec.Work
	spec.Work = func(o, i tree.NodeID) {
		fo.Touch(o)
		fi.Touch(i)
		if work != nil {
			work(o, i)
		}
	}
	e, err := nest.New(spec)
	if err != nil {
		return nil, nil, err
	}
	e.Run(v)
	return fo.Finish(), fi.Finish(), nil
}

// fillUnassigned gives every slot-less node (unreachable or never touched)
// a slot after all assigned ones, preserving build order among them, so the
// table stays a permutation.
func fillUnassigned(r Remap, next int32) {
	for id, slot := range r {
		if slot < 0 {
			r[id] = next
			next++
		}
	}
}

// Scheme is a realized layout for one arena: the slot permutation plus the
// packed record stride. The zero value is the build-order scheme.
type Scheme struct {
	Kind   Kind
	Remap  Remap // nil = identity
	Stride int64 // bytes between consecutive packed records
}

// Identity reports whether the scheme leaves the legacy address model
// untouched (build-order slots at the full NodeBytes stride).
func (s Scheme) Identity() bool {
	return s.Remap == nil && (s.Stride == 0 || s.Stride == NodeBytes)
}

// StrideBytes returns the scheme's record stride, defaulting the zero
// value to the legacy NodeBytes.
func (s Scheme) StrideBytes() int64 {
	if s.Stride == 0 {
		return NodeBytes
	}
	return s.Stride
}

// Offset returns the byte offset of node id's hot record within its arena.
func (s Scheme) Offset(id tree.NodeID) int64 {
	return int64(s.Remap.Slot(id)) * s.StrideBytes()
}

// Realize builds the Scheme of kind k over topology t. Schedule-order
// layouts depend on the traversal, not just the topology, and are built
// with Schemes instead.
func Realize(k Kind, t *tree.Topology) (Scheme, error) {
	s := Scheme{Kind: k, Stride: k.Stride()}
	switch k {
	case BuildOrder, HotCold:
		// identity permutation
	case Preorder:
		s.Remap = PreorderRemap(t)
	case VEB:
		s.Remap = VEBRemap(t)
	case Schedule:
		return Scheme{}, fmt.Errorf("layout: schedule-order layout needs a traversal; use Schemes")
	default:
		return Scheme{}, fmt.Errorf("layout: unknown kind %v", k)
	}
	return s, nil
}

// Schemes builds the outer and inner arena schemes of kind k for a nested
// recursion. For the schedule-order kind it records first-touch order by
// running spec under v (see ScheduleRemaps); every other kind depends only
// on the topologies.
func Schemes(k Kind, spec nest.Spec, v nest.Variant) (outer, inner Scheme, err error) {
	if k != Schedule {
		if outer, err = Realize(k, spec.Outer); err != nil {
			return Scheme{}, Scheme{}, err
		}
		inner, err = Realize(k, spec.Inner)
		return outer, inner, err
	}
	ro, ri, err := ScheduleRemaps(spec, v)
	if err != nil {
		return Scheme{}, Scheme{}, err
	}
	return Scheme{Kind: k, Remap: ro, Stride: k.Stride()},
		Scheme{Kind: k, Remap: ri, Stride: k.Stride()}, nil
}

// Apply physically repacks a topology arena: the returned Topology stores
// the node with old ID n at new ID r[n], with all links rewritten, so a
// traversal of the result visits the same tree with renamed IDs. The remap
// table is exactly the ID translation: newID = r[oldID]. Builders assign
// derived state (sizes, preorder numbering) from the rebuilt links, and the
// result is validated.
func Apply(t *tree.Topology, r Remap) (*tree.Topology, error) {
	if r == nil { // the identity remap: nothing to repack
		return t, nil
	}
	n := t.Len()
	if len(r) != n {
		return nil, fmt.Errorf("layout: remap has %d entries for %d nodes", len(r), n)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	b := tree.NewBuilder(n)
	for k := 0; k < n; k++ {
		b.Add()
	}
	for old := 0; old < n; old++ {
		id := tree.NodeID(old)
		if l := t.Left(id); l != tree.Nil {
			b.SetLeft(tree.NodeID(r[old]), tree.NodeID(r[l]))
		}
		if rt := t.Right(id); rt != tree.Nil {
			b.SetRight(tree.NodeID(r[old]), tree.NodeID(r[rt]))
		}
	}
	if n == 0 {
		return b.Build(tree.Nil)
	}
	return b.Build(tree.NodeID(r[t.Root()]))
}

// ApplyIndex physically repacks a spatial arena (kd-tree or vp-tree): the
// topology is repacked with Apply and the per-node payload slices (bounding
// boxes, point ranges) are permuted to match, so NodePoints(r[n]) of the
// result returns what NodePoints(n) returned. The point arrays themselves
// are shared, not copied: node repacking permutes node payloads only.
func ApplyIndex(ix *spatial.Index, r Remap) (*spatial.Index, error) {
	topo, err := Apply(ix.Topo, r)
	if err != nil {
		return nil, err
	}
	n := ix.Topo.Len()
	out := &spatial.Index{
		Topo:   topo,
		Points: ix.Points,
		Boxes:  make([]geom.Box, n),
		Start:  make([]int32, n),
		End:    make([]int32, n),
		Perm:   ix.Perm,
	}
	for old := 0; old < n; old++ {
		out.Boxes[r[old]] = ix.Boxes[old]
		out.Start[r[old]] = ix.Start[old]
		out.End[r[old]] = ix.End[old]
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
