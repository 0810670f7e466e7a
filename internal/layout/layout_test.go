package layout

import (
	"testing"

	"twist/internal/geom"
	"twist/internal/kdtree"
	"twist/internal/nest"
	"twist/internal/tree"
)

// topologies returns a spread of tree shapes: balanced, perfect, degenerate
// chain, and random BSTs — the quick-check corpus for the remap passes.
func topologies(t *testing.T) map[string]*tree.Topology {
	t.Helper()
	out := map[string]*tree.Topology{
		"balanced-1":    tree.NewBalanced(1),
		"balanced-2":    tree.NewBalanced(2),
		"balanced-127":  tree.NewBalanced(127),
		"balanced-1000": tree.NewBalanced(1000),
		"perfect-6":     tree.NewPerfect(6),
		"chain-33":      tree.NewChain(33),
		"bst-257":       tree.NewRandomBST(257, 1),
		"bst-1023":      tree.NewRandomBST(1023, 7),
	}
	return out
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	aliases := map[string]Kind{
		"":              BuildOrder,
		"identity":      BuildOrder,
		"Build-Order":   BuildOrder,
		"hot-cold":      HotCold,
		"VEB":           VEB,
		"van-emde-boas": VEB,
		"first-touch":   Schedule,
		"Schedule":      Schedule,
	}
	for name, want := range aliases {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("zorder"); err == nil {
		t.Error("ParseKind(zorder) succeeded, want error")
	}
}

// TestRemapsArePermutations is the quick-check the ISSUE names: every remap
// pass must produce a permutation on every topology shape.
func TestRemapsArePermutations(t *testing.T) {
	for name, topo := range topologies(t) {
		for _, r := range []struct {
			pass  string
			remap Remap
		}{
			{"preorder", PreorderRemap(topo)},
			{"veb", VEBRemap(topo)},
		} {
			if len(r.remap) != topo.Len() {
				t.Fatalf("%s/%s: remap has %d entries for %d nodes", name, r.pass, len(r.remap), topo.Len())
			}
			if err := r.remap.Validate(); err != nil {
				t.Errorf("%s/%s: %v", name, r.pass, err)
			}
		}
	}
}

// TestPreorderIsIdentityOnBuilders pins the invariant the package doc
// states: the benchmark builders (balanced trees, chains, kd/vp arenas)
// assign IDs in preorder, so the preorder remap is the identity on their
// arenas. Random-insertion BSTs assign IDs in insertion order, so there the
// remap does real work — checked as a non-identity permutation above.
func TestPreorderIsIdentityOnBuilders(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 300, 9)
	for name, topo := range map[string]*tree.Topology{
		"balanced-1000": tree.NewBalanced(1000),
		"perfect-6":     tree.NewPerfect(6),
		"chain-33":      tree.NewChain(33),
		"kdtree-300":    kdtree.MustBuild(pts, 8).Topo,
	} {
		r := PreorderRemap(topo)
		for id, slot := range r {
			if int32(id) != slot {
				t.Fatalf("%s: preorder remap moves node %d to slot %d", name, id, slot)
			}
		}
	}
	bst := tree.NewRandomBST(257, 1)
	r := PreorderRemap(bst)
	identity := true
	for id, slot := range r {
		if int32(id) != slot {
			identity = false
		}
	}
	if identity {
		t.Error("preorder remap of a random BST is the identity; expected insertion order to differ")
	}
}

// TestVEBRootFirst checks the blocking property's anchor: the root is the
// first record of the packed arena, and the top half-height region occupies
// a contiguous prefix.
func TestVEBRootFirst(t *testing.T) {
	topo := tree.NewPerfect(6) // height 6, 127 nodes
	r := VEBRemap(topo)
	if r[topo.Root()] != 0 {
		t.Fatalf("veb root slot = %d, want 0", r[topo.Root()])
	}
	// Height 7 levels → top region = ceil(7/2) = 4 levels = 15 nodes: every
	// node of depth < 4 must sit in slots [0, 15).
	var depth func(n tree.NodeID) int
	depth = func(n tree.NodeID) int {
		if topo.Parent(n) == tree.Nil {
			return 0
		}
		return depth(topo.Parent(n)) + 1
	}
	for id := 0; id < topo.Len(); id++ {
		d := depth(tree.NodeID(id))
		in := r[id] < 15
		if (d < 4) != in {
			t.Errorf("node %d at depth %d packed at slot %d", id, d, r[id])
		}
	}
}

// TestVEBRemapMatchesReference pins VEBRemap's slot order to the plain
// recursive definition, which gives every region a frontier slice of its
// own: VEBRemap shares one frontier buffer across regions, and the slots it
// assigns must not change with that (the veb rows of the serve suite golden
// and the layout baseline depend on them).
func TestVEBRemapMatchesReference(t *testing.T) {
	reference := func(topo *tree.Topology) Remap {
		r := make(Remap, topo.Len())
		for id := range r {
			r[id] = -1
		}
		var next int32
		var assign func(root tree.NodeID, h int) []tree.NodeID
		assign = func(root tree.NodeID, h int) []tree.NodeID {
			if h == 1 {
				r[root] = next
				next++
				var below []tree.NodeID
				for _, c := range []tree.NodeID{topo.Left(root), topo.Right(root)} {
					if c != tree.Nil {
						below = append(below, c)
					}
				}
				return below
			}
			topH := (h + 1) / 2
			var below []tree.NodeID
			for _, m := range assign(root, topH) {
				below = append(below, assign(m, h-topH)...)
			}
			return below
		}
		if topo.Len() > 0 {
			assign(topo.Root(), topo.Height()+1)
		}
		fillUnassigned(r, next)
		return r
	}
	for name, topo := range topologies(t) {
		got, want := VEBRemap(topo), reference(topo)
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("%s: node %d at slot %d, reference slot %d", name, id, got[id], want[id])
			}
		}
	}
}

func TestScheduleRemapsFirstTouch(t *testing.T) {
	outer := tree.NewBalanced(63)
	inner := tree.NewBalanced(63)
	spec := nest.Spec{Outer: outer, Inner: inner, Work: func(o, i tree.NodeID) {}}
	for _, v := range []nest.Variant{nest.Original(), nest.Interchanged(), nest.Twisted()} {
		ro, ri, err := ScheduleRemaps(spec, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := ro.Validate(); err != nil {
			t.Fatalf("%v outer: %v", v, err)
		}
		if err := ri.Validate(); err != nil {
			t.Fatalf("%v inner: %v", v, err)
		}
		// Every schedule starts at (root, root).
		if ro[outer.Root()] != 0 || ri[inner.Root()] != 0 {
			t.Errorf("%v: roots at slots %d/%d, want 0/0", v, ro[outer.Root()], ri[inner.Root()])
		}
	}
	// Under the original schedule the inner tree is swept in preorder, so
	// first-touch order is exactly preorder — the identity on our arenas.
	_, ri, err := ScheduleRemaps(spec, nest.Original())
	if err != nil {
		t.Fatal(err)
	}
	for id, slot := range ri {
		if int32(id) != slot {
			t.Fatalf("original-schedule inner remap moves node %d to %d", id, slot)
		}
	}
}

func TestSchemeOffsets(t *testing.T) {
	topo := tree.NewBalanced(100)
	bo, err := Realize(BuildOrder, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !bo.Identity() {
		t.Error("buildorder scheme is not the identity")
	}
	if got := bo.Offset(3); got != 3*NodeBytes {
		t.Errorf("buildorder offset(3) = %d, want %d", got, 3*NodeBytes)
	}
	hc, err := Realize(HotCold, topo)
	if err != nil {
		t.Fatal(err)
	}
	if hc.Identity() {
		t.Error("hotcold scheme claims to be the identity")
	}
	if got := hc.Offset(3); got != 3*HotBytes {
		t.Errorf("hotcold offset(3) = %d, want %d", got, 3*HotBytes)
	}
	if _, err := Realize(Schedule, topo); err == nil {
		t.Error("Realize(Schedule) succeeded, want error directing to Schemes")
	}
}

// TestApplyIsomorphism checks the physical repacking pass: the rebuilt
// arena is the same tree under the ID translation newID = r[oldID].
func TestApplyIsomorphism(t *testing.T) {
	for name, topo := range topologies(t) {
		r := VEBRemap(topo)
		packed, err := Apply(topo, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if packed.Len() != topo.Len() {
			t.Fatalf("%s: repacked %d of %d nodes", name, packed.Len(), topo.Len())
		}
		if topo.Len() == 0 {
			continue
		}
		if packed.Root() != tree.NodeID(r[topo.Root()]) {
			t.Fatalf("%s: root %d, want %d", name, packed.Root(), r[topo.Root()])
		}
		for id := 0; id < topo.Len(); id++ {
			old := tree.NodeID(id)
			nw := tree.NodeID(r[id])
			if topo.Size(old) != packed.Size(nw) {
				t.Fatalf("%s: node %d size %d != repacked %d", name, id, topo.Size(old), packed.Size(nw))
			}
			for _, side := range []struct {
				oldC, newC tree.NodeID
			}{
				{topo.Left(old), packed.Left(nw)},
				{topo.Right(old), packed.Right(nw)},
			} {
				want := tree.Nil
				if side.oldC != tree.Nil {
					want = tree.NodeID(r[side.oldC])
				}
				if side.newC != want {
					t.Fatalf("%s: node %d child %d, want %d", name, id, side.newC, want)
				}
			}
		}
	}
}

func TestApplyRejectsBadRemap(t *testing.T) {
	topo := tree.NewBalanced(8)
	if _, err := Apply(topo, make(Remap, 4)); err == nil {
		t.Error("short remap accepted")
	}
	bad := PreorderRemap(topo)
	bad[0] = bad[1] // duplicate slot
	if _, err := Apply(topo, bad); err == nil {
		t.Error("non-permutation accepted")
	}
}

// TestApplyIndex repacks a kd-tree arena and checks that node payloads
// follow their nodes: NodePoints(r[n]) of the repacked index returns what
// NodePoints(n) returned, and the index still validates.
func TestApplyIndex(t *testing.T) {
	pts := geom.Generate(geom.Uniform, 500, 42)
	ix := kdtree.MustBuild(pts, 8)
	r := VEBRemap(ix.Topo)
	packed, err := ApplyIndex(ix, r)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ix.Topo.Len(); id++ {
		old := ix.NodePoints(tree.NodeID(id))
		nw := packed.NodePoints(tree.NodeID(r[id]))
		if len(old) != len(nw) {
			t.Fatalf("node %d: %d points, repacked %d", id, len(old), len(nw))
		}
		for k := range old {
			if old[k] != nw[k] {
				t.Fatalf("node %d point %d moved", id, k)
			}
		}
	}
}

func TestRemapInverse(t *testing.T) {
	topo := tree.NewRandomBST(301, 3)
	r := VEBRemap(topo)
	inv := r.Inverse()
	for id, slot := range r {
		if inv[slot] != int32(id) {
			t.Fatalf("inverse broken at node %d", id)
		}
	}
}
