package main

// The three-level engine. A triply-nested recursion — recursion A calling
// recursion B calling recursion C — defines a three-dimensional recursive
// iteration space A × B × C. The Original schedule is the template order
// (lexicographic in the three preorders). The Twisted schedule generalizes
// the pairwise size rule of Fig 4(a): whenever the outer role descends,
// roles are re-sorted so the *largest* remaining subtree is traversed
// outermost; the inner two dimensions are scheduled by ordinary two-level
// twisting.
//
// This is a locality trade, not cache-oblivious blocking at every level: on
// the 128×128 product of main.go (simulated 32 KiB L1, 256 KiB L2),
// twisting cuts L1 misses from 2,118,688 to 38,400 but raises L2 misses
// from 6,144 to 7,837. The original order already sits at the L2 compulsory
// floor of 3×2048 lines: each row of C needs one row of A and all of B,
// 130 KiB in all, which stays resident in L2.
//
// Scope: regular (untruncated) spaces whose iterations are independent or
// commutative — the loop-nest codes §7.2 targets. Irregular truncation in
// three dimensions is future work beyond even the paper's.

import (
	"errors"

	"twist/internal/tree"
)

// Spec is a three-level nested recursion over three binary index trees, with
// Work invoked at every triple (a, b, c).
type Spec struct {
	A, B, C *tree.Topology
	Work    func(a, b, c tree.NodeID)
}

func (s *Spec) validate() error {
	if s.A == nil || s.B == nil || s.C == nil {
		return errors.New("nest3: A, B, and C must be non-nil")
	}
	if s.Work == nil {
		return errors.New("nest3: Work must be non-nil")
	}
	return nil
}

// Stats counts scheduling operations.
type Stats struct {
	Work         int64
	SizeCompares int64
	Twists       int64 // role re-orderings that changed the outermost tree
}

// Exec runs a Spec.
type Exec struct {
	spec  Spec
	Stats Stats
}

// New returns an Exec for the spec.
func New(s Spec) (*Exec, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &Exec{spec: s}, nil
}

// MustNew is New that panics on error.
func MustNew(s Spec) *Exec {
	e, err := New(s)
	if err != nil {
		panic(err)
	}
	return e
}

// cursor is one dimension's position: which tree, where in it, and which
// Work argument slot it feeds.
type cursor struct {
	topo *tree.Topology
	node tree.NodeID
	slot int // 0 → a, 1 → b, 2 → c
}

func (c cursor) size() int32 { return c.topo.Size(c.node) }

// work dispatches to Spec.Work with the three cursors routed to their
// argument slots.
func (e *Exec) work(x, y, z cursor) {
	var args [3]tree.NodeID
	args[x.slot], args[y.slot], args[z.slot] = x.node, y.node, z.node
	e.Stats.Work++
	e.spec.Work(args[0], args[1], args[2])
}

// RunOriginal executes the template order: the full B × C space for each A
// node, the full C space for each B node within it — lexicographic in the
// three preorders.
func (e *Exec) RunOriginal() {
	e.Stats = Stats{}
	s := e.spec
	var recC func(a, b, c tree.NodeID)
	recC = func(a, b, c tree.NodeID) {
		if c == tree.Nil {
			return
		}
		e.Stats.Work++
		s.Work(a, b, c)
		recC(a, b, s.C.Left(c))
		recC(a, b, s.C.Right(c))
	}
	var recB func(a, b tree.NodeID)
	recB = func(a, b tree.NodeID) {
		if b == tree.Nil {
			return
		}
		recC(a, b, s.C.Root())
		recB(a, s.B.Left(b))
		recB(a, s.B.Right(b))
	}
	var recA func(a tree.NodeID)
	recA = func(a tree.NodeID) {
		if a == tree.Nil {
			return
		}
		recB(a, s.B.Root())
		recA(s.A.Left(a))
		recA(s.A.Right(a))
	}
	recA(s.A.Root())
}

// RunTwisted executes the three-dimensional twisted schedule.
func (e *Exec) RunTwisted() {
	e.Stats = Stats{}
	a := cursor{e.spec.A, e.spec.A.Root(), 0}
	b := cursor{e.spec.B, e.spec.B.Root(), 1}
	c := cursor{e.spec.C, e.spec.C.Root(), 2}
	e.tw3(sort3(a, b, c))
}

// sort3 orders three cursors by descending subtree size (stable on ties).
func sort3(x, y, z cursor) (cursor, cursor, cursor) {
	if y.size() > x.size() {
		x, y = y, x
	}
	if z.size() > x.size() {
		x, z = z, x
	}
	if z.size() > y.size() {
		y, z = z, y
	}
	return x, y, z
}

// tw3 processes the sub-space outer × mid × inn, with outer the (currently)
// largest tree: the outer node's "plane" {outer.node} × mid × inn runs as a
// two-level twisted schedule, then each outer child sub-space is re-sorted
// and recursed into.
func (e *Exec) tw3(outer, mid, inn cursor) {
	if outer.node == tree.Nil {
		return
	}
	e.tw2(outer, mid, inn)
	for _, c := range [2]tree.NodeID{outer.topo.Left(outer.node), outer.topo.Right(outer.node)} {
		child := cursor{outer.topo, c, outer.slot}
		e.Stats.SizeCompares += 2
		no, nm, ni := sort3(child, mid, inn)
		if no.slot != child.slot {
			e.Stats.Twists++
		}
		e.tw3(no, nm, ni)
	}
}

// tw2 runs the two-level twisted schedule (Fig 4a) over x × y for a fixed
// node of the third dimension.
func (e *Exec) tw2(fixed, x, y cursor) {
	if x.node == tree.Nil {
		return
	}
	e.tw2inner(fixed, x, y)
	for _, c := range [2]tree.NodeID{x.topo.Left(x.node), x.topo.Right(x.node)} {
		child := cursor{x.topo, c, x.slot}
		e.Stats.SizeCompares++
		if child.size() <= y.size() {
			e.Stats.Twists++
			e.tw2(fixed, y, child) // swapped orientation: roles exchange
		} else {
			e.tw2(fixed, child, y)
		}
	}
}

// tw2inner is the inner recursion of the two-level schedule: the full y
// subtree for fixed (fixed, x) nodes.
func (e *Exec) tw2inner(fixed, x, y cursor) {
	if y.node == tree.Nil {
		return
	}
	e.work(fixed, x, y)
	e.tw2inner(fixed, x, cursor{y.topo, y.topo.Left(y.node), y.slot})
	e.tw2inner(fixed, x, cursor{y.topo, y.topo.Right(y.node), y.slot})
}
