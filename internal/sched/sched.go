// Package sched records and renders the schedules the transformations in
// internal/nest produce. Its grid rendering reproduces the iteration-space
// pictures of the paper's Fig 1(c) (original, column-by-column) and Fig 4(b)
// (twisted, with its emergent nested tiles) as text. Whether a recorded
// schedule is a legal reordering is the oracle's question (internal/oracle).
package sched

import (
	"fmt"
	"strings"

	"twist/internal/nest"
	"twist/internal/oracle"
	"twist/internal/tree"
)

// Record executes variant v of spec s and returns the sequence of iterations
// in execution order. The spec's own Work (if any) still runs.
func Record(s nest.Spec, v nest.Variant) ([]oracle.Visit, error) {
	var pairs []oracle.Visit
	work := s.Work
	if work == nil {
		work = func(o, i tree.NodeID) {}
	}
	s.Work = func(o, i tree.NodeID) {
		pairs = append(pairs, oracle.Visit{O: o, I: i})
		work(o, i)
	}
	e, err := nest.New(s)
	if err != nil {
		return nil, err
	}
	e.Run(v)
	return pairs, nil
}

// OuterLabel names outer-tree nodes the way the paper's figures do:
// A, B, C, … in preorder (wrapping to A1, B1, … beyond 26 nodes).
func OuterLabel(t *tree.Topology, n tree.NodeID) string {
	k := t.Order(n)
	letter := rune('A' + k%26)
	if cycle := k / 26; cycle > 0 {
		return fmt.Sprintf("%c%d", letter, cycle)
	}
	return string(letter)
}

// InnerLabel names inner-tree nodes 1, 2, 3, … in preorder, as in the paper.
func InnerLabel(t *tree.Topology, n tree.NodeID) string {
	return fmt.Sprintf("%d", t.Order(n)+1)
}

// Grid renders the iteration order as a matrix: one column per outer-tree
// node (preorder), one row per inner-tree node (preorder), each cell holding
// the 1-based position of that iteration in the schedule (". ." for skipped
// iterations of an irregular space). Reading the numbers in sequence traces
// the arrows of Fig 1(c)/4(b); tiles appear as blocks of consecutive values.
func Grid(outer, inner *tree.Topology, pairs []oracle.Visit) string {
	no, ni := outer.Len(), inner.Len()
	seq := make(map[oracle.Visit]int, len(pairs))
	for k, p := range pairs {
		seq[p] = k + 1
	}
	width := len(fmt.Sprint(len(pairs)))
	if width < 2 {
		width = 2
	}
	var b strings.Builder
	// Header row: outer labels.
	fmt.Fprintf(&b, "%*s", 4, "")
	for ok := int32(0); ok < int32(no); ok++ {
		fmt.Fprintf(&b, " %*s", width, OuterLabel(outer, outer.ByPreorder(ok)))
	}
	b.WriteByte('\n')
	for ik := int32(0); ik < int32(ni); ik++ {
		i := inner.ByPreorder(ik)
		fmt.Fprintf(&b, "%*s", 4, InnerLabel(inner, i))
		for ok := int32(0); ok < int32(no); ok++ {
			o := outer.ByPreorder(ok)
			if s, ok2 := seq[oracle.Visit{O: o, I: i}]; ok2 {
				fmt.Fprintf(&b, " %*d", width, s)
			} else {
				fmt.Fprintf(&b, " %*s", width, ".")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Order renders the schedule as the paper writes it: a sequence of labeled
// iterations "(A,1) (A,2) …", wrapped at the given number of entries per
// line (0 for a single line).
func Order(outer, inner *tree.Topology, pairs []oracle.Visit, perLine int) string {
	var b strings.Builder
	for k, p := range pairs {
		if k > 0 {
			if perLine > 0 && k%perLine == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, "(%s,%s)", OuterLabel(outer, p.O), InnerLabel(inner, p.I))
	}
	b.WriteByte('\n')
	return b.String()
}
