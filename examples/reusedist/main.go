// reusedist reproduces the paper's §3.2 reuse-distance analysis: it runs the
// tree join under each schedule, feeds the node-access trace through an
// exact LRU stack-distance analyzer, and prints the Fig 5 CDF plus the
// paper's exact node-5 example sequences.
//
// Run with:
//
//	go run ./examples/reusedist [-n 1024]
package main

import (
	"flag"
	"fmt"
	"strings"

	"twist"
	"twist/internal/memsim"
	"twist/internal/workloads"
)

func main() {
	n := flag.Int("n", 1024, "nodes per tree (the paper's Fig 5 uses 1024)")
	flag.Parse()

	// First, the paper's exact example: accesses to inner-tree node 5 on
	// the 7-node trees (§3.2).
	fmt.Println("paper example (7-node trees), reuse distances of inner node 5:")
	for _, v := range []string{"original", "twisted"} {
		fmt.Printf("  %-13s %s\n", v, strings.Join(node5Distances(twist.MustParseSchedule(v)), " "))
	}
	fmt.Println()

	// Then the Fig 5 CDF at full size.
	fmt.Printf("Fig 5 CDF, tree join with %d-node trees:\n", *n)
	fmt.Printf("  %-8s %-10s %s\n", "r", "original", "twisted")
	orig := histogram(*n, twist.Schedule{})
	tw := histogram(*n, twist.MustParseSchedule("twisted"))
	for r := 1; r <= 4*(*n); r *= 2 {
		fmt.Printf("  %-8d %-10.4f %.4f\n", r, orig.CDF(r), tw.CDF(r))
	}
	fmt.Printf("mean finite reuse distance: original %.1f, twisted %.1f\n",
		orig.Mean(), tw.Mean())
}

// node5Distances replays the 7x7 example and formats the reuse distances of
// accesses to inner node 5 (preorder index 4), ∞ for the first.
func node5Distances(sch twist.Schedule) []string {
	in := workloads.TreeJoin(7, 1)
	ra := memsim.NewReuseAnalyzer()
	var out []string
	in.Reset()
	target := memsim.Addr(2<<30) + 4*64 // inner-node region, preorder index 4
	s := in.TracedSpec(func(a memsim.Addr) {
		d := ra.Access(a)
		if a != target {
			return
		}
		if d == memsim.Infinite {
			out = append(out, "∞")
		} else {
			out = append(out, fmt.Sprint(d))
		}
	})
	if _, err := twist.Run(twist.MustNew(s), twist.WithSchedule(sch)); err != nil {
		panic(err)
	}
	return out
}

func histogram(n int, sch twist.Schedule) *memsim.Histogram {
	in := workloads.TreeJoin(n, 1)
	ra := memsim.NewReuseAnalyzer()
	h := memsim.NewHistogram()
	in.Reset()
	s := in.TracedSpec(func(a memsim.Addr) { h.Add(ra.Access(a)) })
	if _, err := twist.Run(twist.MustNew(s), twist.WithSchedule(sch)); err != nil {
		panic(err)
	}
	return h
}
