// spaceviz renders nested recursive iteration spaces and their schedules as
// text, reproducing the paper's Fig 1(c) (original order) and Fig 4(b)
// (twisted order). With -irregular it also shows the Fig 6(a) space, where
// an outer-dependent truncation skips part of one column.
//
// Usage:
//
//	spaceviz                       # 7x7 paper example, all schedules
//	spaceviz -height 3             # 15x15 trees
//	spaceviz -schedule twisted     # one schedule only
//	spaceviz -schedule twisted-cutoff:2
//	                               # twisting with the §7.1 cutoff
//	spaceviz -irregular            # the Fig 6(a) irregular space
package main

import (
	"flag"
	"fmt"
	"os"

	"twist/internal/nest"
	"twist/internal/sched"
	"twist/internal/transform/algebra"
	"twist/internal/tree"
)

func main() {
	var (
		height    = flag.Int("height", 2, "height of both perfect trees (2 gives the paper's 7-node example)")
		schedule  = flag.String("schedule", "all", "schedule: all, or any schedule-algebra expression (original, interchanged, twisted, twisted-cutoff[:N], stripmine(N)\u2218twist(flagged), ...)")
		irregular = flag.Bool("irregular", false, "apply the Fig 6(a) truncation: skip (B,2) and its descendants")
		order     = flag.Bool("order", false, "also print the schedule as a (label,label) sequence")
	)
	flag.Parse()

	outer := tree.NewPerfect(*height)
	inner := tree.NewPerfect(*height)
	spec := nest.Spec{Outer: outer, Inner: inner, Work: func(o, i tree.NodeID) {}}
	if *irregular {
		// Fig 6(a): the inner recursion truncates at (B, 2); with perfect
		// trees and preorder IDs, B is outer node 1 and 2 is inner node 1.
		spec.TruncInner2 = func(o, i tree.NodeID) bool { return o == 1 && i == 1 }
	}

	var variants []nest.Variant
	if *schedule == "all" {
		variants = []nest.Variant{nest.Original(), nest.Interchanged(), nest.Twisted()}
	} else {
		sc, err := algebra.ParseSchedule(*schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spaceviz: %v\n", err)
			os.Exit(2)
		}
		variants = []nest.Variant{sc.Variant()}
	}

	for _, v := range variants {
		pairs, err := sched.Record(spec, v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spaceviz: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("== %s schedule (%d iterations) ==\n", v, len(pairs))
		fmt.Print(sched.Grid(outer, inner, pairs))
		if *order {
			fmt.Println()
			fmt.Print(sched.Order(outer, inner, pairs, inner.Len()))
		}
		fmt.Println()
	}
}
