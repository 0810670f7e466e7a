// Quickstart: schedule a nested recursion (the tree join of the paper's
// Fig 1a) under the original, interchanged, and twisted schedules using the
// public twist API, and render the resulting iteration-space orders.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"twist"
)

func main() {
	// The paper's running example: two perfect 7-node trees.
	outer := twist.NewPerfectTree(2)
	inner := twist.NewPerfectTree(2)

	// The "work" of the join: here we just sum a function of the two node
	// ids. Any pure-per-pair computation keeps every schedule sound.
	var sum int64
	spec := twist.Spec{
		Outer: outer,
		Inner: inner,
		Work: func(o, i twist.NodeID) {
			sum += int64(o) * 7 * int64(i)
		},
	}

	exec := twist.MustNew(spec)
	reference, _ := twist.Record(spec, twist.Schedule{})

	for _, v := range []string{"original", "interchanged", "twisted"} {
		sch := twist.MustParseSchedule(v)
		sum = 0
		res, err := twist.Run(exec, twist.WithSchedule(sch))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-13s sum=%-8d twists=%-3d\n", v, sum, res.Stats.Twists)

		pairs, err := twist.Record(spec, sch)
		if err != nil {
			panic(err)
		}
		if err := twist.CheckSchedule(reference, pairs); err != nil {
			panic(fmt.Sprintf("%v schedule unsound: %v", v, err))
		}
		fmt.Print(twist.RenderGrid(outer, inner, pairs))
		fmt.Println()
	}

	// At larger scale, the twisted schedule visits exactly the same pairs —
	// just in a cache-friendlier order.
	big := twist.Spec{
		Outer: twist.NewBalancedTree(1 << 10),
		Inner: twist.NewBalancedTree(1 << 10),
		Work:  func(o, i twist.NodeID) {},
	}
	res, err := twist.Run(twist.MustNew(big), twist.WithSchedule(twist.MustParseSchedule("twisted")))
	if err != nil {
		panic(err)
	}
	fmt.Printf("1024x1024 twisted: %d iterations, %d orientation switches\n",
		res.Stats.Work, res.Stats.Twists)
}
