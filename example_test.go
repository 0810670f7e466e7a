package twist_test

import (
	"fmt"

	"twist"
)

// The paper's running example: joining two 7-node trees. Twisting visits
// the same 49 pairs in a cache-oblivious order.
func Example() {
	outer := twist.NewPerfectTree(2)
	inner := twist.NewPerfectTree(2)
	var pairs int
	exec := twist.MustNew(twist.Spec{
		Outer: outer,
		Inner: inner,
		Work:  func(o, i twist.NodeID) { pairs++ },
	})
	exec.Run(twist.Twisted())
	fmt.Println(pairs, "pairs,", exec.Stats.Twists, "twists")
	// Output: 49 pairs, 62 twists
}

// Recording a schedule and checking the §3.3 soundness conditions.
func ExampleCheckSchedule() {
	spec := twist.Spec{
		Outer: twist.NewPerfectTree(1),
		Inner: twist.NewPerfectTree(1),
		Work:  func(o, i twist.NodeID) {},
	}
	ref, _ := twist.Record(spec, twist.Original())
	tw, _ := twist.Record(spec, twist.Twisted())
	fmt.Println(twist.CheckSchedule(ref, tw))
	// Output: <nil>
}

// Classifying a program's dependence structure (§3.3): per-column state
// makes the outer recursion parallel, so the transformations are sound.
func ExampleAnalyzeDependences() {
	spec := twist.Spec{
		Outer: twist.NewBalancedTree(7),
		Inner: twist.NewBalancedTree(7),
		Work:  func(o, i twist.NodeID) {},
	}
	res, _ := twist.AnalyzeDependences(spec, func(o, i twist.NodeID) (reads, writes []twist.Loc) {
		perColumn := twist.Loc(o)
		return []twist.Loc{perColumn}, []twist.Loc{perColumn}
	}, 0)
	fmt.Println(res.Kind, res.Sound())
	// Output: inner-carried true
}
