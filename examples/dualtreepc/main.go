// dualtreepc runs dual-tree 2-point correlation — the paper's PC benchmark —
// under every schedule, demonstrating how recursion twisting handles an
// irregular, outer-dependent truncation (the Score pruning of the dual-tree
// framework, §4) while preserving the exact result.
//
// Run with:
//
//	go run ./examples/dualtreepc [-n 20000] [-r 0.3]
package main

import (
	"flag"
	"fmt"
	"time"

	"twist"
	"twist/internal/dualtree"
	"twist/internal/geom"
	"twist/internal/kdtree"
	"twist/internal/nest"
)

func main() {
	n := flag.Int("n", 20000, "number of points")
	r := flag.Float64("r", 0.3, "correlation radius")
	flag.Parse()

	pts := geom.Generate(geom.Uniform, *n, 7)
	ix := kdtree.MustBuild(pts, 8)
	pc := dualtree.NewPC(ix, ix, *r)
	e := nest.MustNew(pc.Spec())

	fmt.Printf("point correlation: %d points, radius %.2f, kd-tree with %d nodes\n\n",
		*n, *r, ix.Topo.Len())
	fmt.Printf("%-16s %-14s %-14s %-12s %-10s %s\n",
		"schedule", "pairs<=r", "iterations", "pair ops", "twists", "time")

	var want int64 = -1
	for _, v := range []string{"original", "interchanged", "twisted", "twisted-cutoff:256"} {
		pc.Reset()
		t0 := time.Now()
		res, err := twist.Run(e, twist.WithSchedule(twist.MustParseSchedule(v)))
		if err != nil {
			panic(err)
		}
		dt := time.Since(t0)
		fmt.Printf("%-16v %-14d %-14d %-12d %-10d %v\n",
			v, pc.Count, res.Stats.Iterations, pc.PairOps, res.Stats.Twists, dt.Round(time.Millisecond))
		if want < 0 {
			want = pc.Count
		} else if pc.Count != want {
			panic(fmt.Sprintf("%v disagrees: %d != %d", v, pc.Count, want))
		}
	}

	fmt.Println("\nall schedules agree; note interchange's iteration blow-up (it cannot")
	fmt.Println("truncate recursion, §4.2) while twisting stays close to the original.")
}
