// parallel demonstrates §7.3: the outer recursion's independence (the same
// property that makes twisting sound) makes it task-parallel — split the
// outer tree into subtree tasks, then apply twisting *within* each task once
// enough parallelism exists. The example runs a point-correlation count
// under sequential twisting and under the work-stealing executor and
// verifies the counts agree and the merged Stats are identical across
// worker counts.
//
// Run with:
//
//	go run ./examples/parallel [-n 20000] [-workers 4]
package main

import (
	"flag"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"twist"
	"twist/internal/geom"
	"twist/internal/kdtree"
	"twist/internal/nest"
	"twist/internal/tree"
)

func main() {
	n := flag.Int("n", 20000, "number of points")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	radius := flag.Float64("r", 0.2, "correlation radius")
	flag.Parse()

	pts := geom.Generate(geom.Uniform, *n, 5)
	ix := kdtree.MustBuild(pts, 8)
	r2 := *radius * *radius

	// A concurrency-safe PC: the pair count is an atomic (commutative
	// reduction), and Score state is read-only — the outer recursion is
	// parallel in the §3.3 sense.
	var count atomic.Int64
	spec := nest.Spec{
		Outer:      ix.Topo,
		Inner:      ix.Topo,
		Hereditary: true,
		TruncInner2: func(o, i tree.NodeID) bool {
			return ix.MinDist2(o, ix, i) > r2
		},
		Work: func(o, i tree.NodeID) {
			if !ix.Topo.IsLeaf(o) || !ix.Topo.IsLeaf(i) {
				return
			}
			var local int64
			for _, q := range ix.NodePoints(o) {
				for _, r := range ix.NodePoints(i) {
					if geom.Dist2(q, r) <= r2 {
						local++
					}
				}
			}
			count.Add(local)
		},
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("point correlation, %d points, r=%.2f, %d workers\n\n", *n, *radius, w)

	count.Store(0)
	t0 := time.Now()
	e := nest.MustNew(spec)
	twisted := twist.WithSchedule(twist.MustParseSchedule("twisted"))
	if _, err := twist.Run(e, twisted); err != nil {
		panic(err)
	}
	seq := time.Since(t0)
	want := count.Load()
	fmt.Printf("sequential twisted:        %8v  count=%d\n", seq.Round(time.Millisecond), want)

	// One worker first: the decomposition depends only on the spawn depth,
	// so this run's merged Stats are the determinism baseline.
	count.Store(0)
	base, err := twist.Run(e, twisted, twist.WithWorkers(1))
	if err != nil {
		panic(err)
	}

	count.Store(0)
	t0 = time.Now()
	res, err := twist.Run(e, twisted, twist.WithWorkers(w))
	if err != nil {
		panic(err)
	}
	par := time.Since(t0)
	fmt.Printf("stealing (%2d workers):     %8v  count=%d  speedup=%.2fx  tasks=%d steals=%d\n",
		res.Workers, par.Round(time.Millisecond), count.Load(),
		float64(seq)/float64(par), res.Tasks, res.Steals)

	if count.Load() != want {
		panic("parallel execution changed the result")
	}
	if res.Stats != base.Stats {
		panic("merged stats differ across worker counts")
	}
	fmt.Println("\ncounts agree and merged stats are identical across worker counts;")
	fmt.Println("per-task twisting preserves each task's locality")
}
