// matmul demonstrates the paper's §7.2 observation: translating the two
// loops of a matrix multiplication into Cilk-style divide-and-conquer
// recursions and applying recursion twisting automatically yields a
// cache-oblivious-like schedule — multi-level tiling with no tile-size
// parameters.
//
// Run with:
//
//	go run ./examples/matmul [-n 512]
package main

import (
	"flag"
	"fmt"
	"time"

	"twist"
	"twist/internal/nest"
	"twist/internal/workloads"
)

func main() {
	n := flag.Int("n", 512, "matrix dimension")
	flag.Parse()

	in := workloads.MatMul(*n, 3)
	e := nest.MustNew(in.Spec)

	fmt.Printf("%s\n\n", in.Description)
	fmt.Printf("%-16s %-18s %-10s %s\n", "schedule", "checksum", "twists", "time")

	var want uint64
	for k, v := range []string{"original", "twisted", "twisted-cutoff:64"} {
		in.Reset()
		t0 := time.Now()
		res, err := twist.Run(e, twist.WithSchedule(twist.MustParseSchedule(v)))
		if err != nil {
			panic(err)
		}
		dt := time.Since(t0)
		sum := in.Checksum()
		fmt.Printf("%-16v %-18x %-10d %v\n", v, sum, res.Stats.Twists, dt.Round(time.Millisecond))
		if k == 0 {
			want = sum
		} else if sum != want {
			panic(fmt.Sprintf("%v computed a different product", v))
		}
	}

	fmt.Println("\nthe twisted schedule interleaves row and column ranges recursively,")
	fmt.Println("so blocks of A and B stay resident across dot products — multi-level")
	fmt.Println("tiling with no cache parameters (paper §7.2).")
}
