// matmul3 demonstrates the generalization the paper names as future work in
// §7.2: "generalize recursion twisting to more than two levels of
// recursion, to allow it to handle algorithms like matrix-matrix
// multiplication." It multiplies two n×n integer matrices as a triply
// nested recursion over three range trees (row i, column j, reduction index
// k) under the template order and under three-level twisting, checks that
// both compute the same product, and prints the simulated cache misses of
// the three operand streams.
//
// Run with:
//
//	go run ./examples/matmul3
package main

import (
	"fmt"
	"os"

	"twist/internal/memsim"
	"twist/internal/tree"
)

// dim is the matrix dimension.
const dim = 128

func main() {
	ti, ii := rangeTree(dim)
	tj, ij := rangeTree(dim)
	tk, ik := rangeTree(dim)
	a, b, c := make([]int64, dim*dim), make([]int64, dim*dim), make([]int64, dim*dim)
	for x := 0; x < dim; x++ {
		for y := 0; y < dim; y++ {
			a[x*dim+y] = int64(x*7 + y*3 + 1)
			b[x*dim+y] = int64(x*5 - y*2 + 4)
		}
	}

	// The three row-major int64 matrices live at disjoint simulated bases.
	sim := memsim.MustNew(memsim.Config{Levels: memsim.DefaultLevels()})
	defer sim.Close()
	addr := func(m, idx int) memsim.Addr { return memsim.Addr(m)<<32 | memsim.Addr(idx)*8 }
	e := MustNew(Spec{A: ti, B: tj, C: tk, Work: func(x, y, z tree.NodeID) {
		i, j, k := int(ii[x]), int(ij[y]), int(ik[z])
		if i < 0 || j < 0 || k < 0 {
			return
		}
		c[i*dim+j] += a[i*dim+k] * b[k*dim+j]
		sim.Access(addr(0, i*dim+k))
		sim.Access(addr(1, k*dim+j))
		sim.Access(addr(2, i*dim+j))
	}})

	fmt.Printf("%-10s %-18s %-10s %-12s %s\n", "schedule", "checksum", "twists", "L1 misses", "L2 misses")
	var want uint64
	for k, s := range []struct {
		name string
		run  func()
	}{{"original", e.RunOriginal}, {"twisted", e.RunTwisted}} {
		clear(c)
		sim.Reset()
		s.run()
		sum := uint64(14695981039346656037) // FNV-1a over the product
		for _, v := range c {
			sum = (sum ^ uint64(v)) * 1099511628211
		}
		st := sim.Stats()
		fmt.Printf("%-10s %-18x %-10d %-12d %d\n", s.name, sum, e.Stats.Twists, st[0].Misses, st[1].Misses)
		if k == 0 {
			want = sum
		} else if sum != want {
			fmt.Fprintf(os.Stderr, "matmul3: %s computed a different product\n", s.name)
			os.Exit(1)
		}
	}
}

// rangeTree builds a balanced binary range tree over the indices [0, n) —
// the recursive decomposition of one loop of the nest. idx maps each node
// to the index its leaf covers, or -1 for an interior node.
func rangeTree(n int) (*tree.Topology, []int32) {
	b := tree.NewBuilder(2*n - 1)
	var idx []int32
	var build func(lo, hi int32) tree.NodeID
	build = func(lo, hi int32) tree.NodeID {
		id := b.Add()
		if hi-lo == 1 {
			idx = append(idx, lo)
			return id
		}
		idx = append(idx, -1)
		mid := lo + (hi-lo)/2
		b.SetLeft(id, build(lo, mid))
		b.SetRight(id, build(mid, hi))
		return id
	}
	return b.MustBuild(build(0, int32(n))), idx
}
