// Benchmarks regenerating each table and figure of the paper's evaluation
// (one Benchmark per artifact; cmd/nestbench prints the corresponding
// tables). Scales are reduced relative to cmd/nestbench defaults so the
// whole suite runs in minutes; EXPERIMENTS.md records full-scale runs.
package twist_test

import (
	"testing"

	"twist/internal/experiments"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/workloads"
)

// benchScale is the dual-tree point count used by the figure benchmarks.
const benchScale = 4096

// BenchmarkFig5 regenerates the Fig 5 reuse-distance CDF (tree join, two
// 1024-node trees, original vs twisted).
func BenchmarkFig5(b *testing.B) {
	for k := 0; k < b.N; k++ {
		rows := experiments.Fig5(1024, 1)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig7 regenerates Fig 7: wall-clock time of each benchmark under
// the baseline and twisted schedules. The speedup of a benchmark is the
// ratio of its "original" to its "twisted" sub-benchmark times.
func BenchmarkFig7(b *testing.B) {
	for _, in := range workloads.Suite(benchScale, 42) {
		in := in
		e := nest.MustNew(in.Spec)
		for _, v := range []nest.Variant{nest.Original(), nest.Twisted()} {
			v := v
			b.Run(in.Name+"/"+v.String(), func(b *testing.B) {
				for k := 0; k < b.N; k++ {
					in.Reset()
					e.Run(v)
				}
			})
		}
	}
}

// BenchmarkFig8a regenerates the Fig 8(a) instruction-overhead measurement
// (instrumented runs under the dynamic operation model).
func BenchmarkFig8a(b *testing.B) {
	for k := 0; k < b.N; k++ {
		rows := experiments.Fig8a(benchScale, 42)
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig8b regenerates one cell of Fig 8(b): a trace-driven cache
// simulation of the TJ benchmark under both schedules.
func BenchmarkFig8b(b *testing.B) {
	in := workloads.TreeJoin(2048, 42)
	for _, v := range []nest.Variant{nest.Original(), nest.Twisted()} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				h := experiments.SimHierarchy()
				in.Reset()
				s := in.TracedSpec(func(a memsim.Addr) { h.Access(a) })
				e := nest.MustNew(s)
				e.Run(v)
			}
		})
	}
}

// BenchmarkFig9 regenerates one sweep point of Fig 9 (PC at a single input
// size, speedup + miss rates).
func BenchmarkFig9(b *testing.B) {
	for k := 0; k < b.N; k++ {
		if _, err := experiments.Fig9([]int{2048}, 0.4, 42, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates the Fig 10 cutoff study at benchmark scale.
func BenchmarkFig10(b *testing.B) {
	for k := 0; k < b.N; k++ {
		if _, err := experiments.Fig10(2048, 0.4, []int{16, 256}, 42, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTblIters regenerates the §4.2 iteration-count comparison.
func BenchmarkTblIters(b *testing.B) {
	for k := 0; k < b.N; k++ {
		rows := experiments.TblIters(2048, 0.4, 42)
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}
