package workloads

import (
	"testing"

	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/tree"
)

var schedules = []nest.Variant{
	nest.Original(), nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(32),
}

// The master soundness check of DESIGN.md §4.3: every benchmark computes an
// identical result under every schedule and both flag representations.
func TestAllBenchmarksAgreeAcrossSchedules(t *testing.T) {
	for _, in := range Suite(1024, 7) {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			in.Run(nest.Original(), nest.FlagCounter)
			want := in.Checksum()
			if want == 0 {
				t.Fatalf("%s: zero baseline checksum (degenerate workload?)", in.Name)
			}
			for _, v := range schedules {
				for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
					in.Run(v, fm)
					if got := in.Checksum(); got != want {
						t.Fatalf("%s/%v/%v: checksum %x, want %x", in.Name, v, fm, got, want)
					}
				}
			}
		})
	}
}

func TestMatMulComputesRealProduct(t *testing.T) {
	const n = 8
	in := MatMul(n, 3)
	in.Run(nest.Twisted(), nest.FlagCounter)
	tw := in.Checksum()
	in.Run(nest.Original(), nest.FlagCounter)
	if in.Checksum() != tw {
		t.Fatal("MM checksum differs between schedules")
	}
	// Cross-check one more property: checksum changes if the input changes.
	other := MatMul(n, 4)
	other.Run(nest.Original(), nest.FlagCounter)
	if other.Checksum() == tw {
		t.Fatal("different inputs gave identical checksums")
	}
}

func TestTreeJoinWorkCount(t *testing.T) {
	in := TreeJoin(255, 1)
	st := in.Run(nest.Twisted(), nest.FlagCounter)
	if st.Work != 255*255 {
		t.Fatalf("TJ work = %d, want %d", st.Work, 255*255)
	}
	if st.ExtraOps == 0 {
		t.Fatal("TJ ExtraOps not reported")
	}
}

func TestRangeTreeShape(t *testing.T) {
	topo, idx := rangeTree(16)
	if topo.Len() != 31 {
		t.Fatalf("range tree over 16 leaves has %d nodes, want 31", topo.Len())
	}
	var leaves []int32
	for n := tree.NodeID(0); int(n) < topo.Len(); n++ {
		if topo.IsLeaf(n) {
			if idx[n] < 0 {
				t.Fatalf("leaf %d has no index", n)
			}
			leaves = append(leaves, idx[n])
		} else if idx[n] >= 0 {
			t.Fatalf("internal node %d has leaf index %d", n, idx[n])
		}
	}
	if len(leaves) != 16 {
		t.Fatalf("%d leaves, want 16", len(leaves))
	}
	seen := map[int32]bool{}
	for _, l := range leaves {
		if seen[l] {
			t.Fatalf("leaf index %d duplicated", l)
		}
		seen[l] = true
	}
}

func TestTracedSpecEmitsAccesses(t *testing.T) {
	for _, in := range Suite(256, 9) {
		in.Reset()
		var n int64
		s := in.TracedSpec(func(a memsim.Addr) { n++ })
		e := nest.MustNew(s)
		e.Run(nest.Original())
		if n == 0 {
			t.Fatalf("%s: traced run emitted no accesses", in.Name)
		}
		// The traced spec must not perturb results.
		got := in.Checksum()
		in.Run(nest.Original(), nest.FlagCounter)
		if in.Checksum() != got {
			t.Fatalf("%s: tracing changed the result", in.Name)
		}
	}
}

func TestTraceAddressesDisjointPerStructure(t *testing.T) {
	in := PointCorr(512, 0.05, 3)
	in.Reset()
	regions := map[memsim.Addr]bool{}
	s := in.TracedSpec(func(a memsim.Addr) { regions[a>>30] = true })
	e := nest.MustNew(s)
	e.Run(nest.Original())
	if len(regions) < 3 {
		t.Fatalf("PC trace touched %d regions, want >= 3 (nodes x2, point data)", len(regions))
	}
}

func TestSuiteNamesAndDescriptions(t *testing.T) {
	want := []string{"TJ", "MM", "PC", "NN", "KNN", "VP"}
	suite := Suite(256, 1)
	if len(suite) != len(want) {
		t.Fatalf("suite has %d entries", len(suite))
	}
	for k, in := range suite {
		if in.Name != want[k] {
			t.Fatalf("suite[%d] = %s, want %s", k, in.Name, want[k])
		}
		if in.Description == "" {
			t.Fatalf("%s has empty description", in.Name)
		}
	}
}

// Dual-tree benchmarks must show the §4.2 iteration-overhead shape at suite
// scale: interchange >> twisted >= original.
func TestDualTreeIterationShape(t *testing.T) {
	in := PointCorr(2048, 0.03, 5)
	orig := in.Run(nest.Original(), nest.FlagCounter)
	inter := in.Run(nest.Interchanged(), nest.FlagCounter)
	tw := in.Run(nest.Twisted(), nest.FlagCounter)
	if !(inter.Iterations > tw.Iterations && tw.Iterations >= orig.Iterations) {
		t.Fatalf("iteration shape violated: orig=%d tw=%d inter=%d",
			orig.Iterations, tw.Iterations, inter.Iterations)
	}
}

// A traced pass allocates O(1) objects per run, not per visit: RunSink and
// RunEmit reuse one trace buffer, and the layout rewrite works in place.
// PC under the vEB layout doubles its visits from scale 512 to 1024, so an
// allocation on the per-visit path shows as a count that grows with scale.
// Not parallel: AllocsPerRun counts the mallocs of every running goroutine.
func TestTracedPassAllocationsDoNotScale(t *testing.T) {
	const bound = 16
	counts := func(scale int) (sink, emit float64) {
		in, err := ByName("PC", scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := in.UnderLayout(layout.VEB, nest.Twisted())
		if err != nil {
			t.Fatal(err)
		}
		sim := memsim.MustNew(memsim.Config{Levels: memsim.DefaultLevels()})
		defer sim.Close()
		st := memsim.NewStream(sim, 0)
		sk := st.Sink()
		var n int64
		sink = testing.AllocsPerRun(3, func() {
			if _, _, err := lin.RunSink(nil, nest.Twisted(), sk, nil); err != nil {
				t.Fatal(err)
			}
		})
		emit = testing.AllocsPerRun(3, func() {
			if _, _, err := lin.RunEmit(nil, nest.Twisted(), func(memsim.Addr) { n++ }, nil); err != nil {
				t.Fatal(err)
			}
		})
		st.Close()
		return sink, emit
	}
	sink512, emit512 := counts(512)
	sink1024, emit1024 := counts(1024)
	if sink512 != sink1024 || emit512 != emit1024 || sink1024 > bound || emit1024 > bound {
		t.Fatalf("allocations per traced pass: RunSink %.0f at scale 512, %.0f at 1024; RunEmit %.0f, %.0f; want equal and at most %d",
			sink512, sink1024, emit512, emit1024, bound)
	}
}
