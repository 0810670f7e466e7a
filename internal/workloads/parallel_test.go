package workloads

import (
	"testing"

	"twist/internal/nest"
)

// Every benchmark must produce its sequential checksum under the parallel
// executor, and — thanks to ForTask sharding and per-task pruning bounds —
// merged Stats identical across worker counts (run with -race in CI). Each
// bench gets its own parallel subtest with its own Suite instance, so the
// subtests share no mutable state and the checksum comparisons cannot
// interleave across benches.
func TestSuiteParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker suite sweep")
	}
	for k, name := range suiteNames {
		k, name := k, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := Suite(512, 3)[k]
			if in.ForTask == nil {
				t.Fatalf("%s: no ForTask sharding", in.Name)
			}
			want := in.Run(nest.Twisted(), nest.FlagCounter)
			wantSum := in.Checksum()
			base, err := in.RunWith(nest.RunConfig{Variant: nest.Twisted(), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := in.Checksum(); got != wantSum {
				t.Fatalf("1-worker checksum %#x != sequential %#x", got, wantSum)
			}
			if base.Stats.Work > want.Work*3 {
				t.Fatalf("decomposed run did %d work vs sequential %d — sharded bounds too loose",
					base.Stats.Work, want.Work)
			}
			for _, workers := range []int{2, 4, 8} {
				res, err := in.RunWith(nest.RunConfig{Variant: nest.Twisted(), Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := in.Checksum(); got != wantSum {
					t.Fatalf("w=%d: checksum %#x != sequential %#x", workers, got, wantSum)
				}
				if res.Stats != base.Stats {
					t.Fatalf("w=%d: merged stats differ from 1-worker run:\n got %v\nwant %v",
						workers, res.Stats, base.Stats)
				}
			}
		})
	}
}
