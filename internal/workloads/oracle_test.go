package workloads

import (
	"testing"

	"twist/internal/nest"
	"twist/internal/oracle"
)

// suiteNames mirrors Suite's fixed benchmark order, letting subtests build
// their own Instance (no shared mutable state) while running in parallel.
var suiteNames = []string{"TJ", "MM", "PC", "NN", "KNN", "VP"}

// The oracle acceptance gate: every workload × every generated schedule
// variant × both flag representations × the §4.2 cut on and off replays the
// baseline visit multiset with per-column order intact, and the parallel
// executor does the same at workers ∈ {1,4,8}.
func TestOracleSuiteDifferential(t *testing.T) {
	const scale, seed = 256, 11
	for k, name := range suiteNames {
		k, name := k, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := Suite(scale, seed)[k]
			spec := in.OracleSpec()
			g, err := oracle.Capture(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if g.Visits() == 0 {
				t.Fatalf("%s: empty golden trace", name)
			}
			for _, v := range []nest.Variant{
				nest.Original(), nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(64),
			} {
				for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
					for _, subtree := range []bool{false, true} {
						if vd := g.CheckVariant(spec, v, fm, subtree); !vd.OK {
							t.Fatalf("%s: %v", name, vd)
						}
					}
				}
			}
			if testing.Short() {
				return
			}
			for _, workers := range []int{1, 4, 8} {
				for _, v := range []nest.Variant{nest.Interchanged(), nest.Twisted()} {
					vd, err := g.CheckParallel(spec, nest.RunConfig{Variant: v, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !vd.OK {
						t.Fatalf("%s workers=%d: %v", name, workers, vd)
					}
				}
			}
		})
	}
}
