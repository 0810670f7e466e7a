package oracle

import (
	"testing"

	"twist/internal/nest"
)

// FuzzOracleRandomSpaces is the oracle's own randomized differential test:
// one seed determines a whole space — tree shapes (balanced, chains, skewed,
// BSTs, kd/vp point sets), sizes, and pure truncation predicates — and every
// engine schedule plus one parallel configuration must replay its baseline
// trace as a legal permutation. Any divergence the fuzzer finds is a real
// engine or oracle bug reproducible from the single seed.
func FuzzOracleRandomSpaces(f *testing.F) {
	for _, seed := range []int64{1, 2, 17, 99} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		spec, desc := RandomSpec(seed, 56)
		g, err := Capture(spec)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		cutoff := int(uint64(seed) % 16)
		for _, v := range allVariants(cutoff) {
			for _, fm := range []nest.FlagMode{nest.FlagSets, nest.FlagCounter} {
				if vd := g.CheckVariant(spec, v, fm, true); !vd.OK {
					t.Fatalf("%s: %v", desc, vd)
				}
			}
		}
		vd, err := g.CheckParallel(spec, nest.RunConfig{Variant: nest.Twisted(), Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if !vd.OK {
			t.Fatalf("%s: parallel: %v", desc, vd)
		}
	})
}
