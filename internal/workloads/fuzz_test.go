package workloads

import (
	"testing"

	"twist/internal/nest"
	"twist/internal/oracle"
)

// fuzzOracle drives one workload family through the semantic-equivalence
// oracle: build a small instance from the fuzzed parameters, purify it
// (OracleSpec freezes adaptive pruning bounds), capture the golden trace,
// and check one engine schedule plus one parallel configuration — the
// selector byte picks which — against it.
func fuzzOracle(f *testing.F, minN, maxN int, build func(n int, seed int64) *Instance) {
	f.Add(int64(1), uint16(48), uint8(2))
	f.Add(int64(7), uint16(96), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, rawN uint16, sel uint8) {
		n := minN + int(rawN)%(maxN-minN+1)
		in := build(n, seed)
		spec := in.OracleSpec()
		g, err := oracle.Capture(spec)
		if err != nil {
			t.Fatalf("%s n=%d seed=%d: capture: %v", in.Name, n, seed, err)
		}
		variants := []nest.Variant{
			nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(int(sel) * 4),
		}
		v := variants[int(sel)%len(variants)]
		fm := []nest.FlagMode{nest.FlagSets, nest.FlagCounter}[int(sel/3)%2]
		if vd := g.CheckVariant(spec, v, fm, sel%2 == 0); !vd.OK {
			t.Fatalf("%s n=%d seed=%d: %v", in.Name, n, seed, vd)
		}
		workers := []int{1, 2, 4, 8}[int(sel)%4]
		vd, err := g.CheckParallel(spec, nest.RunConfig{Variant: v, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !vd.OK {
			t.Fatalf("%s n=%d seed=%d workers=%d: %v", in.Name, n, seed, workers, vd)
		}
	})
}

func FuzzOracleTJ(f *testing.F) {
	fuzzOracle(f, 1, 96, func(n int, s int64) *Instance { return TreeJoin(n, s) })
}

func FuzzOracleMM(f *testing.F) {
	fuzzOracle(f, 1, 16, func(n int, s int64) *Instance { return MatMul(n, s) })
}

func FuzzOraclePC(f *testing.F) {
	fuzzOracle(f, 1, 192, func(n int, s int64) *Instance { return PointCorr(n, 0.4, s) })
}

func FuzzOracleNN(f *testing.F) {
	fuzzOracle(f, 1, 160, func(n int, s int64) *Instance { return NearestNeighbor(n, s) })
}

func FuzzOracleKNN(f *testing.F) {
	fuzzOracle(f, 16, 128, func(n int, s int64) *Instance { return KNearest(n, 5, s) })
}

func FuzzOracleVP(f *testing.F) {
	fuzzOracle(f, 16, 128, func(n int, s int64) *Instance { return VPKNearest(n, 10, s) })
}
