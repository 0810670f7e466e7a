package workloads

import (
	"testing"

	"twist/internal/nest"
	"twist/internal/oracle"
	"twist/internal/transform/algebra"
)

// legalVariants enumerates the schedule variants every legal completion of
// the identity schedule lowers onto for this instance's dependence
// witnesses — the algebra-driven axis of the engine-label differential
// (inlining is disabled: it changes generated code, not the visit order).
// Duplicate lowerings collapse.
func legalVariants(in *Instance) []nest.Variant {
	ws := algebra.FromSpec(in.Spec)
	legal := algebra.Complete(algebra.Identity(), ws, algebra.CompleteOptions{
		Cutoffs:   []int{0, 16},
		MaxInline: -1,
	})
	seen := map[nest.Variant]bool{}
	var out []nest.Variant
	for _, s := range legal {
		v := s.Variant()
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestEngineSuiteDifferential pins the engine label at the workloads level
// (DESIGN.md §4.13): across all six benchmarks × every legal schedule (via
// algebra.Complete), sequentially and at workers {1, 4}, a run labelled
// iterative reproduces the recursive run's Stats, tasks, EngineOps and
// checksum, and EngineOps is OuterCalls + InnerCalls. Runs race-clean under
// -race via the parallel-executor legs.
func TestEngineSuiteDifferential(t *testing.T) {
	const scale, seed = 256, 11
	for k, name := range suiteNames {
		k, name := k, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := Suite(scale, seed)[k]
			run := func(v nest.Variant, eng nest.Engine, workers int) nest.RunResult {
				if workers > 0 {
					res, err := in.RunWith(nest.RunConfig{Variant: v, Engine: eng, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				st, ops, err := in.RunSeq(nil, v, func(e *nest.Exec) { e.Engine = eng })
				if err != nil {
					t.Fatal(err)
				}
				return nest.RunResult{Stats: st, EngineOps: ops, Tasks: 1}
			}
			for _, v := range legalVariants(in) {
				for _, workers := range []int{0, 1, 4} {
					rec := run(v, nest.EngineRecursive, workers)
					recSum := in.Checksum()
					iter := run(v, nest.EngineIterative, workers)
					if iter.Stats != rec.Stats || iter.Tasks != rec.Tasks || iter.EngineOps != rec.EngineOps {
						t.Errorf("%v workers=%d: results diverge:\n iter %+v\n rec  %+v", v, workers, iter, rec)
					}
					if sum := in.Checksum(); sum != recSum {
						t.Errorf("%v workers=%d: checksum %x != recursive %x", v, workers, sum, recSum)
					}
					if calls := iter.Stats.OuterCalls + iter.Stats.InnerCalls; iter.EngineOps != calls {
						t.Errorf("%v workers=%d: engine ops %d != OuterCalls+InnerCalls %d", v, workers, iter.EngineOps, calls)
					}
				}
			}
		})
	}
}

// TestEngineSuiteOracle verdicts runs under the iterative engine label
// against golden traces of the original schedule: permutation equivalence
// with per-column order intact, sequentially and on the parallel executor.
func TestEngineSuiteOracle(t *testing.T) {
	const scale, seed = 256, 11
	for k, name := range suiteNames {
		k, name := k, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := Suite(scale, seed)[k]
			spec := in.OracleSpec()
			g, err := oracle.Capture(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range legalVariants(in) {
				if vd := g.CheckVariantOn(spec, nest.EngineIterative, v, nest.FlagCounter, false); !vd.OK {
					t.Fatalf("%s: %v", name, vd)
				}
			}
			vd, err := g.CheckParallel(spec, nest.RunConfig{
				Variant: nest.Twisted(), Engine: nest.EngineIterative, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !vd.OK {
				t.Fatalf("%s parallel: %v", name, vd)
			}
		})
	}
}
