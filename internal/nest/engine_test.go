package nest

import (
	"context"
	"reflect"
	"testing"

	"twist/internal/tree"
)

// The engine label selects nothing (DESIGN.md §4.13): a run labelled
// iterative has the recursive run's work order (not just multiset) and
// Stats, on regular, hereditary and general irregular spaces, for every
// variant and both flag modes, and EngineOps is OuterCalls + InnerCalls
// under either label.
func TestEnginesBitIdentical(t *testing.T) {
	t.Parallel()
	for name, s := range stealSpecs(t) {
		for _, v := range []Variant{Original(), Interchanged(), Twisted(), TwistedCutoff(3)} {
			for _, fm := range []FlagMode{FlagSets, FlagCounter} {
				var want []pair
				var wantStats Stats
				for _, eng := range Engines() {
					var e *Exec
					got := runPairs(t, s, v, func(x *Exec) { x.Flags, x.Engine, e = fm, eng, x })
					if eng == EngineRecursive {
						want, wantStats = got, e.Stats
					} else if !reflect.DeepEqual(got, want) || e.Stats != wantStats {
						t.Fatalf("%s/%v/%v: the iterative label changed the run", name, v, fm)
					}
					if calls := e.Stats.OuterCalls + e.Stats.InnerCalls; e.EngineOps() != calls {
						t.Fatalf("%s/%v/%v/%v: EngineOps %d != OuterCalls+InnerCalls %d", name, v, fm, eng, e.EngineOps(), calls)
					}
				}
			}
		}
	}
}

// RunWith contract extension: the Engine label changes neither the merged
// Stats nor the task decomposition, and RunResult.EngineOps is OuterCalls +
// InnerCalls at every worker count under either label.
func TestParallelEnginesIdentical(t *testing.T) {
	t.Parallel()
	s := irregularSpec(tree.NewRandomBST(300, 5), tree.NewRandomBST(280, 6), 31, true, 0.6)
	s.Work = func(o, i tree.NodeID) {}
	var base RunResult
	for _, eng := range Engines() {
		for _, workers := range []int{1, 3, 8} {
			res, err := MustNew(s).RunWith(RunConfig{Variant: Twisted(), Engine: eng, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if base.Tasks == 0 {
				base = res
			}
			if res.Stats != base.Stats || res.Tasks != base.Tasks {
				t.Fatalf("%v workers=%d: merged result diverges\n got %v (%d tasks)\nwant %v (%d tasks)",
					eng, workers, res.Stats, res.Tasks, base.Stats, base.Tasks)
			}
			if calls := res.Stats.OuterCalls + res.Stats.InnerCalls; res.EngineOps != calls {
				t.Fatalf("%v workers=%d: EngineOps %d != OuterCalls+InnerCalls %d", eng, workers, res.EngineOps, calls)
			}
		}
	}
}

// A run labelled iterative honours cancellation like any other: it stops
// promptly and surfaces ctx.Err.
func TestIterativeContextCancel(t *testing.T) {
	t.Parallel()
	const n = 1023
	s := regularSpec(tree.NewBalanced(n), tree.NewBalanced(n))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visits int
	s.Work = func(o, i tree.NodeID) {
		if visits++; visits == 400 {
			cancel()
		}
	}
	e := MustNew(s)
	e.Engine = EngineIterative
	if err := e.RunContext(ctx, Twisted()); err != context.Canceled || e.Stats.Work >= n*n {
		t.Fatalf("err = %v after %d of %d visits, want context.Canceled before the end", err, e.Stats.Work, n*n)
	}
}

func TestEngineStrings(t *testing.T) {
	t.Parallel()
	for _, eng := range Engines() {
		got, err := ParseEngine(eng.String())
		if err != nil || got != eng {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", eng.String(), got, err, eng)
		}
	}
	if Engine(99).String() != "unknown" {
		t.Fatal("out-of-range engine should print unknown")
	}
	if _, err := ParseEngine("flat"); err == nil {
		t.Fatal("ParseEngine should reject unknown names")
	}
	if _, err := ParseEngine(""); err == nil {
		t.Fatal("ParseEngine should reject the empty string")
	}
}
