package nest

import (
	"testing"

	"twist/internal/obs"
	"twist/internal/tree"
)

// TestRunWithRecorder checks that a parallel run publishes its executor
// counters and merged operation counts into RunConfig.Recorder, and that
// the counter values agree with the returned RunResult.
func TestRunWithRecorder(t *testing.T) {
	outer := tree.NewPerfect(7)
	inner := tree.NewPerfect(7)
	spec := Spec{Outer: outer, Inner: inner, Work: func(o, i tree.NodeID) {}}

	m := obs.NewMemory()
	res, err := MustNew(spec).RunWith(RunConfig{Variant: Twisted(), Workers: 2, Recorder: m})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"nest.tasks": res.Tasks, "nest.steals": res.Steals,
		"nest.iterations": res.Stats.Iterations, "nest.work": res.Stats.Work,
	} {
		if got := m.Counter(name); got != want {
			t.Fatalf("%s counter %d, RunResult says %d", name, got, want)
		}
	}
	if _, ok := m.Timings()["nest.run"]; !ok {
		t.Fatalf("nest.run span missing (names: %v)", m.Names())
	}

	// A nil Recorder (the zero RunConfig) must keep working.
	e := MustNew(spec)
	if _, err := e.RunWith(RunConfig{Variant: Twisted(), Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsRecordCoversEveryField(t *testing.T) {
	s := Stats{
		OuterCalls: 1, InnerCalls: 2, Iterations: 3, Work: 4, TruncChecks: 5,
		FlagSets: 6, FlagClears: 7, SizeCompares: 8, Twists: 9, SubtreeCuts: 10,
		ExtraOps: 11,
	}
	m := obs.NewMemory()
	s.Record(m, "nest")
	want := map[string]int64{
		"nest.outer_calls": 1, "nest.inner_calls": 2, "nest.iterations": 3,
		"nest.work": 4, "nest.trunc_checks": 5, "nest.flag_sets": 6,
		"nest.flag_clears": 7, "nest.size_compares": 8, "nest.twists": 9,
		"nest.subtree_cuts": 10, "nest.extra_ops": 11, "nest.ops": s.Ops(),
	}
	got := m.Counters()
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("counter %s = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d counters, want %d: %v", len(got), len(want), got)
	}
	s.Record(nil, "nest") // must not panic
}
