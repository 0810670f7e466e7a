package experiments

import (
	"testing"

	"twist/internal/layout"
	"twist/internal/workloads"
)

// TestLayoutSweepShape checks the sweep's structure and the acceptance
// signal at a small scale: six benchmarks × two schedules × five layouts,
// access counts identical across layouts of a cell (the §4.12 bijection
// argument), MM rows identical across layouts (matrix-only trace), and at
// least two benchmarks won by a reordering layout.
func TestLayoutSweepShape(t *testing.T) {
	const scale, seed = 512, 1
	rows, err := LayoutSweep(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	nKinds := len(layout.Kinds())
	want := len(workloads.Suite(scale, seed)) * len(layoutSchedules()) * nKinds
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	type cell struct{ bench, sched string }
	accesses := map[cell]int64{}
	for _, r := range rows {
		if r.Accesses <= 0 {
			t.Fatalf("%s/%s/%s: no accesses", r.Bench, r.Schedule, r.Layout)
		}
		c := cell{r.Bench, r.Schedule}
		if a, ok := accesses[c]; ok && a != r.Accesses {
			t.Errorf("%s/%s: access count varies across layouts (%d vs %d)", r.Bench, r.Schedule, a, r.Accesses)
		}
		accesses[c] = r.Accesses
	}
	// MM traces only matrix data, so every layout of an MM cell must report
	// identical miss counts.
	mm := map[string][2]int64{}
	for _, r := range rows {
		if r.Bench != "MM" {
			continue
		}
		m := [2]int64{r.L2Misses, r.L3Misses}
		if b, ok := mm[r.Schedule]; ok && b != m {
			t.Errorf("MM/%s: misses vary across layouts (%v vs %v)", r.Schedule, b, m)
		}
		mm[r.Schedule] = m
	}
	if wins := LayoutWins(rows); wins < 2 {
		t.Fatalf("LayoutWins = %d, want >= 2 (acceptance signal)", wins)
	}
}
