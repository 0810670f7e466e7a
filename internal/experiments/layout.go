package experiments

import (
	"fmt"

	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/workloads"
)

// --- Layout × schedule sweep (ROADMAP item 3; DESIGN.md §4.12) --------------

// LayoutRow is one (benchmark, schedule, layout) cell of the layout sweep:
// the simulated L2/L3 miss rates of the schedule's traversal with node
// addresses generated under the layout. Misses and accesses are the exact
// integer signals behind the rates — the bijection argument of §4.12 makes
// Accesses identical across layouts of one (benchmark, schedule) cell, so
// miss-count comparisons between layouts are exact, not float-rounded.
type LayoutRow struct {
	Bench    string
	Schedule string
	Layout   string
	L2, L3   float64
	L2Misses int64
	L3Misses int64
	Accesses int64
}

// layoutSchedules is the schedule axis of the sweep: the paper's baseline
// and its headline transformation. The layout×schedule product shows the
// spatial axis compounding with the temporal one.
func layoutSchedules() []nest.Variant {
	return []nest.Variant{nest.Original(), nest.Twisted()}
}

// LayoutSweep measures the layout × schedule product over the six
// benchmarks: for every schedule in {original, twisted} and every arena
// layout (buildorder, hotcold, preorder, schedule, veb), the traced
// traversal runs through the streaming cache simulation — single-sink
// sequential order, so every reported rate is deterministic — under the
// warmup/measure protocol of missRates. The schedule-order layout is
// realized per schedule: its first-touch recording run uses the same
// variant the cell measures, which is what makes the layout
// "schedule-aware".
func LayoutSweep(scale int, seed int64) ([]LayoutRow, error) {
	defer obs.Span(rec, "experiments.layout")()
	var rows []LayoutRow
	for _, in := range workloads.Suite(scale, seed) {
		for _, v := range layoutSchedules() {
			for _, kind := range layout.Kinds() {
				lin, err := in.UnderLayout(kind, v)
				if err != nil {
					return nil, fmt.Errorf("layout: %s/%v/%v: %w", in.Name, v, kind, err)
				}
				st, err := missRatesWith(lin, v, 1)
				if err != nil {
					return nil, fmt.Errorf("layout: %s/%v/%v: %w", in.Name, v, kind, err)
				}
				rows = append(rows, LayoutRow{
					Bench:    in.Name,
					Schedule: v.String(),
					Layout:   kind.String(),
					L2:       levelRate(st, 1),
					L3:       levelRate(st, 2),
					L2Misses: levelMisses(st, 1),
					L3Misses: levelMisses(st, 2),
					Accesses: levelAccesses(st, 0),
				})
			}
		}
	}
	return rows, nil
}

// levelMisses returns the miss count of level li (0 when the geometry is
// shallower), the exact integer behind levelRate.
func levelMisses(st []memsim.LevelStats, li int) int64 {
	if li >= len(st) {
		return 0
	}
	return st[li].Misses
}

// levelAccesses returns the access count of level li (0 when the geometry
// is shallower).
func levelAccesses(st []memsim.LevelStats, li int) int64 {
	if li >= len(st) {
		return 0
	}
	return st[li].Accesses
}

// LayoutWins counts the benchmarks on which a *reordering* layout
// (schedule-order or vEB) has strictly fewer L2 or L3 misses than the
// build-order baseline under at least one swept schedule — the acceptance
// signal of the layout subsystem, committed in BENCH_layout.json and gated
// in CI. Comparing integer miss counts is exact because every layout of a
// (benchmark, schedule) cell simulates the identical number of accesses.
func LayoutWins(rows []LayoutRow) int {
	type cell struct{ bench, sched string }
	base := make(map[cell]LayoutRow)
	for _, r := range rows {
		if r.Layout == layout.BuildOrder.String() {
			base[cell{r.Bench, r.Schedule}] = r
		}
	}
	won := make(map[string]bool)
	for _, r := range rows {
		if r.Layout != layout.Schedule.String() && r.Layout != layout.VEB.String() {
			continue
		}
		b, ok := base[cell{r.Bench, r.Schedule}]
		if !ok {
			continue
		}
		if r.L2Misses < b.L2Misses || r.L3Misses < b.L3Misses {
			won[r.Bench] = true
		}
	}
	return len(won)
}
