package twist_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twist"
	"twist/internal/nest"
)

// twisted is the schedule most tests run: parameterless recursion twisting.
var twisted = twist.MustParseSchedule("twisted")

// sumSpec builds a deterministic n×n join whose result lands in the returned
// atomic (safe for both sequential and parallel runs).
func sumSpec(n int) (twist.Spec, *atomic.Int64) {
	var sum atomic.Int64
	return twist.Spec{
		Outer: twist.NewBalancedTree(n),
		Inner: twist.NewBalancedTree(n),
		Work: func(o, i twist.NodeID) {
			sum.Add(int64(o)*31 + int64(i))
		},
	}, &sum
}

// The pinning contract of the unified entrypoint: Run with only a schedule
// is byte-identical to Exec.Run on the schedule's lowering — same Stats, same
// result — wrapped in the sequential RunResult shape.
func TestRunMatchesExecRun(t *testing.T) {
	for _, expr := range []string{"original", "interchanged", "twisted", "twisted-cutoff:8"} {
		sch := twist.MustParseSchedule(expr)
		v := sch.Variant()
		legacySpec, legacySum := sumSpec(127)
		legacy := twist.MustNew(legacySpec)
		legacy.Run(v)

		spec, sum := sumSpec(127)
		res, err := twist.Run(twist.MustNew(spec), twist.WithSchedule(sch))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Stats != legacy.Stats {
			t.Errorf("%v: Run stats %+v, Exec.Run stats %+v", v, res.Stats, legacy.Stats)
		}
		if sum.Load() != legacySum.Load() {
			t.Errorf("%v: Run result %d, Exec.Run result %d", v, sum.Load(), legacySum.Load())
		}
		if res.Workers != 1 || res.Tasks != 1 || len(res.PerWorker) != 1 {
			t.Errorf("%v: sequential result shape %+v", v, res)
		}
		if res.EngineOps <= 0 {
			t.Errorf("%v: engine ops %d", v, res.EngineOps)
		}
	}
}

// WithWorkers(n > 1) must be byte-identical to the legacy Exec.RunWith on
// the work-stealing executor.
func TestRunMatchesRunWith(t *testing.T) {
	legacySpec, legacySum := sumSpec(255)
	want, err := twist.MustNew(legacySpec).RunWith(nest.RunConfig{
		Variant: nest.Twisted(), Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	spec, sum := sumSpec(255)
	got, err := twist.Run(twist.MustNew(spec),
		twist.WithSchedule(twisted), twist.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats || got.Tasks != want.Tasks || got.EngineOps != want.EngineOps {
		t.Errorf("Run %+v, RunWith %+v", got, want)
	}
	if sum.Load() != legacySum.Load() {
		t.Errorf("Run result %d, RunWith result %d", sum.Load(), legacySum.Load())
	}
	if got.Workers != 4 {
		t.Errorf("workers %d, want 4", got.Workers)
	}
}

// What is left of the engine axis through the facade: one engine, whose
// overhead counter is one per recursion entry — EngineOps = OuterCalls +
// InnerCalls on sequential and parallel runs alike, published as the
// "nest.engine.ops" telemetry counter (DESIGN.md §4.13).
func TestRunEngineAxis(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		spec, _ := sumSpec(255)
		rec := &countRecorder{}
		res, err := twist.Run(twist.MustNew(spec),
			twist.WithSchedule(twisted), twist.WithWorkers(workers), twist.WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		if calls := res.Stats.OuterCalls + res.Stats.InnerCalls; res.EngineOps != calls {
			t.Errorf("workers=%d: engine ops %d, want OuterCalls+InnerCalls %d", workers, res.EngineOps, calls)
		}
		if rec.counts["nest.engine.ops"] != res.EngineOps {
			t.Errorf("workers=%d: engine telemetry %v", workers, rec.counts)
		}
	}
}

// WithSchedule lowers compositions onto the engine's canonical schedules:
// strip-mined twisting runs as the cutoff variant, and inlining, which
// changes generated code but not the visit order, is dropped.
func TestRunWithSchedule(t *testing.T) {
	for expr, v := range map[string]nest.Variant{
		"stripmine(8)∘twist(flagged)": nest.TwistedCutoff(8),
		"inline(2)∘twisted":           nest.Twisted(),
	} {
		spec, _ := sumSpec(127)
		res, err := twist.Run(twist.MustNew(spec), twist.WithSchedule(twist.MustParseSchedule(expr)))
		if err != nil {
			t.Fatal(err)
		}
		engSpec, _ := sumSpec(127)
		eng := twist.MustNew(engSpec)
		eng.Run(v)
		if res.Stats != eng.Stats {
			t.Errorf("%s: Run stats %+v, %v stats %+v", expr, res.Stats, v, eng.Stats)
		}
	}
}

// countRecorder is a concurrency-safe test Recorder.
type countRecorder struct {
	mu     sync.Mutex
	counts map[string]int64
	times  map[string]int
}

func (r *countRecorder) Count(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counts == nil {
		r.counts = map[string]int64{}
	}
	r.counts[name] += delta
}

func (r *countRecorder) Time(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.times == nil {
		r.times = map[string]int{}
	}
	r.times[name]++
}

// The sequential path honors the parallel executor's telemetry contract:
// the same keys, with the engine-overhead counter and carried dimensions
// pinned.
func TestRunTelemetryAndDimensions(t *testing.T) {
	spec, _ := sumSpec(127)
	rec := &countRecorder{}
	res, err := twist.Run(twist.MustNew(spec),
		twist.WithSchedule(twisted),
		twist.WithLayout(twist.VEBLayout),
		twist.WithRecorder(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{
		"nest.tasks":      1,
		"nest.workers":    1,
		"nest.engine.ops": res.EngineOps,
		"nest.layout.veb": 1,
	} {
		if got := rec.counts[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if rec.times["nest.run"] != 1 {
		t.Errorf("nest.run recorded %d times", rec.times["nest.run"])
	}

	// The default layout elides from telemetry, mirroring the serve API.
	spec2, _ := sumSpec(127)
	rec2 := &countRecorder{}
	if _, err := twist.Run(twist.MustNew(spec2),
		twist.WithLayout(twist.BuildOrderLayout), twist.WithRecorder(rec2)); err != nil {
		t.Fatal(err)
	}
	for key := range rec2.counts {
		if key == "nest.layout.buildorder" {
			t.Errorf("default layout leaked into telemetry: %v", rec2.counts)
		}
	}
}

// Cancellation and nil-Exec errors surface through the one entrypoint.
func TestRunErrors(t *testing.T) {
	if _, err := twist.Run(nil); err == nil {
		t.Error("Run(nil) succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, _ := sumSpec(255)
	if _, err := twist.Run(twist.MustNew(spec),
		twist.WithSchedule(twisted), twist.WithContext(ctx)); err == nil {
		t.Error("Run with a canceled context succeeded")
	}
}
