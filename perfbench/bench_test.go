package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the test checks the output against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *outcome {
	t.Helper()
	o := options{workload: workload, seed: seed, seconds: 1, trace: trace, root: "..", out: t.TempDir(), size: tinySizes()}
	out, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d ops failed", workload, seed, trace, out.failed, out.attempted)
	}
	return out
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s not printed", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// deterministic reports whether a per-layer metric is a count, or a ratio of
// counts, and so must repeat exactly between traced runs of one seed.
func deterministic(unit string) bool {
	return unit == "count" || unit == "bytes" || unit == "ratio"
}

func TestWorkloads(t *testing.T) {
	s := loadSpec(t)
	for _, w := range []string{"engine-direct", "serve-miss", "serve-hot"} {
		t.Run(w, func(t *testing.T) {
			// End-to-end metrics on two seeds: both clean, same metric set.
			for _, seed := range []int64{1, 2} {
				checkMetrics(t, tinyRun(t, w, seed, false).metrics, s.EndToEnd)
			}
			// Two traced runs of one seed: every count repeats exactly.
			a, b := tinyRun(t, w, 3, true), tinyRun(t, w, 3, true)
			checkMetrics(t, a.metrics, s.PerLayer)
			for _, e := range layerCatalog() {
				if deterministic(e.unit) && a.metrics[e.name] != b.metrics[e.name] {
					t.Errorf("%s: %v then %v in two traced runs of one seed", e.name, a.metrics[e.name].Value, b.metrics[e.name].Value)
				}
			}
		})
	}
}
