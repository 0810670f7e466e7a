package memsim

import (
	"math/rand"
	"testing"
)

func TestPredictMissesHandComputed(t *testing.T) {
	h := NewHistogram()
	for _, d := range []int{Infinite, Infinite, 0, 1, 3, 3, 8} {
		h.Add(d)
	}
	cases := []struct {
		cap  int
		want int64
	}{
		{1, 2 + 4}, // every finite distance >= 1 misses (d=0 hits)
		{2, 2 + 3}, // d=1 now hits; 3,3,8 miss
		{4, 2 + 1}, // only d=8 misses
		{16, 2},    // compulsory only
	}
	for _, c := range cases {
		if got := PredictMisses(h, c.cap); got != c.want {
			t.Fatalf("cap %d: predicted %d, want %d", c.cap, got, c.want)
		}
	}
}

// The inclusion property: a bigger cache never misses more.
func TestMissCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := NewHistogram()
	ra := NewReuseAnalyzer()
	for k := 0; k < 20000; k++ {
		h.Add(ra.Access(Addr(rng.Intn(700))))
	}
	caps := []int{1, 2, 4, 8, 16, 64, 256, 1024}
	curve := MissCurve(h, caps)
	for k := 1; k < len(curve); k++ {
		if curve[k] > curve[k-1] {
			t.Fatalf("miss curve not monotone at capacity %d: %v", caps[k], curve)
		}
	}
	if curve[0] <= curve[len(curve)-1] && curve[0] == 0 {
		t.Fatal("degenerate curve")
	}
}

// Cross-validation: the analytical prediction must equal the simulator
// exactly for a fully-associative LRU cache (single set).
func TestPredictionMatchesSimulatorExactly(t *testing.T) {
	for _, ways := range []int{4, 16, 64} {
		h := mustHierarchy(CacheConfig{Name: "FA", SizeBytes: ways * 64, LineBytes: 64, Ways: ways})
		hist := NewHistogram()
		ra := NewReuseAnalyzer()
		rng := rand.New(rand.NewSource(int64(ways)))
		for k := 0; k < 30000; k++ {
			line := Addr(rng.Intn(300))
			hist.Add(ra.Access(line))
			h.Access(line * 64)
		}
		if got, want := h.Stats()[0].Misses, PredictMisses(hist, ways); got != want {
			t.Fatalf("ways=%d: simulator %d, prediction %d", ways, got, want)
		}
	}
}

func TestPredictEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if PredictMisses(h, 8) != 0 || PredictMissRatio(h, 8) != 0 {
		t.Fatal("empty histogram predicted misses")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := mustHierarchy(CacheConfig{Name: "T", SizeBytes: 4 * 64, LineBytes: 64, Ways: 2})
	h.Access(0)
	h.Access(64)
	h.ResetStats()
	st := h.Stats()[0]
	if st.Accesses != 0 || st.Misses != 0 {
		t.Fatalf("stats not cleared: %+v", st)
	}
	h.Access(0) // still resident: must hit
	st = h.Stats()[0]
	if st.Misses != 0 {
		t.Fatal("ResetStats evicted contents")
	}
}
