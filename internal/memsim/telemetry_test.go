package memsim

import (
	"testing"

	"twist/internal/obs"
)

// TestEvictionCounting pins the eviction counter's semantics on a
// direct-mapped two-set cache: installs into empty ways are misses but not
// evictions; replacing a resident line is both.
func TestEvictionCounting(t *testing.T) {
	h := mustHierarchy(CacheConfig{Name: "L1", SizeBytes: 128, LineBytes: 64, Ways: 1})
	line := func(k int) Addr { return Addr(k * 64) }

	h.Access(line(0)) // cold install, set 0
	h.Access(line(1)) // cold install, set 1
	st := h.Stats()[0]
	if st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("cold installs: misses=%d evictions=%d, want 2/0", st.Misses, st.Evictions)
	}

	h.Access(line(2)) // set 0, evicts line 0
	h.Access(line(0)) // set 0, evicts line 2
	h.Access(line(0)) // hit
	st = h.Stats()[0]
	if st.Accesses != 5 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("got accesses=%d misses=%d evictions=%d, want 5/4/2", st.Accesses, st.Misses, st.Evictions)
	}

	h.ResetStats()
	if st = h.Stats()[0]; st.Evictions != 0 {
		t.Fatalf("ResetStats left evictions=%d", st.Evictions)
	}
	h.Access(line(1)) // still resident: contents survive ResetStats
	if st = h.Stats()[0]; st.Misses != 0 {
		t.Fatalf("line 1 evicted by ResetStats: %+v", st)
	}
	h.Reset()
	h.Access(line(1))
	if st = h.Stats()[0]; st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("Reset did not clear contents: %+v", st)
	}
}

func TestHierarchyAndStreamPublish(t *testing.T) {
	h := mustHierarchy(
		CacheConfig{Name: "L1", SizeBytes: 128, LineBytes: 64, Ways: 1},
		CacheConfig{Name: "L2", SizeBytes: 256, LineBytes: 64, Ways: 1},
	)
	st := NewStream(h, 4)
	sk := st.Sink()
	for k := 0; k < 10; k++ {
		sk.Emit(Addr(k * 64))
	}
	st.Close()

	m := obs.NewMemory()
	h.Publish(m, "memsim")
	st.Publish(m, "memsim.stream")
	if got := m.Counter("memsim.L1.accesses"); got != 10 {
		t.Fatalf("L1 accesses counter = %d, want 10", got)
	}
	stats := h.Stats()[0]
	if got := m.Counter("memsim.L1.hits"); got != stats.Accesses-stats.Misses {
		t.Fatalf("L1 hits counter = %d, want %d", got, stats.Accesses-stats.Misses)
	}
	if got := m.Counter("memsim.L1.evictions"); got != stats.Evictions {
		t.Fatalf("L1 evictions counter = %d, want %d", got, stats.Evictions)
	}
	// 10 addresses at batch 4 = 2 full batches + 1 partial flush.
	if got := m.Counter("memsim.stream.batches"); got != 3 {
		t.Fatalf("stream batches = %d, want 3", got)
	}
	if got := m.Counter("memsim.stream.addresses"); got != 10 {
		t.Fatalf("stream addresses = %d, want 10", got)
	}
	// Publishing into a nil recorder must be a no-op, not a panic.
	h.Publish(nil, "x")
	st.Publish(nil, "x")
}
