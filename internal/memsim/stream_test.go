package memsim

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func smallHierarchy() *Hierarchy {
	return mustHierarchy(
		CacheConfig{Name: "L1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2},
		CacheConfig{Name: "L2", SizeBytes: 8 << 10, LineBytes: 64, Ways: 4},
	)
}

// A single-sink stream simulates the exact access order, so its stats are
// bit-identical to feeding the hierarchy directly.
func TestStreamMatchesDirectAccess(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	trace := make([]Addr, 100_000)
	for k := range trace {
		trace[k] = Addr(rng.Intn(1<<14) * 64)
	}
	direct := smallHierarchy()
	for _, a := range trace {
		direct.Access(a)
	}
	for _, batch := range []int{0, 1, 7, 4096} {
		streamed := smallHierarchy()
		st := NewStream(streamed, batch)
		sk := st.Sink()
		for _, a := range trace {
			sk.Emit(a)
		}
		st.Close()
		for k, want := range direct.Stats() {
			if got := streamed.Stats()[k]; got != want {
				t.Fatalf("batch %d, level %s: %+v, want %+v", batch, want.Name, got, want)
			}
		}
	}
}

// Merge mode: concurrent sinks interleave batches nondeterministically, but
// no access is lost — every level's access count matches the total emitted.
func TestStreamMergeCountsAllAccesses(t *testing.T) {
	t.Parallel()
	h := smallHierarchy()
	st := NewStream(h, 64)
	const producers, each = 8, 10_000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		sk := st.Sink()
		wg.Add(1)
		go func(p int, sk *Sink) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				sk.Emit(Addr((p*each + k) * 64))
			}
		}(p, sk)
	}
	wg.Wait()
	st.Close()
	if got := h.Stats()[0].Accesses; got != producers*each {
		t.Fatalf("L1 saw %d accesses, want %d", got, producers*each)
	}
}

// Regression test for the Close/Flush ordering bug: a Flush (or Emit batch)
// arriving after Close used to silently append to a trace that consumers
// had already treated as complete. Now it is a no-op with a recorded drop
// count.
func TestStreamFlushAfterCloseDropsAndCounts(t *testing.T) {
	t.Parallel()
	h := smallHierarchy()
	st := NewStream(h, 8)
	sk := st.Sink()
	for k := 0; k < 10; k++ {
		sk.Emit(Addr(k * 64))
	}
	st.Close()
	want := h.Stats()[0]
	if want.Accesses != 10 {
		t.Fatalf("pre-close accesses = %d, want 10", want.Accesses)
	}

	// A straggling producer keeps emitting after the pipeline shut down.
	for k := 0; k < 20; k++ {
		sk.Emit(Addr(k * 64))
	}
	sk.Flush()
	if got := h.Stats()[0]; got != want {
		t.Fatalf("post-close emissions reached the simulator: %+v, want %+v", got, want)
	}
	if got := st.Dropped(); got != 20 {
		t.Fatalf("Dropped() = %d, want 20", got)
	}

	// Close is idempotent and drops nothing new.
	st.Close()
	if got := st.Dropped(); got != 20 {
		t.Fatalf("Dropped() after second Close = %d, want 20", got)
	}

	// The drop counter reaches the observability layer.
	rec := recorderMap{}
	st.Publish(rec, "stream")
	if rec["stream.dropped"] != 20 || rec["stream.addresses"] != 10 {
		t.Fatalf("published counters = %v", rec)
	}
}

// recorderMap is a minimal obs.Recorder for counter assertions.
type recorderMap map[string]int64

func (m recorderMap) Count(name string, delta int64) { m[name] += delta }
func (m recorderMap) Time(string, time.Duration)     {}

// The streaming pipeline's point: emitting a long trace allocates nothing
// after setup — memory stays O(cache geometry + batch), not O(trace). Not
// parallel: AllocsPerRun counts the mallocs of every running goroutine.
func TestStreamEmitDoesNotAllocate(t *testing.T) {
	h := smallHierarchy()
	st := NewStream(h, 0)
	sk := st.Sink()
	var next Addr
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 3*DefaultBatch; k++ {
			sk.Emit(next)
			next += 64
		}
		sk.Flush()
	})
	if allocs != 0 {
		t.Fatalf("streaming emit allocated %.1f times per run, want 0", allocs)
	}
}
