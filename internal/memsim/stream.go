package memsim

import (
	"sync"

	"twist/internal/obs"
)

// Streaming trace pipeline.
//
// The original simulation flow materialized a full []Addr trace before
// feeding the hierarchy — O(iterations) memory, which at fig8b/fig9 scales
// dwarfs the caches being modeled. A Stream inverts that: each producer
// (worker goroutine) owns a Sink, a small ring buffer of addresses, and the
// simulator consumes full batches as they fill. Memory is
// O(cache geometry + workers·batch), independent of trace length.
//
// With a single Sink the simulated access order is exactly the emission
// order, so sequential results are bit-identical to the eager flow. With
// several Sinks (one per worker) the Stream becomes the merge mode: batches
// from different workers interleave in completion order, modeling the
// workers sharing one cache — the honest analogue of hardware threads on a
// shared LLC, where the interleaving is likewise timing-dependent.
//
// A Stream fronts one Simulator: the consume path runs the LRU walk inline
// under the stream lock, one full batch at a time.

// DefaultBatch is the default Sink capacity in addresses (32 KiB per sink).
const DefaultBatch = 4096

// Stream owns a Simulator and serializes batched access to it. A Stream is
// single-shot: Close flushes every sink and seals the stream; to replay
// another trace into the same simulator, build a fresh Stream around it.
type Stream struct {
	mu      sync.Mutex
	sim     Simulator
	batch   int
	sinks   []*Sink
	batches int64
	emitted int64
	closed  bool
	dropped int64 // addresses arriving after Close, counted and discarded
}

// NewStream wraps sim. batch <= 0 means DefaultBatch.
func NewStream(sim Simulator, batch int) *Stream {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Stream{sim: sim, batch: batch}
}

// Sink registers and returns a new producer buffer. Each concurrent
// producer must own its own Sink; a Sink itself is not safe for concurrent
// use.
func (st *Stream) Sink() *Sink {
	sk := &Sink{st: st, buf: make([]Addr, st.batch)}
	st.mu.Lock()
	st.sinks = append(st.sinks, sk)
	st.mu.Unlock()
	return sk
}

// consume replays one full batch into the simulator. After Close the batch
// is dropped and counted instead of silently extending the finished trace.
func (st *Stream) consume(as []Addr) {
	st.mu.Lock()
	if st.closed {
		st.dropped += int64(len(as))
		st.mu.Unlock()
		return
	}
	st.sim.AccessBatch(as)
	st.batches++
	st.emitted += int64(len(as))
	st.mu.Unlock()
}

// Publish emits the stream's pipeline counters into r under
// prefix.{batches,addresses,sinks,dropped}: how many batch flushes the
// simulator consumed, how many addresses flowed through in total, how many
// producer sinks are registered, and how many addresses arrived after Close
// and were discarded (nonzero dropped indicates a producer outliving the
// pipeline shutdown — a bug in the harness driving the stream).
func (st *Stream) Publish(r obs.Recorder, prefix string) {
	if r == nil {
		return
	}
	st.mu.Lock()
	batches, emitted, sinks, dropped := st.batches, st.emitted, int64(len(st.sinks)), st.dropped
	st.mu.Unlock()
	r.Count(prefix+".batches", batches)
	r.Count(prefix+".addresses", emitted)
	r.Count(prefix+".sinks", sinks)
	r.Count(prefix+".dropped", dropped)
}

// Dropped reports how many addresses were flushed or emitted after Close
// and discarded.
func (st *Stream) Dropped() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.dropped
}

// Close flushes every registered sink's partial batch and seals the stream.
// Call it after all producers have stopped emitting; afterwards the
// simulator's Stats cover the complete trace. Any flush or emission arriving
// after Close is a no-op recorded in the dropped counter — it can no longer
// silently append to a trace that consumers already treated as complete.
// Close is idempotent; a second Close drops nothing new.
func (st *Stream) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	sinks := st.sinks
	st.mu.Unlock()
	for _, sk := range sinks {
		sk.Flush()
	}
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
}

// Sink is one producer's ring buffer of trace addresses.
type Sink struct {
	st  *Stream
	buf []Addr
	n   int
}

// Emit appends one address, flushing the batch into the simulator when the
// buffer fills. The hot path is an array store and a counter increment; the
// Stream lock is only touched once per batch.
func (sk *Sink) Emit(a Addr) {
	sk.buf[sk.n] = a
	sk.n++
	if sk.n == len(sk.buf) {
		sk.st.consume(sk.buf)
		sk.n = 0
	}
}

// EmitBatch appends a whole run of addresses in order, flushing exactly as
// the buffer fills. It is equivalent to calling Emit for each element —
// identical batch boundaries, so simulated stats are bit-identical — but
// costs one copy and one flush test per run instead of per address. The
// traced-run harnesses use it to emit each visit's accesses as one batch
// (workloads.Instance.RunSink).
func (sk *Sink) EmitBatch(as []Addr) {
	for len(as) > 0 {
		n := copy(sk.buf[sk.n:], as)
		sk.n += n
		as = as[n:]
		if sk.n == len(sk.buf) {
			sk.st.consume(sk.buf)
			sk.n = 0
		}
	}
}

// Flush pushes any partial batch into the simulator. Flushing a closed
// Stream discards the batch and counts it as dropped.
func (sk *Sink) Flush() {
	if sk.n > 0 {
		sk.st.consume(sk.buf[:sk.n])
		sk.n = 0
	}
}
