package memsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"twist/internal/obs"
)

// Set-partitioned parallel cache simulation.
//
// Set-associative LRU state is independent per cache set: the contents and
// the hit/miss/eviction outcome of a set depend only on the subsequence of
// accesses that map to it. A ShardedHierarchy exploits that by routing every
// address to one of W shards keyed on the set bits of the line address, and
// running W single-owner sequential simulators concurrently on lock-free
// SPSC batch queues. Because the set masks of a validated hierarchy are
// nested (power-of-two set counts sharing their low line-address bits), one
// routing key — the set bits of the smallest level — colocates all levels'
// sets, so every shard replays an order-preserved subsequence of the
// sequential trace against the exact sets it owns. The merged per-level
// totals are therefore bit-identical to the sequential simulator's, not
// approximately equal; DESIGN.md §4.8 gives the argument in full.

// shardQueueCap is the per-shard work-queue depth in batches. Deep enough to
// ride out shard imbalance bursts, shallow enough that a drain is prompt.
const shardQueueCap = 64

// ShardedHierarchy is the parallel Simulator: the routing half runs on the
// caller's goroutine, the LRU walks run on the shard workers. Like
// Hierarchy, the producer side (Access, AccessBatch, and the quiescing
// methods Stats/Reset/ResetStats/Publish/Close) must be confined to one
// goroutine at a time; Stream provides that serialization for concurrent
// trace producers.
type ShardedHierarchy struct {
	cfgs      []CacheConfig
	lineShift uint
	routeMask uint64 // set mask of the smallest level: the routing key bits
	batch     int

	shards  []*simShard
	stage   [][]Addr // per-shard partial batches, owned by the producer side
	pending atomic.Int64
	wg      sync.WaitGroup
	closed  bool
}

// simShard is one single-owner slice of the simulation. The counters are
// written only by the shard's worker goroutine and read by the producer side
// after a drain — the pending-counter handoff establishes the ordering.
type simShard struct {
	h    *Hierarchy
	q    *spscRing // router → worker: full batches
	free *spscRing // worker → router: spent buffers for reuse

	batches int64
	addrs   int64
	busy    time.Duration
}

// NewSharded builds a set-partitioned simulator with up to workers shards
// over the given levels (closest first). workers is clamped to the number of
// distinct routing keys — the set count of the smallest level — since finer
// partitioning than one shard per set cannot exist. batch <= 0 means
// DefaultBatch. Callers normally reach this through New with
// Config.SimWorkers > 1.
func NewSharded(cfgs []CacheConfig, workers, batch int) (*ShardedHierarchy, error) {
	if workers < 1 {
		return nil, fmt.Errorf("memsim: sharded simulator needs at least one worker, got %d", workers)
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	// Validate once up front (and compute the routing mask) before building
	// any per-shard state.
	probe, err := newHierarchy(cfgs...)
	if err != nil {
		return nil, err
	}
	minSets := int(probe.levels[0].setMask) + 1
	for _, l := range probe.levels {
		if sets := int(l.setMask) + 1; sets < minSets {
			minSets = sets
		}
	}
	if workers > minSets {
		workers = minSets
	}
	s := &ShardedHierarchy{
		cfgs:      append([]CacheConfig(nil), cfgs...),
		lineShift: probe.levels[0].lineShift,
		routeMask: uint64(minSets - 1),
		batch:     batch,
		shards:    make([]*simShard, workers),
		stage:     make([][]Addr, workers),
	}
	for k := range s.shards {
		h, err := newHierarchy(cfgs...)
		if err != nil {
			return nil, err
		}
		s.shards[k] = &simShard{h: h, q: newSPSC(shardQueueCap), free: newSPSC(shardQueueCap)}
		s.stage[k] = make([]Addr, 0, batch)
		s.wg.Add(1)
		go s.worker(s.shards[k])
	}
	return s, nil
}

// worker is one shard's consumer loop: pop a batch, walk the LRU state,
// recycle the buffer, signal completion. Decrementing pending after the walk
// is what lets a drained producer read this shard's state race-free.
func (s *ShardedHierarchy) worker(sh *simShard) {
	defer s.wg.Done()
	for {
		b, ok := sh.q.pop()
		if !ok {
			return
		}
		t0 := time.Now()
		sh.h.AccessBatch(b)
		sh.busy += time.Since(t0)
		sh.batches++
		sh.addrs += int64(len(b))
		sh.free.tryPush(b[:0])
		s.pending.Add(-1)
	}
}

// shardOf routes an address: the set bits of the smallest level pick the
// owning shard. Two addresses that share any level's set always share these
// bits (the masks are nested), so a set is owned by exactly one shard.
func (s *ShardedHierarchy) shardOf(a Addr) int {
	line := uint64(a) >> s.lineShift
	return int((line & s.routeMask) % uint64(len(s.shards)))
}

// Access routes one load to its owning shard, dispatching the shard's batch
// when it fills. The hot path is a shift, a mask, and an append.
func (s *ShardedHierarchy) Access(a Addr) {
	k := s.shardOf(a)
	s.stage[k] = append(s.stage[k], a)
	if len(s.stage[k]) == cap(s.stage[k]) {
		s.dispatch(k)
	}
}

// AccessBatch routes the loads of as in order. Per-shard order is the
// arrival order, so a sequential trace reaches every set in its sequential
// order — the invariant behind the bit-identical merge.
func (s *ShardedHierarchy) AccessBatch(as []Addr) {
	for _, a := range as {
		s.Access(a)
	}
}

// dispatch hands shard k's staged batch to its worker and arms a fresh
// buffer, preferring a recycled one. pending is raised before the push so a
// concurrent drain can never observe the batch as neither staged nor
// pending.
func (s *ShardedHierarchy) dispatch(k int) {
	sh := s.shards[k]
	s.pending.Add(1)
	if !sh.q.push(s.stage[k]) {
		s.pending.Add(-1) // closed ring: the batch is dropped, not in flight
		return
	}
	if nb, ok := sh.free.tryPop(); ok {
		s.stage[k] = nb
	} else {
		s.stage[k] = make([]Addr, 0, s.batch)
	}
}

// drain dispatches every partial staged batch and blocks until the shard
// workers have consumed everything in flight. On return, all shard state and
// counters are visible to the caller.
func (s *ShardedHierarchy) drain() {
	for k := range s.stage {
		if len(s.stage[k]) > 0 {
			s.dispatch(k)
		}
	}
	var w backoff
	for s.pending.Load() != 0 {
		w.wait()
	}
}

// Shards returns the number of shard workers actually running (NewSharded
// may have clamped the requested count to the routable set count).
func (s *ShardedHierarchy) Shards() int { return len(s.shards) }

// Stats drains the pipeline and returns the merged per-level statistics, L1
// first. Each set lives in exactly one shard, so the merge is an exact sum —
// bit-identical to the sequential simulator on the same trace.
func (s *ShardedHierarchy) Stats() []LevelStats {
	s.drain()
	out := make([]LevelStats, len(s.cfgs))
	for li, c := range s.cfgs {
		out[li].Name = c.Name
	}
	for _, sh := range s.shards {
		for li, st := range sh.h.Stats() {
			out[li].Accesses += st.Accesses
			out[li].Misses += st.Misses
			out[li].Evictions += st.Evictions
		}
	}
	return out
}

// Reset drains the pipeline, then clears every shard's contents and
// statistics, keeping the geometry.
func (s *ShardedHierarchy) Reset() {
	s.drain()
	for _, sh := range s.shards {
		sh.h.Reset()
	}
}

// ResetStats drains the pipeline, then clears the counters but keeps cache
// contents — the warmup/measure protocol of Hierarchy.ResetStats.
func (s *ShardedHierarchy) ResetStats() {
	s.drain()
	for _, sh := range s.shards {
		sh.h.ResetStats()
	}
}

// Publish drains the pipeline and emits the merged per-level counters under
// prefix.<level>.{accesses,hits,misses,evictions} exactly like
// Hierarchy.Publish, plus the per-shard pipeline view under
// prefix.shard<k>: batch and address counts and the shard's busy span (time
// spent walking LRU state, the parallelized portion of the simulation).
func (s *ShardedHierarchy) Publish(r obs.Recorder, prefix string) {
	if r == nil {
		return
	}
	s.drain()
	publishLevels(r, prefix, s.Stats())
	for k, sh := range s.shards {
		p := fmt.Sprintf("%s.shard%d", prefix, k)
		r.Count(p+".batches", sh.batches)
		r.Count(p+".addresses", sh.addrs)
		r.Time(p+".busy", sh.busy)
	}
}

// Close drains the pipeline and stops the shard workers. The merged Stats
// remain readable afterwards; further Access calls are dropped. Close is
// idempotent.
func (s *ShardedHierarchy) Close() {
	if s.closed {
		return
	}
	s.drain()
	for _, sh := range s.shards {
		sh.q.close()
	}
	s.wg.Wait()
	s.closed = true
}
