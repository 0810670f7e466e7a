package serve

import (
	"container/list"
	"context"
	"sync"
)

// lru is the bounded LRU map behind the result cache and the spec memo.
// Capacity <= 0 disables it: every Get misses and Put drops.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *lruEntry[K, V]
	entries map[K]*list.Element

	hits, misses, evictions int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[K]*list.Element),
	}
}

// resultCache is the content-addressed LRU over finished job results. Keys
// are spec digests (Digest), values are the stored result bytes (the
// compacted form storedResult returns) — caching bytes rather than structs
// is what makes a cache hit trivially bit-identical to the original
// execution.
type resultCache = lru[string, []byte]

// newResultCache builds a cache holding up to capacity results; capacity
// <= 0 disables caching (every Get misses, Put drops).
func newResultCache(capacity int) *resultCache { return newLRU[string, []byte](capacity) }

// Get returns the value stored under key, promoting the entry.
func (c *lru[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores a value, evicting from the LRU tail past capacity. Callers
// must not mutate val afterwards (the serve layer never does: result bytes
// are write-once and memoized specs are read-only).
func (c *lru[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A coalesced flight (or a concurrent identical request) already
		// stored this key; keep the first value (identical by the
		// determinism contract) and just promote.
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*lruEntry[K, V]).key)
		c.evictions++
	}
}

// peek returns the value stored under key without promoting the entry or
// touching the hit/miss counters. The fleet router uses it to serve a
// resident digest locally (the replica-cache read path) instead of
// forwarding it, and admission uses it for a second look that must leave
// the statistics of the lookup it repeats untouched.
func (c *lru[K, V]) peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Len reports the current entry count.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns (hits, misses, evictions) since construction.
func (c *lru[K, V]) Counters() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// flight is one in-progress execution of a digest. Followers arriving while
// it runs share its outcome instead of re-executing — the coalescing half of
// the content-addressed contract. done is closed exactly once, after body/err
// are final.
type flight struct {
	digest  string
	done    chan struct{}
	body    []byte
	err     error
	cancel  context.CancelFunc
	g       *flightGroup
	waiters int // guarded by g.mu; last leave cancels the job context
}

// flightGroup indexes in-progress executions by digest (the
// singleflight pattern, specialized: followers can abandon a flight without
// killing it for others, and the job context dies only when the last
// interested request leaves).
type flightGroup struct {
	mu        sync.Mutex
	flights   map[string]*flight
	coalesced int64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// finish publishes the outcome and wakes every waiter. The flight is
// removed from the group first, so a request arriving after finish starts a
// fresh flight (it will hit the cache instead when the outcome was a
// success).
func (g *flightGroup) finish(f *flight, body []byte, err error) {
	g.mu.Lock()
	delete(g.flights, f.digest)
	g.mu.Unlock()
	f.body, f.err = body, err
	close(f.done)
}

// leave drops one waiter. When the last waiter leaves, the flight's job
// context is canceled: either the job already finished (cancel is then a
// no-op release of the timeout timer) or every interested request gave up
// and the execution should stop burning the pool.
func (f *flight) leave() {
	f.g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	f.g.mu.Unlock()
	if last {
		f.cancel()
	}
}

// Coalesced reports how many requests joined an existing flight.
func (g *flightGroup) Coalesced() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coalesced
}

// InFlight reports the number of digests currently executing.
func (g *flightGroup) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
