package serve

import (
	"container/list"
	"context"
	"sync"
)

// resultCache is the content-addressed LRU over finished job results. Keys
// are spec digests (Digest), values are the exact marshaled result bytes —
// caching bytes rather than structs is what makes a cache hit trivially
// bit-identical to the original execution.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	digest string
	body   []byte
}

// newResultCache builds a cache holding up to capacity results; capacity
// <= 0 disables caching (every Get misses, Put drops).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached result bytes for a digest, promoting the entry.
func (c *resultCache) Get(digest string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[digest]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores a result, evicting from the LRU tail past capacity. Callers
// must not mutate body afterwards (the serve layer never does: result bytes
// are write-once).
func (c *resultCache) Put(digest string, body []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		// A coalesced flight already published this digest; keep the first
		// body (identical by the determinism contract) and just promote.
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.entries[digest] = c.order.PushFront(&cacheEntry{digest: digest, body: body})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*cacheEntry).digest)
		c.evictions++
	}
}

// peek returns the cached result bytes for a digest without promoting the
// entry or touching the hit/miss counters. The fleet router uses it to serve
// a resident digest locally (the replica-cache read path) instead of
// forwarding it, and admission uses it for a second look that must leave
// the statistics of the lookup it repeats untouched.
func (c *resultCache) peek(digest string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		return el.Value.(*cacheEntry).body, true
	}
	return nil, false
}

// Len reports the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns (hits, misses, evictions) since construction.
func (c *resultCache) Counters() (hits, misses, evictions int64) {
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
