package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubExecutor is an injectable Executor that counts executions per digest
// and can block on a gate, making admission, coalescing, and drain
// observable without engine runtime.
type stubExecutor struct {
	mu      sync.Mutex
	calls   map[string]int
	gate    chan struct{} // when non-nil, Execute blocks here (or on ctx)
	fail    error         // when non-nil, Execute returns it
	out     []byte        // when non-nil, Execute returns it as the result
	panicOn string        // Execute panics on this digest, once counted
}

func newStubExecutor() *stubExecutor {
	return &stubExecutor{calls: map[string]int{}}
}

func (e *stubExecutor) Execute(ctx context.Context, s Spec) ([]byte, error) {
	digest := Digest(s)
	e.mu.Lock()
	e.calls[digest]++
	gate, fail, out, panicOn := e.gate, e.fail, e.out, e.panicOn
	e.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if digest == panicOn {
		panic("stub: injected panic")
	}
	if fail != nil {
		return nil, fail
	}
	if out != nil {
		return out, nil
	}
	return []byte(fmt.Sprintf(`{"digest":%q}`, digest)), nil
}

// total returns the total execution count across digests.
func (e *stubExecutor) total() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, c := range e.calls {
		n += c
	}
	return n
}

// count returns the execution count of one digest.
func (e *stubExecutor) count(digest string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls[digest]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescingIdenticalRequests floods the server with identical
// concurrent requests while the (single) execution is blocked: every
// follower must join the leader's flight, the engine must run exactly once,
// and every response must carry the same result bytes.
func TestCoalescingIdenticalRequests(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	stub.gate = make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 32, Executor: stub})

	const n = 32
	spec := RunSpec{Workload: "TJ", Scale: 64, Seed: 7}
	if err := (&spec).Normalize(); err != nil {
		t.Fatal(err)
	}
	digest := Digest(&spec)

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	errs := make([]error, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			statuses[k], bodies[k], errs[k] = postJobE(ts.URL, KindRun, spec)
		}(k)
	}
	// All n requests target one digest: one becomes leader, the rest join
	// its flight. Wait until every follower is accounted for, then let the
	// single execution finish.
	waitFor(t, "all followers to coalesce", func() bool {
		return s.group.Coalesced() >= n-1
	})
	close(stub.gate)
	wg.Wait()

	if got := stub.count(digest); got != 1 {
		t.Errorf("engine executed %d times for one digest, want 1", got)
	}
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		if statuses[k] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", k, statuses[k], bodies[k])
		}
		env := decodeEnvelope(t, bodies[k])
		if !bytes.Equal(env.Result, []byte(fmt.Sprintf(`{"digest":%q}`, digest))) {
			t.Errorf("request %d: result %s", k, env.Result)
		}
	}
	if got := s.mem.Counter("serve.jobs.run.ok"); got != 1 {
		t.Errorf("serve.jobs.run.ok = %d, want 1", got)
	}
}

// TestConcurrentDistinctRequests runs identical and distinct requests
// together: each distinct digest executes exactly once (coalescing or cache
// — never twice), and every request succeeds.
func TestConcurrentDistinctRequests(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	_, ts := newTestServer(t, Config{Workers: 4, Queue: 128, Executor: stub})

	const distinct = 8
	const perDigest = 6
	var wg sync.WaitGroup
	var failures atomic.Int64
	for d := 0; d < distinct; d++ {
		for r := 0; r < perDigest; r++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				spec := RunSpec{Workload: "TJ", Scale: 64, Seed: int64(d)}
				status, body, err := postJobE(ts.URL, KindRun, spec)
				if err != nil {
					t.Errorf("seed %d: %v", d, err)
					failures.Add(1)
					return
				}
				if status != http.StatusOK {
					t.Errorf("seed %d: status %d: %s", d, status, body)
					failures.Add(1)
				}
			}(d)
		}
	}
	wg.Wait()
	if failures.Load() > 0 {
		return
	}
	for d := 0; d < distinct; d++ {
		spec := RunSpec{Workload: "TJ", Scale: 64, Seed: int64(d)}
		if err := (&spec).Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := stub.count(Digest(&spec)); got != 1 {
			t.Errorf("seed %d executed %d times, want 1", d, got)
		}
	}
	if got := stub.total(); got != distinct {
		t.Errorf("total executions %d, want %d", got, distinct)
	}
}

// TestCacheHitRepeat verifies the second identical request is served from
// the result cache, marked cached, with identical bytes.
func TestCacheHitRepeat(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 16, Executor: stub})

	spec := RunSpec{Workload: "MM", Scale: 64, Seed: 3}
	status, body := postJob(t, ts.URL, KindRun, spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	first := decodeEnvelope(t, body)
	if first.Cached {
		t.Error("first response marked cached")
	}
	status, body = postJob(t, ts.URL, KindRun, spec)
	if status != http.StatusOK {
		t.Fatalf("repeat status %d: %s", status, body)
	}
	second := decodeEnvelope(t, body)
	if !second.Cached {
		t.Error("repeat response not marked cached")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result differs: %s vs %s", first.Result, second.Result)
	}
	if got := stub.total(); got != 1 {
		t.Errorf("engine executed %d times, want 1", got)
	}
}

// TestCacheLRUEviction exercises the eviction path at a tiny capacity.
func TestCacheLRUEviction(t *testing.T) {
	t.Parallel()
	c := newResultCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || string(got) != "A" {
		t.Errorf("a = %q, %v", got, ok)
	}
	if got, ok := c.Get("c"); !ok || string(got) != "C" {
		t.Errorf("c = %q, %v", got, ok)
	}
	_, _, evictions := c.Counters()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestCacheDisabled verifies a negative capacity disables caching without
// breaking the request path.
func TestCacheDisabled(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 16, CacheEntries: -1, Executor: stub})
	spec := RunSpec{Workload: "PC", Scale: 64, Seed: 1}
	for k := 0; k < 2; k++ {
		status, body := postJob(t, ts.URL, KindRun, spec)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		if env := decodeEnvelope(t, body); env.Cached {
			t.Error("response marked cached with caching disabled")
		}
	}
	if got := stub.total(); got != 2 {
		t.Errorf("engine executed %d times, want 2 (cache disabled)", got)
	}
}

// TestLastWaiterCancelsJob verifies the waiter-refcount teardown: when the
// only request interested in a flight gives up, the job context is
// canceled so the execution stops burning a pool worker.
func TestLastWaiterCancelsJob(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	stub.gate = make(chan struct{}) // never closed: only ctx can unblock
	s, _ := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: stub})

	spec := RunSpec{Workload: "NN", Scale: 64, Seed: 9}
	if err := (&spec).Normalize(); err != nil {
		t.Fatal(err)
	}
	reqCtx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.do(reqCtx, Digest(&spec), &spec)
		errc <- err
	}()
	waitFor(t, "job to start", func() bool { return stub.total() == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("do returned %v, want context.Canceled", err)
	}
	// The stub observes the job context dying and returns; the server
	// records the canceled outcome.
	waitFor(t, "canceled outcome", func() bool {
		return s.mem.Counter("serve.jobs.run.canceled") == 1
	})
}
