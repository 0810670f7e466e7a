package serve

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// postRaw POSTs raw bytes to a job endpoint and returns the status and body.
func postRaw(t *testing.T, baseURL string, kind Kind, raw string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/"+string(kind), "application/json", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	return resp.StatusCode, body.Bytes()
}

// TestSpecMemoDecodesOnce verifies identical request bytes are decoded,
// normalized and digested once: every repeat is a memo hit, while the same
// job spelled with its keys reordered is other bytes — decoded afresh, yet
// the same digest, so a result-cache hit.
func TestSpecMemoDecodesOnce(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: stub})

	const raw = `{"workload":"tj","scale":64,"seed":3}`
	var digest string
	for k := 0; k < 5; k++ {
		status, body := postRaw(t, ts.URL, KindRun, raw)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", k, status, body)
		}
		env := decodeEnvelope(t, body)
		if k == 0 {
			digest = env.Digest
		} else if env.Digest != digest || !env.Cached {
			t.Errorf("request %d: digest %s cached %v, want %s cached", k, env.Digest, env.Cached, digest)
		}
	}
	if got := s.mem.Counter("serve.memo.hit"); got != 4 {
		t.Errorf("serve.memo.hit = %d after 5 identical requests, want 4", got)
	}
	if got := s.memo.Len(); got != 1 {
		t.Errorf("memo holds %d entries, want 1", got)
	}

	status, body := postRaw(t, ts.URL, KindRun, `{"seed":3,"scale":64,"workload":"TJ"}`)
	if status != http.StatusOK {
		t.Fatalf("reordered: status %d: %s", status, body)
	}
	if env := decodeEnvelope(t, body); env.Digest != digest || !env.Cached {
		t.Errorf("reordered keys: digest %s cached %v, want %s cached", env.Digest, env.Cached, digest)
	}
	if got := s.mem.Counter("serve.memo.hit"); got != 4 {
		t.Errorf("serve.memo.hit = %d after other bytes, want 4", got)
	}
	if n := stub.total(); n != 1 {
		t.Errorf("executed %d times, want 1", n)
	}
}

// TestSpecMemoKeyedByKind verifies the memo key includes the kind: bytes
// memoized under one endpoint are decoded under another's own spec type,
// and rejected there when they do not fit it.
func TestSpecMemoKeyedByKind(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: newStubExecutor()})

	const raw = `{"workload":"PC","scale":64,"seed":1}`
	digests := map[Kind]string{}
	for _, kind := range []Kind{KindRun, KindMissCurve, KindOracle} {
		status, body := postRaw(t, ts.URL, kind, raw)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", kind, status, body)
		}
		env := decodeEnvelope(t, body)
		if env.Kind != kind || env.Cached {
			t.Errorf("%s: envelope kind %s cached %v, want a fresh %s job", kind, env.Kind, env.Cached, kind)
		}
		digests[kind] = env.Digest
	}
	if len(map[string]bool{digests[KindRun]: true, digests[KindMissCurve]: true, digests[KindOracle]: true}) != 3 {
		t.Errorf("kinds share a digest: %v", digests)
	}
	// sim_workers is a run field only: memoized under run, the same bytes
	// are an unknown field to the oracle decoder.
	const runOnly = `{"workload":"PC","scale":64,"seed":1,"sim_workers":2}`
	if status, body := postRaw(t, ts.URL, KindRun, runOnly); status != http.StatusOK {
		t.Fatalf("run: status %d: %s", status, body)
	}
	if status, body := postRaw(t, ts.URL, KindOracle, runOnly); status != http.StatusBadRequest ||
		!strings.Contains(string(body), `unknown field \"sim_workers\"`) {
		t.Errorf("oracle with a run-only field: status %d: %s, want 400", status, body)
	}
	if got := s.mem.Counter("serve.memo.hit"); got != 0 {
		t.Errorf("serve.memo.hit = %d across kinds, want 0", got)
	}
}

// TestSpecMemoSkipsBadBodies verifies only specs that normalized are
// memoized: a bad body keeps its 400 and its exact error text on every
// repeat, an over-cap body is refused, and trailing data after the spec is
// still ignored.
func TestSpecMemoSkipsBadBodies(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: newStubExecutor()})
	cases := []struct {
		name, raw, text string
	}{
		{"malformed", `{"workload":`, "unexpected EOF"},
		{"unknown field", `{"workload":"TJ","bogus":1}`, `unknown field \"bogus\"`},
		{"unknown workload", `{"workload":"ZZ"}`, "ZZ"},
		{"bad variant", `{"workload":"TJ","variant":"sideways"}`, "sideways"},
		{"over the body cap", `{"workload":"TJ","geometry":"` + strings.Repeat("x", maxBodyBytes) + `"}`, "request body too large"},
	}
	for _, c := range cases {
		var first []byte
		for k := 0; k < 2; k++ {
			status, body := postRaw(t, ts.URL, KindRun, c.raw)
			if status != http.StatusBadRequest || !strings.Contains(string(body), c.text) {
				t.Errorf("%s, request %d: status %d: %s, want 400 naming %q", c.name, k, status, body, c.text)
			}
			if k == 0 {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s: repeat error %s differs from %s", c.name, body, first)
			}
		}
	}
	if n := s.memo.Len(); n != 0 {
		t.Errorf("memo holds %d entries after bad bodies only", n)
	}
	if status, body := postRaw(t, ts.URL, KindRun, `{"workload":"TJ","scale":64} trailing`); status != http.StatusOK {
		t.Errorf("trailing data: status %d: %s, want 200", status, body)
	}
	if got := s.mem.Counter("serve.memo.hit"); got != 0 {
		t.Errorf("serve.memo.hit = %d, want 0", got)
	}
}

// TestSpecMemoBounded verifies the memo holds at most CacheEntries specs
// and nothing at all when caching is disabled.
func TestSpecMemoBounded(t *testing.T) {
	t.Parallel()
	for _, entries := range []int{3, -1} {
		s, ts := newTestServer(t, Config{Workers: 1, Queue: 4, CacheEntries: entries, Executor: newStubExecutor()})
		for seed := 0; seed < 8; seed++ {
			for k := 0; k < 2; k++ {
				if status, body := postJob(t, ts.URL, KindRun, RunSpec{Workload: "NN", Scale: 64, Seed: int64(seed)}); status != http.StatusOK {
					t.Fatalf("status %d: %s", status, body)
				}
			}
		}
		want := max(entries, 0)
		if n := s.memo.Len(); n != want {
			t.Errorf("CacheEntries %d: memo holds %d entries, want %d", entries, n, want)
		}
		if entries < 0 && s.mem.Counter("serve.memo.hit") != 0 {
			t.Errorf("disabled memo hit %d times", s.mem.Counter("serve.memo.hit"))
		}
	}
}

// TestSpecMemoConcurrentAfterEviction posts identical bodies concurrently
// once their result has left the cache while their spec is still memoized:
// every request shares the one memoized spec, they coalesce onto a single
// re-execution, and all get the same bytes. Run under -race, it also
// checks that sharing a memoized spec across requests is read-only.
func TestSpecMemoConcurrentAfterEviction(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 32, CacheEntries: 2, Executor: stub})

	spec := RunSpec{Workload: "KNN", Scale: 64, Seed: 5}
	if status, body := postJob(t, ts.URL, KindRun, spec); status != http.StatusOK {
		t.Fatalf("prime: status %d: %s", status, body)
	}
	norm := spec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	digest := Digest(&norm)
	s.cache.Put("evict-1", []byte(`1`))
	s.cache.Put("evict-2", []byte(`2`))
	if _, ok := s.cache.peek(digest); ok {
		t.Fatal("result still cached")
	}
	if s.memo.Len() != 1 {
		t.Fatalf("memo holds %d entries, want the primed spec", s.memo.Len())
	}

	stub.mu.Lock()
	stub.gate = make(chan struct{})
	stub.mu.Unlock()
	const n = 16
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			statuses[k], bodies[k], errs[k] = postJobE(ts.URL, KindRun, spec)
		}(k)
	}
	waitFor(t, "all requests to coalesce", func() bool { return s.group.Coalesced() >= n-1 })
	close(stub.gate)
	wg.Wait()
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		if statuses[k] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", k, statuses[k], bodies[k])
		}
		if env := decodeEnvelope(t, bodies[k]); env.Digest != digest || string(env.Result) != `{"digest":"`+digest+`"}` {
			t.Errorf("request %d: digest %s result %s", k, env.Digest, env.Result)
		}
	}
	if got := stub.count(digest); got != 2 {
		t.Errorf("digest executed %d times, want 2 (prime, one re-execution)", got)
	}
	if got := s.mem.Counter("serve.memo.hit"); got != n {
		t.Errorf("serve.memo.hit = %d, want %d", got, n)
	}
}
