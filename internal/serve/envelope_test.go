package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// envelopeResults are result bytes as an executor might return them: what
// json.Marshal emits, and what it never emits — raw HTML characters and
// line separators inside strings, insignificant whitespace.
var envelopeResults = []struct{ name, raw string }{
	{"compact", `{"a":1,"b":[true,null,"x"],"c":{"d":-2.5e-7}}`},
	{"html", `{"s":"<a href=\"x\">&amp;</a>","t":"a>b"}`},
	{"separators", "{\"s\":\"line\u2028para\u2029end\"}"},
	{"escaped", `{"s":"\u003c\u2028\u0026\n"}`},
	{"non-compact", "{ \"a\" : [ 1 , 2 ] ,\n\t\"b\" : { } , \"s\" : \" <&> \" }\n"},
	{"scalar", `42`},
}

// TestWriteEnvelopeMatchesEncoder pins writeEnvelope to the encoder it
// replaces: for every kind, fleet node and via set and unset (node IDs that
// need escaping included), and every kind of result, the bytes written
// around the stored result equal json.NewEncoder(w).Encode of the same
// envelope holding the raw result, and Content-Length counts them.
func TestWriteEnvelopeMatchesEncoder(t *testing.T) {
	t.Parallel()
	nodes := []struct{ node, via string }{
		{"", ""}, {"n1", ""}, {"", "n2"}, {"node-1", "node-2"},
		{"<n&1>", "n\u20282"}, {"nœud \"1\"", `a\b` + "\t"},
	}
	for _, kind := range []Kind{KindRun, KindMissCurve, KindTransform, KindOracle} {
		for _, res := range envelopeResults {
			stored, err := storedResult([]byte(res.raw))
			if err != nil {
				t.Fatalf("%s: storedResult: %v", res.name, err)
			}
			for k, nv := range nodes {
				env := envelope{
					Kind:      kind,
					Digest:    strings.Repeat("0f", 32),
					Cached:    k%2 == 0,
					ElapsedNS: int64(k) * 123457,
					Node:      nv.node,
					Via:       nv.via,
				}
				var want bytes.Buffer
				raw := env
				raw.Result = json.RawMessage(res.raw)
				if err := json.NewEncoder(&want).Encode(raw); err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				env.Result = stored
				writeEnvelope(rec, &env)
				if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("%s/%s/node %q via %q:\ngot  %q\nwant %q", kind, res.name, nv.node, nv.via, got, want.Bytes())
				}
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
					t.Errorf("%s/%s: Content-Length %q, want %d", kind, res.name, cl, want.Len())
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s/%s: Content-Type %q", kind, res.name, ct)
				}
			}
		}
	}
}

// TestStoredResultIsIdentityOnMarshalOutput verifies that storing a result
// json.Marshal produced leaves its bytes alone, which is what keeps served
// results equal to the direct library call's marshaling.
func TestStoredResultIsIdentityOnMarshalOutput(t *testing.T) {
	t.Parallel()
	for _, res := range envelopeResults {
		var v any
		if err := json.Unmarshal([]byte(res.raw), &v); err != nil {
			t.Fatal(err)
		}
		marshaled, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := storedResult(marshaled)
		if err != nil || !bytes.Equal(stored, marshaled) {
			t.Errorf("%s: storedResult(%s) = %s, %v", res.name, marshaled, stored, err)
		}
	}
}

// TestEnvelopeOverHTTP serves non-compact executor output holding HTML
// characters and line separators through a real server: the miss and the
// hit reply with the encoder's bytes for the raw result, and a result over
// net/http's 2 KiB buffering threshold still goes out with Content-Length,
// not chunked.
func TestEnvelopeOverHTTP(t *testing.T) {
	t.Parallel()
	raw := "{ \"s\" : \"<&>\u2028\" ,\n \"pad\" : \"" + strings.Repeat("x", 4096) + "\" }"
	stub := newStubExecutor()
	stub.out = []byte(raw)
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: stub})

	spec := RunSpec{Workload: "TJ", Scale: 64, Seed: 4}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k, cached := range []bool{false, true} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", k, resp.StatusCode, got.Bytes())
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(got.Len()) {
			t.Errorf("request %d: Transfer-Encoding %v, Content-Length %d for a %d-byte body",
				k, resp.TransferEncoding, resp.ContentLength, got.Len())
		}
		env := decodeEnvelope(t, got.Bytes())
		if env.Cached != cached {
			t.Errorf("request %d: cached %v, want %v", k, env.Cached, cached)
		}
		var want bytes.Buffer
		env.Result = json.RawMessage(raw)
		if err := json.NewEncoder(&want).Encode(env); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("request %d:\ngot  %q\nwant %q", k, got.Bytes(), want.Bytes())
		}
	}
	if n := stub.total(); n != 1 {
		t.Errorf("executed %d times, want 1", n)
	}
}

// TestNonJSONResultIsJobError verifies executor output that is not JSON
// fails the job with 422 and is never cached: a repeat executes again.
func TestNonJSONResultIsJobError(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	stub.out = []byte(`{"a":`)
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: stub})
	spec := RunSpec{Workload: "MM", Scale: 64, Seed: 2}
	for k := 1; k <= 2; k++ {
		status, body := postJob(t, ts.URL, KindRun, spec)
		if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), "not JSON") {
			t.Fatalf("request %d: status %d: %s, want 422 naming the bad result", k, status, body)
		}
		if n := stub.total(); n != k {
			t.Errorf("request %d: %d executions, want %d (a bad result must not be cached)", k, n, k)
		}
	}
	if s.cache.Len() != 0 {
		t.Errorf("cache holds %d entries after bad results", s.cache.Len())
	}
	if got := s.mem.Counter("serve.jobs.run.error"); got != 2 {
		t.Errorf("serve.jobs.run.error = %d, want 2", got)
	}
}
