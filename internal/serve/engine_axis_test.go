package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// TestEngineDigestCanonicalization verifies the engine field's digest
// discipline, mirroring the layout axis: the default recursive engine
// (however spelled) elides to the empty string — so engine-free requests
// keep their pre-engine content digests — while "iterative" canonicalizes
// to its one name and digests distinctly.
func TestEngineDigestCanonicalization(t *testing.T) {
	t.Parallel()
	norm := func(s Spec) string {
		t.Helper()
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return Digest(s)
	}
	base := norm(&RunSpec{Workload: "TJ"})
	for _, spelling := range []string{"recursive", "RECURSIVE"} {
		s := &RunSpec{Workload: "TJ", Engine: spelling}
		if d := norm(s); d != base {
			t.Errorf("engine %q digests %s, want the engine-free digest %s", spelling, d, base)
		}
		if s.Engine != "" {
			t.Errorf("engine %q canonicalized to %q, want \"\"", spelling, s.Engine)
		}
	}
	iter := &RunSpec{Workload: "TJ", Engine: "ITERATIVE"}
	if d := norm(iter); d == base {
		t.Error("iterative run digests identically to the engine-free request")
	}
	if iter.Engine != "iterative" {
		t.Errorf("engine canonicalized to %q, want \"iterative\"", iter.Engine)
	}
	mc := &MissCurveSpec{Workload: "TJ", Engine: "Recursive"}
	if err := mc.Normalize(); err != nil {
		t.Fatal(err)
	}
	if mc.Engine != "" {
		t.Errorf("misscurve engine canonicalized to %q, want \"\"", mc.Engine)
	}
	oc := &OracleSpec{Workload: "TJ", Engine: "iterative"}
	if err := oc.Normalize(); err != nil {
		t.Fatal(err)
	}
	if oc.Engine != "iterative" {
		t.Errorf("oracle engine canonicalized to %q, want \"iterative\"", oc.Engine)
	}
	bad := &RunSpec{Workload: "TJ", Engine: "flat"}
	if err := bad.Normalize(); err == nil {
		t.Error("Normalize accepted unknown engine \"flat\"")
	}
}

// TestDifferentialRunEngine pins the engine label at the byte level: an
// iterative run job serves exactly the direct library call, and that result
// equals its recursive twin byte for byte except for the engine echo — the
// label selects nothing (DESIGN.md §4.13).
func TestDifferentialRunEngine(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 64})
	marshal := func(v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, workers := range []int{1, 4} {
		recSpec := RunSpec{Workload: "PC", Variant: "twisted", Scale: diffScale, Seed: diffSeed, Workers: workers}
		spec := recSpec
		spec.Engine = "iterative"
		rec, err := RunJob(context.Background(), &recSpec)
		if err != nil {
			t.Fatal(err)
		}
		direct := spec
		want, err := RunJob(context.Background(), &direct)
		if err != nil {
			t.Fatalf("direct RunJob: %v", err)
		}
		twin := *want
		twin.Engine = ""
		if want.Engine != "iterative" || !bytes.Equal(marshal(&twin), marshal(rec)) {
			t.Errorf("workers=%d: iterative result is not its recursive twin plus the engine echo\niter: %s\nrec:  %s",
				workers, marshal(want), marshal(rec))
		}
		status, body := postJob(t, ts.URL, KindRun, spec)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		env := decodeEnvelope(t, body)
		if !bytes.Equal(env.Result, marshal(want)) || env.Digest != Digest(&direct) {
			t.Errorf("served result (digest %s) differs from direct library call (digest %s)\nserved: %s\ndirect: %s",
				env.Digest, Digest(&direct), env.Result, marshal(want))
		}
	}
}

// TestEngineCacheCoalescing verifies engine spellings share cache entries
// exactly when they canonicalize identically: an explicit "recursive"
// request is a cache hit on the engine-free twin, while "iterative" is its
// own entry (fresh on first post, hit on repeat).
func TestEngineCacheCoalescing(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 64})
	post := func(spec RunSpec) envelope {
		t.Helper()
		status, body := postJob(t, ts.URL, KindRun, spec)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		return decodeEnvelope(t, body)
	}
	spec := RunSpec{Workload: "TJ", Variant: "twisted", Scale: diffScale, Seed: diffSeed}
	first := post(spec)
	if first.Cached {
		t.Fatal("first engine-free request was already cached")
	}
	spec.Engine = "recursive"
	if second := post(spec); !second.Cached || second.Digest != first.Digest {
		t.Errorf("explicit recursive request missed the engine-free cache entry (cached=%v, digest %s vs %s)",
			second.Cached, second.Digest, first.Digest)
	}
	spec.Engine = "iterative"
	iter := post(spec)
	if iter.Cached || iter.Digest == first.Digest {
		t.Errorf("iterative request must be its own cache entry (cached=%v)", iter.Cached)
	}
	if again := post(spec); !again.Cached {
		t.Error("repeated iterative request was not a cache hit")
	}
}

// TestOracleEngineJobs pins the engine and stealing labels of oracle jobs at
// the byte level: sequential and parallel jobs under the iterative label,
// and a parallel job that asks for stealing:false, all pass on the one
// engine and executor, echo their labels, and keep the verdict text such
// jobs have always returned.
func TestOracleEngineJobs(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		spec   OracleSpec
		detail string
	}{
		{OracleSpec{Engine: "iterative"}, "oracle: twisted flags=counter subtree=true engine=iterative: equivalent"},
		{OracleSpec{Engine: "iterative", Workers: 3, Stealing: true}, "oracle: twisted workers=3 stealing=true engine=iterative: equivalent"},
		{OracleSpec{Workers: 2}, "oracle: twisted workers=2 stealing=false: equivalent"},
	} {
		spec := c.spec
		spec.Workload, spec.Variant, spec.Scale, spec.Seed = "PC", "twisted", 512, diffSeed
		res, err := OracleJob(context.Background(), &spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.Detail != c.detail || res.Engine != c.spec.Engine || res.Stealing != c.spec.Stealing {
			t.Errorf("ok=%v engine=%q stealing=%v detail %q; want ok=true engine=%q stealing=%v detail %q",
				res.OK, res.Engine, res.Stealing, res.Detail, c.spec.Engine, c.spec.Stealing, c.detail)
		}
	}
}
