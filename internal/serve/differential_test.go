package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"twist/internal/workloads"
)

// The differential suite is the bit-identical-response contract: for every
// job kind, the "result" field the daemon returns must equal — byte for
// byte — the JSON encoding of the direct library call. The envelope's
// elapsed_ns is the only timing field, and it lives outside result.

const (
	diffScale = 256
	diffSeed  = 1
)

var diffVariants = []string{"original", "interchanged", "twisted", "twisted-cutoff:8"}

// newTestServer starts a Server over httptest, cleaning both up with t.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJobE POSTs a spec to a job endpoint and returns the HTTP status with
// the raw response body. Safe to call from any goroutine.
func postJobE(baseURL string, kind Kind, spec any) (int, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(baseURL+"/v1/"+string(kind), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// postJob is postJobE failing the test on transport errors.
func postJob(t *testing.T, baseURL string, kind Kind, spec any) (int, []byte) {
	t.Helper()
	status, out, err := postJobE(baseURL, kind, spec)
	if err != nil {
		t.Fatal(err)
	}
	return status, out
}

// decodeEnvelope parses a 200 response body.
func decodeEnvelope(t *testing.T, body []byte) envelope {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad envelope %s: %v", body, err)
	}
	return env
}

func TestDifferentialRun(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 4, Queue: 256, JobTimeout: 0})
	for _, name := range workloads.Names() {
		for _, variant := range diffVariants {
			for _, engineWorkers := range []int{1, 4} {
				name, variant, engineWorkers := name, variant, engineWorkers
				t.Run(fmt.Sprintf("%s/%s/w%d", name, variant, engineWorkers), func(t *testing.T) {
					t.Parallel()
					spec := RunSpec{
						Workload: name, Variant: variant,
						Scale: diffScale, Seed: diffSeed, Workers: engineWorkers,
					}
					direct := spec // normalized independently by RunJob
					want, err := RunJob(context.Background(), &direct)
					if err != nil {
						t.Fatalf("direct RunJob: %v", err)
					}
					wantJSON, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}

					status, body := postJob(t, ts.URL, KindRun, spec)
					if status != http.StatusOK {
						t.Fatalf("status %d: %s", status, body)
					}
					env := decodeEnvelope(t, body)
					if !bytes.Equal(env.Result, wantJSON) {
						t.Errorf("served result differs from direct library call\nserved: %s\ndirect: %s", env.Result, wantJSON)
					}
					if env.Digest != Digest(&direct) {
						t.Errorf("digest %s, want %s", env.Digest, Digest(&direct))
					}
				})
			}
		}
	}
}

func TestDifferentialMissCurve(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 64})
	for _, variant := range []string{"original", "twisted"} {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			t.Parallel()
			spec := MissCurveSpec{Workload: "tj", Variant: variant, Scale: diffScale, Seed: diffSeed}
			direct := spec
			want, err := MissCurveJob(context.Background(), &direct)
			if err != nil {
				t.Fatalf("direct MissCurveJob: %v", err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			status, body := postJob(t, ts.URL, KindMissCurve, spec)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			env := decodeEnvelope(t, body)
			if !bytes.Equal(env.Result, wantJSON) {
				t.Errorf("served result differs\nserved: %s\ndirect: %s", env.Result, wantJSON)
			}
		})
	}
}

const diffTemplateSrc = `package p

//twist:outer
func Outer(o *Node, i *Node) {
	if o == nil {
		return
	}
	Inner(o, i)
	Outer(o.Left, i)
	Outer(o.Right, i)
}

//twist:inner
func Inner(o *Node, i *Node) {
	if i == nil {
		return
	}
	work(o, i)
	Inner(o, i.Left)
	Inner(o, i.Right)
}
`

func TestDifferentialTransform(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 64})
	spec := TransformSpec{Source: diffTemplateSrc}
	direct := spec
	want, err := TransformJob(context.Background(), &direct)
	if err != nil {
		t.Fatalf("direct TransformJob: %v", err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	status, body := postJob(t, ts.URL, KindTransform, spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	env := decodeEnvelope(t, body)
	if !bytes.Equal(env.Result, wantJSON) {
		t.Errorf("served result differs\nserved: %s\ndirect: %s", env.Result, wantJSON)
	}
}

func TestDifferentialOracle(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 64})
	for _, workers := range []int{0, 4} {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			t.Parallel()
			spec := OracleSpec{
				Workload: "mm", Variant: "twisted", Scale: diffScale, Seed: diffSeed,
				Workers: workers, Stealing: workers > 0,
			}
			direct := spec
			want, err := OracleJob(context.Background(), &direct)
			if err != nil {
				t.Fatalf("direct OracleJob: %v", err)
			}
			if !want.OK {
				t.Fatalf("oracle verdict unexpectedly failing: %s", want.Detail)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			status, body := postJob(t, ts.URL, KindOracle, spec)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			env := decodeEnvelope(t, body)
			if !bytes.Equal(env.Result, wantJSON) {
				t.Errorf("served result differs\nserved: %s\ndirect: %s", env.Result, wantJSON)
			}
		})
	}
}

// A parallel run job executes under its flag_mode like a sequential one:
// the Fig 6(b) set protocol clears flags on every executor, the §4.3
// counter never does.
func TestRunFlagModeParallel(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2} {
		for _, fm := range []string{"sets", "counter"} {
			spec := RunSpec{
				Workload: "pc", Variant: "twisted", Scale: 1024, Seed: diffSeed,
				Workers: workers, FlagMode: fm,
			}
			res, err := RunJob(context.Background(), &spec)
			if err != nil {
				t.Fatal(err)
			}
			if clears := res.Stats.FlagClears; (fm == "sets") != (clears > 0) {
				t.Errorf("workers=%d flag_mode=%s: FlagClears %d", workers, fm, clears)
			}
		}
	}
}
