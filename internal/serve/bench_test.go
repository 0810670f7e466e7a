package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"twist/internal/workloads"
)

// The miss-path microbenchmarks time one sequential run job and one
// misscurve job per layout and suite benchmark through the library call, so
// a regression in trace generation, layout rewriting, the cache simulator or
// the reuse analyzer shows per benchmark without the perfbench harness:
//
//	go test -run '^$' -bench 'RunJob|MissCurveJob' -benchmem ./internal/serve/
//
// The veb layout depends only on the topologies; the schedule layout is
// realized online by the traced pass itself. Each op builds its instance,
// as a served miss does.
const benchScale, benchSeed = 1024, 1

var benchLayouts = []string{"veb", "schedule"}

func BenchmarkRunJob(b *testing.B) {
	for _, lay := range benchLayouts {
		for _, name := range workloads.Names() {
			b.Run(lay+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for k := 0; k < b.N; k++ {
					s := &RunSpec{Workload: name, Variant: "twisted", Scale: benchScale, Seed: benchSeed, Layout: lay}
					if _, err := RunJob(context.Background(), s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMissCurveJob(b *testing.B) {
	for _, lay := range benchLayouts {
		for _, name := range workloads.Names() {
			b.Run(lay+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for k := 0; k < b.N; k++ {
					s := &MissCurveSpec{Workload: name, Variant: "twisted", Scale: benchScale, Seed: benchSeed, Layout: lay}
					if _, err := MissCurveJob(context.Background(), s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServeHit times one primed cache hit per job kind through the
// HTTP handler, without a network: reading the body, the spec memo, the
// result cache and the envelope write.
//
//	go test -run '^$' -bench ServeHit -benchmem ./internal/serve/
//
// The request is built once with httptest and the reply goes to a writer
// that only counts, so B/op and allocs/op are the handler's own. A hit
// copies no result bytes: B/op stays flat across kinds although the
// transform result is several times the others (result-B).
func BenchmarkServeHit(b *testing.B) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	for _, job := range []struct {
		name string
		spec Spec
	}{
		{"run", &RunSpec{Workload: "TJ", Scale: 128, Seed: 1}},
		{"misscurve", &MissCurveSpec{Workload: "PC", Scale: 256, Seed: 1}},
		{"oracle", &OracleSpec{Workload: "NN", Scale: 64, Seed: 1}},
		{"transform", &TransformSpec{Source: diffTemplateSrc}},
	} {
		body, err := json.Marshal(job.spec)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/"+string(job.spec.Kind()), nil)
		req.ContentLength = int64(len(body))
		var rd bytes.Reader
		w := &countingWriter{header: http.Header{}}
		post := func() {
			rd.Reset(body)
			req.Body = io.NopCloser(&rd)
			clear(w.header)
			w.status, w.n = http.StatusOK, 0
			h.ServeHTTP(w, req)
		}
		post() // prime: the one miss
		rec := httptest.NewRecorder()
		rd.Reset(body)
		req.Body = io.NopCloser(&rd)
		h.ServeHTTP(rec, req)
		var env envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !env.Cached {
			b.Fatalf("%s: repeat is not a cache hit: status %d: %s", job.name, rec.Code, rec.Body.Bytes())
		}
		b.Run(job.name, func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				post()
				if w.status != http.StatusOK || w.n <= len(env.Result) {
					b.Fatalf("status %d, %d bytes", w.status, w.n)
				}
			}
			if cl := w.header.Get("Content-Length"); cl != strconv.Itoa(w.n) {
				b.Fatalf("Content-Length %q for %d bytes", cl, w.n)
			}
			b.ReportMetric(float64(len(env.Result)), "result-B")
		})
	}
}

// countingWriter is an http.ResponseWriter that keeps the status and the
// number of body bytes and drops the bytes.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header { return w.header }

func (w *countingWriter) WriteHeader(status int) { w.status = status }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
