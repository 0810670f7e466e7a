package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twist/internal/memsim"
	"twist/internal/obs"
)

// TestLoadBackpressure is the ISSUE acceptance load test: 64 concurrent
// distinct requests against queue 16 / pool 4. Every admitted job must
// complete as a success (zero dropped), every rejection must be a 429 with
// Retry-After, and the success count must equal the number of jobs the pool
// could admit (between 16 and 20: the queue plus up to one in-flight job
// per worker).
func TestLoadBackpressure(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	stub.gate = make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4, Queue: 16, Executor: stub})

	const n = 64
	type outcome struct {
		status     int
		body       []byte
		retryAfter string
		err        error
	}
	outcomes := make([]outcome, n)
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			body, err := json.Marshal(RunSpec{Workload: "TJ", Scale: 64, Seed: int64(k)})
			if err != nil {
				outcomes[k].err = err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				outcomes[k].err = err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			outcomes[k] = outcome{status: resp.StatusCode, body: buf.Bytes(), retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusTooManyRequests {
				rejected.Add(1)
			}
		}(k)
	}
	// Every request ends up either rejected (429 already returned) or
	// admitted (its flight is registered and blocked on the gate). Once the
	// two buckets cover all 64, release the gate.
	waitFor(t, "all requests rejected or admitted", func() bool {
		return rejected.Load()+int64(s.group.InFlight()) == n
	})
	admitted := s.group.InFlight()
	close(stub.gate)
	wg.Wait()

	var ok, tooMany int
	for k, o := range outcomes {
		if o.err != nil {
			t.Fatalf("request %d: %v", k, o.err)
		}
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			tooMany++
			if o.retryAfter == "" {
				t.Errorf("request %d: 429 without Retry-After", k)
			}
		default:
			t.Errorf("request %d: unexpected status %d: %s", k, o.status, o.body)
		}
	}
	if ok+tooMany != n {
		t.Errorf("ok %d + 429 %d != %d", ok, tooMany, n)
	}
	if ok != admitted {
		t.Errorf("successes %d != admitted jobs %d (a dropped admitted job)", ok, admitted)
	}
	if ok < 16 || ok > 20 {
		t.Errorf("successes %d outside the admissible window [16, 20] for queue 16 / pool 4", ok)
	}
	if got := stub.total(); got != ok {
		t.Errorf("engine executions %d != successes %d", got, ok)
	}
	if got := s.mem.Counter("serve.rejected"); got != int64(tooMany) {
		t.Errorf("serve.rejected = %d, want %d", got, tooMany)
	}
}

// TestGracefulDrain verifies shutdown semantics: admitted jobs finish,
// /readyz flips to 503, new work is refused with 503, and Drain returns
// only after the last job completes.
func TestGracefulDrain(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	stub.gate = make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 8, Executor: stub})

	const n = 6
	statuses := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			statuses[k], _, errs[k] = postJobE(ts.URL, KindRun, RunSpec{Workload: "MM", Scale: 64, Seed: int64(k)})
		}(k)
	}
	waitFor(t, "all jobs admitted", func() bool { return s.group.InFlight() == n })

	s.BeginDrain()
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz while draining: %d, want 503", resp.StatusCode)
		}
	}
	if status, body := postJob(t, ts.URL, KindRun, RunSpec{Workload: "MM", Scale: 64, Seed: 999}); status != http.StatusServiceUnavailable {
		t.Errorf("job while draining: status %d: %s", status, body)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with jobs still blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stub.gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		if statuses[k] != http.StatusOK {
			t.Errorf("request %d: status %d, want 200 (admitted jobs must drain as successes)", k, statuses[k])
		}
	}
}

// TestJobTimeout verifies the per-job deadline propagates into the
// execution and surfaces as 504.
func TestJobTimeout(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	stub.gate = make(chan struct{}) // never released: only the deadline fires
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4, JobTimeout: 30 * time.Millisecond, Executor: stub})
	status, body := postJob(t, ts.URL, KindRun, RunSpec{Workload: "TJ", Scale: 64})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s, want 504", status, body)
	}
}

// TestExecutionError verifies engine rejections surface as 422.
func TestExecutionError(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	stub.fail = fmt.Errorf("boom: template rejected")
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: stub})
	status, body := postJob(t, ts.URL, KindRun, RunSpec{Workload: "TJ", Scale: 64})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s, want 422", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "boom") {
		t.Errorf("error body %s", body)
	}
}

// TestJobPanicContained injects an executor panic on one digest under
// concurrent identical requests: the panic stops at the job, every
// coalesced waiter gets a 500 naming the digest, the panic is counted once
// and never cached (a repeat executes again), and the server keeps serving
// other jobs.
func TestJobPanicContained(t *testing.T) {
	t.Parallel()
	spec := RunSpec{Workload: "VP", Scale: 64, Seed: 13}
	norm := spec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	digest := Digest(&norm)
	stub := newStubExecutor()
	stub.gate = make(chan struct{})
	stub.panicOn = digest
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 32, Executor: stub})

	const n = 8
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
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
		if statuses[k] != http.StatusInternalServerError || !strings.Contains(string(bodies[k]), digest) {
			t.Errorf("request %d: status %d: %s, want 500 naming digest %s", k, statuses[k], bodies[k], digest)
		}
	}
	if got := s.mem.Counter("serve.jobs.run.panic"); got != 1 {
		t.Errorf("serve.jobs.run.panic = %d, want 1", got)
	}
	if got := stub.count(digest); got != 1 {
		t.Errorf("executed %d times, want 1", got)
	}
	if s.cache.Len() != 0 || s.group.InFlight() != 0 {
		t.Errorf("after the panic: %d cached, %d in flight, want 0 and 0", s.cache.Len(), s.group.InFlight())
	}

	if status, body := postJob(t, ts.URL, KindRun, spec); status != http.StatusInternalServerError {
		t.Errorf("repeat: status %d: %s, want 500", status, body)
	}
	if got := stub.count(digest); got != 2 {
		t.Errorf("repeat: executed %d times, want 2 (a panic is never cached)", got)
	}
	if status, body := postJob(t, ts.URL, KindRun, RunSpec{Workload: "VP", Scale: 64, Seed: 14}); status != http.StatusOK {
		t.Errorf("other job after the panic: status %d: %s", status, body)
	}
}

// TestValidation exercises the 400 surface: malformed JSON, unknown fields,
// unknown workloads, out-of-range parameters, bad variants.
func TestValidation(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Executor: newStubExecutor()})
	post := func(kind Kind, raw string) int {
		resp, err := http.Post(ts.URL+"/v1/"+string(kind), "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		kind Kind
		raw  string
	}{
		{"malformed json", KindRun, `{"workload":`},
		{"unknown field", KindRun, `{"workload":"TJ","bogus":1}`},
		{"unknown workload", KindRun, `{"workload":"ZZ"}`},
		{"bad variant", KindRun, `{"workload":"TJ","variant":"sideways"}`},
		{"scale too large", KindRun, `{"workload":"TJ","scale":1000000}`},
		{"too many workers", KindRun, `{"workload":"TJ","workers":1000}`},
		{"bad flag mode", KindRun, `{"workload":"TJ","flag_mode":"bitmap"}`},
		{"bad geometry", KindRun, `{"workload":"TJ","geometry":"huge"}`},
		{"bad capacity", KindMissCurve, `{"workload":"TJ","capacities":[0]}`},
		{"bad line bytes", KindMissCurve, `{"workload":"TJ","line_bytes":48}`},
		{"empty source", KindTransform, `{"source":""}`},
		{"original transform", KindTransform, `{"source":"package p","variants":["original"]}`},
		{"oracle scale", KindOracle, `{"workload":"TJ","scale":100000}`},
		{"oracle stealing w/o workers", KindOracle, `{"workload":"TJ","stealing":true}`},
	}
	for _, c := range cases {
		if got := post(c.kind, c.raw); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, got)
		}
	}
}

// TestGeometryLimit: a run geometry over MaxGeometryLines lines is refused
// at Normalize, before any level is built — 8G/1:1 would ask for 64 GiB of
// tags, which ends the process with a fatal error no recover contains — and
// the daemon answers it with a 400 and goes on serving.
func TestGeometryLimit(t *testing.T) {
	t.Parallel()
	for _, g := range []string{"1G/64:8", "8G/1:1"} {
		err := (&RunSpec{Workload: "TJ", Geometry: g}).Normalize()
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxGeometryLines)) {
			t.Errorf("geometry %s: Normalize error %v, want one naming the limit %d", g, err, MaxGeometryLines)
		}
	}
	for _, g := range []string{DefaultGeometry, memsim.FormatGeometry(memsim.PaperLevels())} {
		if err := (&RunSpec{Workload: "TJ", Geometry: g}).Normalize(); err != nil {
			t.Errorf("geometry %s: %v", g, err)
		}
	}

	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	if status, body := postJob(t, ts.URL, KindRun, RunSpec{Workload: "TJ", Geometry: "8G/1:1"}); status != http.StatusBadRequest {
		t.Fatalf("8G/1:1: status %d: %s, want 400", status, body)
	}
	if status, body := postJob(t, ts.URL, KindRun, RunSpec{Workload: "TJ", Scale: 64}); status != http.StatusOK {
		t.Fatalf("valid job after the refusal: status %d: %s, want 200", status, body)
	}
}

// TestHealthAndMetrics exercises /healthz and the /metrics report shape:
// the obs.Report experiment name, Det job counters, Noisy quantiles, and
// Telemetry mirroring the recorder — the contract that lets obs.Compare
// consume a scraped report like any bench baseline.
func TestHealthAndMetrics(t *testing.T) {
	t.Parallel()
	stub := newStubExecutor()
	extern := obs.NewMemory()
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 8, Executor: stub, Recorder: extern})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %d", resp.StatusCode)
	}

	// One miss, one hit, then scrape.
	spec := RunSpec{Workload: "VP", Scale: 64, Seed: 5}
	for k := 0; k < 2; k++ {
		if status, body := postJob(t, ts.URL, KindRun, spec); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep obs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "twistd" {
		t.Errorf("experiment %q, want twistd", rep.Experiment)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Name != "serve" {
		t.Fatalf("rows %+v", rep.Rows)
	}
	row := rep.Rows[0]
	if row.Det["serve.jobs.run.ok"] != "1" {
		t.Errorf("serve.jobs.run.ok = %q, want 1", row.Det["serve.jobs.run.ok"])
	}
	if row.Det["serve.jobs.total"] != "1" {
		t.Errorf("serve.jobs.total = %q, want 1", row.Det["serve.jobs.total"])
	}
	if row.Det["serve.cache.hit"] != "1" || row.Det["serve.cache.miss"] != "1" {
		t.Errorf("cache counters hit=%q miss=%q, want 1/1", row.Det["serve.cache.hit"], row.Det["serve.cache.miss"])
	}
	if got := row.Noisy["serve.cache.hit_ratio"]; got != 0.5 {
		t.Errorf("hit ratio %v, want 0.5", got)
	}
	if _, ok := row.Noisy["serve.job.p50"]; !ok {
		t.Error("missing serve.job.p50")
	}
	if _, ok := row.Noisy["serve.job.p99"]; !ok {
		t.Error("missing serve.job.p99")
	}
	if rep.Telemetry["serve.jobs.run.ok"] != 1 {
		t.Errorf("telemetry %+v", rep.Telemetry)
	}
	// The external recorder saw the same serve-layer signals (the Tee).
	if extern.Counter("serve.jobs.run.ok") != 1 {
		t.Errorf("external recorder missed serve.jobs.run.ok: %v", extern.Counters())
	}
	if extern.Counter("serve.cache.hit") != 1 {
		t.Errorf("external recorder missed serve.cache.hit: %v", extern.Counters())
	}
}

// TestLatencyQuantiles pins the nearest-rank window math.
func TestLatencyQuantiles(t *testing.T) {
	t.Parallel()
	var l latencies
	q := l.quantiles(0.5, 0.99)
	if q[0] != 0 || q[1] != 0 {
		t.Errorf("empty window quantiles %v", q)
	}
	for k := 1; k <= 100; k++ {
		l.observe(time.Duration(k) * time.Millisecond)
	}
	q = l.quantiles(0.5, 0.99)
	if q[0] != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", q[0])
	}
	if q[1] != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", q[1])
	}
	// Overflow the window: only the most recent latWindow samples remain.
	for k := 0; k < latWindow+50; k++ {
		l.observe(time.Second)
	}
	q = l.quantiles(0.5)
	if q[0] != time.Second {
		t.Errorf("post-overflow p50 = %v, want 1s", q[0])
	}
}

// TestDigestCanonicalization verifies spec aliases digest identically:
// default-filled vs explicit fields, case-insensitive workloads, variant
// synonyms — the content-address half of the coalescing contract.
func TestDigestCanonicalization(t *testing.T) {
	t.Parallel()
	norm := func(s Spec) string {
		t.Helper()
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return Digest(s)
	}
	a := norm(&RunSpec{Workload: "tj"})
	b := norm(&RunSpec{Workload: "TJ", Variant: "twisted", Scale: 1024, Workers: 1,
		FlagMode: "counter", SimWorkers: 1, Geometry: DefaultGeometry})
	if a != b {
		t.Error("default-filled and explicit specs digest differently")
	}
	c := norm(&RunSpec{Workload: "TJ", Variant: "interchange"})
	d := norm(&RunSpec{Workload: "TJ", Variant: "interchanged"})
	if c != d {
		t.Error("variant synonyms digest differently")
	}
	if a == c {
		t.Error("different variants digest identically")
	}
	e := norm(&RunSpec{Workload: "TJ", Geometry: "2k/64:8,16k/64:8,128k/64:16"})
	if e != a {
		t.Error("geometry case aliases digest differently")
	}
	if norm(&MissCurveSpec{Workload: "TJ"}) == a {
		t.Error("kinds share a digest")
	}
}
