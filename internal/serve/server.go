package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"twist/internal/cluster"
	"twist/internal/obs"
)

// maxBodyBytes bounds a request body; transform sources dominate and are
// themselves capped at MaxSourceBytes, so 2 MiB leaves JSON-escaping room.
const maxBodyBytes = 2 << 20

// Executor runs one normalized job spec to its marshaled result bytes. The
// default executor calls the engine (RunJob et al.); tests inject stubs to
// make admission and coalescing observable without engine runtime.
type Executor interface {
	Execute(ctx context.Context, s Spec) ([]byte, error)
}

// engineExecutor is the production Executor: the spec's own engine call,
// telemetry recorded into rec, result marshaled once. Because the bytes a
// cache hit or a coalesced follower receives are these bytes, responses are
// bit-identical to the direct library call by construction.
type engineExecutor struct {
	rec obs.Recorder
}

// Execute implements Executor.
func (e engineExecutor) Execute(ctx context.Context, s Spec) ([]byte, error) {
	out, err := s.exec(ctx, e.rec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// Config parameterizes a Server. The zero value is served with sensible
// defaults by New.
type Config struct {
	// Queue is the admission queue capacity; <= 0 means 64. A full queue
	// rejects with ErrQueueFull (HTTP 429).
	Queue int
	// Workers is the job worker count; <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries sizes the result LRU: 0 means 256, negative disables
	// caching.
	CacheEntries int
	// JobTimeout is the per-job execution deadline; <= 0 means 60s.
	JobTimeout time.Duration
	// Recorder, when non-nil, additionally receives every serve-layer
	// signal (it is teed with the server's internal Memory recorder), so
	// the daemon's telemetry can flow into the same JSONLines/Compare
	// tooling as engine telemetry.
	Recorder obs.Recorder
	// Executor overrides the job executor; nil means the engine.
	Executor Executor
	// Cluster, when non-nil, puts the server in fleet mode (DESIGN.md
	// §4.14): jobs route by digest through the consistent-hash ring, with
	// forwarding, follower cache admission, fleet-wide shedding, and the
	// /clusterz and /metrics/fleet endpoints. The server starts the node's
	// health prober and stops it on Close.
	Cluster *cluster.Node
}

// Server is the twistd serving core: an http.Handler plus the admission
// queue, worker pool, result cache, and coalescing index behind it.
// Construct with New, serve via Handler, stop with BeginDrain/Drain/Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	pool    *pool
	cache   *resultCache
	group   *flightGroup
	exec    Executor
	cluster *cluster.Node // nil outside fleet mode

	mem *obs.Memory  // internal recorder: /metrics reads its counters
	rec obs.Recorder // mem teed with cfg.Recorder; all signals go here
	lat *latencies

	baseCtx  context.Context // parent of every job context
	baseStop context.CancelFunc
	draining atomic.Bool
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 60 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		group:   newFlightGroup(),
		mem:     obs.NewMemory(),
		lat:     &latencies{},
		cluster: cfg.Cluster,
	}
	s.rec = obs.Recorder(s.mem)
	if cfg.Recorder != nil {
		s.rec = obs.Tee(s.mem, cfg.Recorder)
	}
	s.exec = cfg.Executor
	if s.exec == nil {
		s.exec = engineExecutor{rec: s.rec}
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.pool = newPool(cfg.Workers, cfg.Queue)

	s.mux = http.NewServeMux()
	for _, k := range []Kind{KindRun, KindMissCurve, KindTransform, KindOracle} {
		kind := k
		s.mux.HandleFunc("POST /v1/"+string(kind), func(w http.ResponseWriter, r *http.Request) {
			s.handleJob(w, r, kind)
		})
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cluster != nil {
		s.mux.HandleFunc("GET /clusterz", s.handleClusterz)
		s.mux.HandleFunc("GET /metrics/fleet", s.handleFleetMetrics)
		s.cluster.StartProber()
	}
	return s
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// envelope is the response wrapper every job endpoint returns. Result is
// the exact marshaling of the corresponding *Job library call; ElapsedNS is
// the only field that varies between identical requests.
type envelope struct {
	Kind      Kind            `json:"kind"`
	Digest    string          `json:"digest"`
	Cached    bool            `json:"cached"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Result    json.RawMessage `json:"result"`
	// Node is the fleet node that produced the result bytes and Via the
	// node that forwarded them, both set only in fleet mode — single-node
	// envelopes keep their pre-fleet shape byte for byte.
	Node string `json:"node,omitempty"`
	Via  string `json:"via,omitempty"`
}

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// handleJob is the shared endpoint implementation: decode → normalize →
// digest → admit/coalesce/cache → envelope.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, kind Kind) {
	start := time.Now()
	spec, err := decodeSpec(kind)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad %s spec: %w", kind, err))
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	digest := Digest(spec)

	// Fleet mode: route by digest — forward to the owner, shed on the
	// fleet bound, or fall through to local serving (we own it, it arrived
	// forwarded, or the fleet is unreachable). See cluster.go.
	if s.cluster != nil && s.clusterServe(w, r, kind, start, digest, spec) {
		return
	}

	body, cached, err := s.do(r.Context(), digest, spec)
	if err != nil {
		s.writeJobError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(envelope{
		Kind:      kind,
		Digest:    digest,
		Cached:    cached,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Result:    body,
		Node:      s.nodeID(),
	})
}

// do resolves one digest to its result bytes: result cache, then the
// coalescing index, then a fresh execution admitted through the pool.
// reqCtx only governs how long this caller waits — an execution keeps
// running for other waiters after one request gives up, and dies when the
// last one does.
func (s *Server) do(reqCtx context.Context, digest string, spec Spec) ([]byte, bool, error) {
	if body, ok := s.cache.Get(digest); ok {
		s.rec.Count("serve.cache.hit", 1)
		return body, true, nil
	}
	s.rec.Count("serve.cache.miss", 1)

	f, leader := s.admit(digest, spec)
	if !leader {
		s.rec.Count("serve.coalesced", 1)
	}
	defer f.leave()
	select {
	case <-f.done:
		return f.body, false, f.err
	case <-reqCtx.Done():
		return nil, false, reqCtx.Err()
	}
}

// admit returns the in-progress flight for digest, a finished one when its
// result reached the cache after the caller's miss, or starts one: the
// leader path creates the job context (server-scoped, not request-scoped,
// capped by JobTimeout) and submits the execution to the pool. Admission
// failures finish the flight immediately, so coalesced followers that raced
// onto it observe the same ErrQueueFull/ErrDraining.
func (s *Server) admit(digest string, spec Spec) (*flight, bool) {
	s.group.mu.Lock()
	if f := s.group.flights[digest]; f != nil {
		f.waiters++
		s.group.coalesced++
		s.group.mu.Unlock()
		return f, false
	}
	// runJob stores a body before its flight leaves the index, so a flight
	// that finished after the caller's cache miss is found here; without
	// this second look the digest would execute twice.
	if body, ok := s.cache.peek(digest); ok {
		s.group.coalesced++
		s.group.mu.Unlock()
		f := &flight{digest: digest, done: make(chan struct{}), body: body, cancel: func() {}, g: s.group, waiters: 1}
		close(f.done)
		return f, false
	}
	jobCtx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	f := &flight{digest: digest, done: make(chan struct{}), cancel: cancel, g: s.group, waiters: 1}
	s.group.flights[digest] = f
	s.group.mu.Unlock()

	if err := s.pool.Submit(func() { s.runJob(jobCtx, f, spec) }); err != nil {
		s.rec.Count("serve.rejected", 1)
		s.group.finish(f, nil, err)
	}
	return f, true
}

// runJob executes one admitted flight on a pool worker and publishes the
// outcome to cache, waiters, and telemetry.
func (s *Server) runJob(ctx context.Context, f *flight, spec Spec) {
	start := time.Now()
	body, err := s.exec.Execute(ctx, spec)
	elapsed := time.Since(start)

	outcome := "ok"
	switch {
	case err == nil:
		s.cache.Put(f.digest, body)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		outcome = "canceled"
	default:
		outcome = "error"
	}
	kind := spec.Kind()
	s.rec.Count("serve.jobs."+string(kind)+"."+outcome, 1)
	s.rec.Time("serve.job."+string(kind), elapsed)
	s.lat.observe(elapsed)
	s.group.finish(f, body, err)
}

// writeJobError maps a do() error onto the HTTP status vocabulary:
// backpressure 429 (+ Retry-After), draining 503, job deadline 504, caller
// gone 408 (best effort — the client usually never reads it), engine
// rejection 422.
func (s *Server) writeJobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusRequestTimeout, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// handleHealthz is liveness: the process is up and the mux answers.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics publishes the serve-layer signals as an obs.Report
// ("twistd" experiment): deterministic counters as Det signals, latency
// quantiles and point-in-time gauges as Noisy ones, and the full internal
// counter map as Telemetry — the same shape bench gating consumes, so a
// scraped report feeds obs.Compare unchanged.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	rep := s.metricsReport()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// metricsReport builds the single-node obs.Report behind /metrics; the
// fleet endpoint merges one per node (cluster.go).
func (s *Server) metricsReport() *obs.Report {
	params := map[string]string{
		"queue":   strconv.Itoa(s.cfg.Queue),
		"workers": strconv.Itoa(s.cfg.Workers),
		"cache":   strconv.Itoa(s.cfg.CacheEntries),
	}
	if s.cluster != nil {
		params["node"] = s.cluster.Self().ID
		params["version"] = s.cluster.Version()
	}
	rep := obs.NewReport("twistd", params)
	counters := s.mem.Counters()
	row := rep.AddRow("serve")
	var jobs int64
	for name, v := range counters {
		row.DetInt(name, v)
		if len(name) > len("serve.jobs.") && name[:len("serve.jobs.")] == "serve.jobs." {
			jobs += v
		}
	}
	row.DetInt("serve.jobs.total", jobs)
	hits, misses, evictions := s.cache.Counters()
	row.DetInt("serve.cache.entries", int64(s.cache.Len()))
	row.DetInt("serve.cache.evictions", evictions)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	q := s.lat.quantiles(0.50, 0.99)
	row.NoisyVal("serve.cache.hit_ratio", ratio)
	row.NoisyVal("serve.queue.depth", float64(s.pool.Depth()))
	row.NoisyVal("serve.inflight", float64(s.group.InFlight()))
	row.NoisySeconds("serve.job.p50", q[0])
	row.NoisySeconds("serve.job.p99", q[1])
	rep.Telemetry = counters
	return rep
}

// Recorder returns the server's combined recorder: everything the serve
// layer and the engine record flows through it. Exposed so embedding
// programs can snapshot counters without scraping /metrics.
func (s *Server) Recorder() obs.Recorder { return s.rec }

// Counters snapshots the internal telemetry counters.
func (s *Server) Counters() map[string]int64 { return s.mem.Counters() }

// BeginDrain flips the server to draining: /readyz turns 503 and new jobs
// are rejected with ErrDraining, while admitted jobs keep running.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.pool.Close()
	}
}

// Drain begins draining (if not already begun) and waits until every
// admitted job has finished, or until ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	return s.pool.Drain(ctx)
}

// Close releases the server: drains with no grace (jobs already running are
// canceled via the base context) and frees the worker pool. Use Drain first
// for graceful shutdown.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.StopProber()
	}
	s.BeginDrain()
	s.baseStop()
	s.pool.Drain(context.Background())
}
