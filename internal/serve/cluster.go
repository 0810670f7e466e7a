package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"twist/internal/cluster"
	"twist/internal/obs"
)

// EngineVersion is the engine/schema version stamp of the serving layer:
// it prefixes every fleet routing key and rides the forwarding headers, so
// bumping it invalidates the fleet's replicated result-cache tier without
// coordination — nodes on different versions compute different placements
// and refuse each other's hops, and no stale bytes are ever admitted
// (DESIGN.md §4.14). Bump it whenever a job result schema or the engine's
// deterministic outputs change.
const EngineVersion = "3"

// This file is twistd's fleet mode (DESIGN.md §4.14): when Config.Cluster
// is set, every job request is routed by its canonical spec digest through
// the consistent-hash ring. The owner (first live replica) executes and
// populates its cache; every other node forwards one hop — with the loop
// guard forbidding a second — and admits the returned bytes into its own
// cache, which is what makes the result tier replicated. Forward failures
// fall through the replica list and finally degrade to local serving, so a
// fully partitioned node still answers every request correctly (the
// responses are deterministic; only the coalescing locality is lost).

// clusterServe is the fleet-mode fork of handleJob, called once the spec is
// normalized and digested. It returns true when it wrote the response
// (shed, version-skew reject, successful forward, or a relayed
// deterministic peer error) and false when the request must be served
// locally (we own it, it arrived forwarded, or every replica is down).
func (s *Server) clusterServe(w http.ResponseWriter, r *http.Request, kind Kind, start time.Time, digest string, spec Spec) bool {
	// Stamp every fleet response: the transport rejects version-skewed
	// bytes, and the node header lets clients (and the smoke test) see who
	// actually served.
	w.Header().Set(cluster.HeaderVersion, s.cluster.Version())
	w.Header().Set(cluster.HeaderNode, s.cluster.Self().ID)

	if from := r.Header.Get(cluster.HeaderForwarded); from != "" {
		// Loop guard: a forwarded request is served locally no matter what
		// the ring says — at most one hop per request, even when nodes
		// disagree about ownership mid-reconfiguration.
		if v := r.Header.Get(cluster.HeaderVersion); v != "" && v != s.cluster.Version() {
			s.rec.Count("serve.fleet.version_skew", 1)
			writeError(w, http.StatusConflict, fmt.Errorf(
				"serve: engine version skew: this node %q, forwarder %q sent %q",
				s.cluster.Version(), from, v))
			return true
		}
		s.rec.Count("serve.fleet.received", 1)
		return false
	}

	// Cluster-wide admission control: external requests are shed once the
	// fleet-wide queue depth (local + observed live peers) crosses the
	// bound. Forwarded requests were already charged at their entry node.
	if s.cluster.ShouldShed(s.pool.Depth()) {
		s.rec.Count("serve.fleet.shed", 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, fmt.Errorf(
			"serve: fleet queue depth %d at bound, shedding", s.cluster.FleetQueueDepth(s.pool.Depth())))
		return true
	}

	// Replica-cache read path: a resident digest — populated as owner or
	// admitted from an earlier forward — is served locally. This is what
	// makes the admitted tier a replica: once the bytes landed here, the
	// owner (and the network to it) is no longer needed to serve them.
	if _, ok := s.cache.peek(digest); ok {
		s.rec.Count("serve.fleet.replica_hit", 1)
		return false
	}

	body, err := json.Marshal(spec)
	if err != nil {
		// Specs are plain data; Marshal cannot fail on them (see Digest).
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	for _, peer := range s.cluster.Route(digest) {
		if peer.ID == s.cluster.Self().ID {
			// We are the first live replica: execute and populate locally.
			s.rec.Count("serve.fleet.owner_local", 1)
			return false
		}
		res, err := s.cluster.Forward(r.Context(), peer, string(kind), body)
		if err != nil {
			s.rec.Count("serve.fleet.forward.fail", 1)
			continue
		}
		switch {
		case res.Status == http.StatusOK:
			if s.admitForwarded(w, kind, start, digest, peer.ID, res.Body) {
				return true
			}
			s.rec.Count("serve.fleet.forward.fail", 1)
		case res.Status == http.StatusConflict || res.Status == http.StatusTooManyRequests:
			// The peer is unusable for this hop (version skew, overload)
			// but the request itself may still succeed elsewhere.
			s.rec.Count("serve.fleet.forward.fail", 1)
		default:
			// Any other non-2xx is a deterministic verdict about the spec
			// (bad workload, illegal schedule, engine rejection): serving
			// locally would reproduce it byte for byte, so relay as-is.
			s.rec.Count("serve.fleet.relayed", 1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.Status)
			w.Write(res.Body)
			return true
		}
	}
	// Every replica was unreachable (or we were not in the replica set and
	// all of them failed): degrade to local-only serving. Responses stay
	// bit-identical — determinism is the partition tolerance.
	s.rec.Count("serve.fleet.degraded", 1)
	return false
}

// admitForwarded finishes a successful hop: decode the peer's envelope,
// admit the result bytes in stored form into the local cache (the follower
// half of the replicated tier — the owner populated its own on execution),
// and write this node's envelope around the identical bytes. Returns false
// when the peer's response is unusable (undecodable or for the wrong
// digest), which the caller treats as a failed hop.
func (s *Server) admitForwarded(w http.ResponseWriter, kind Kind, start time.Time, digest, peerID string, peerBody []byte) bool {
	var env envelope
	if err := json.Unmarshal(peerBody, &env); err != nil || env.Digest != digest {
		return false
	}
	result, err := storedResult(env.Result)
	if err != nil {
		return false
	}
	s.cache.Put(digest, result)
	s.rec.Count("serve.cache.admit.forwarded", 1)
	s.rec.Count("serve.fleet.forwarded", 1)
	if env.Cached {
		s.rec.Count("serve.fleet.forward.hit", 1)
	} else {
		s.rec.Count("serve.fleet.forward.miss", 1)
	}
	writeEnvelope(w, &envelope{
		Kind:      kind,
		Digest:    digest,
		Cached:    env.Cached,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Result:    result,
		Node:      env.Node,
		Via:       s.cluster.Self().ID,
	})
	return true
}

// nodeID is this server's fleet identity ("" outside fleet mode, which
// keeps single-node envelopes byte-identical to their pre-fleet shape).
func (s *Server) nodeID() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.Self().ID
}

// handleClusterz publishes this node's health/load snapshot for peer
// probers: identity, version stamp, queue depth, in-flight digests, and
// drain state. Draining nodes answer 503 so peers route around them before
// their forwards start bouncing off ErrDraining.
func (s *Server) handleClusterz(w http.ResponseWriter, _ *http.Request) {
	st := cluster.NodeStatus{
		ID:         s.cluster.Self().ID,
		Version:    s.cluster.Version(),
		QueueDepth: s.pool.Depth(),
		InFlight:   s.group.InFlight(),
		Draining:   s.draining.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	if st.Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

// handleFleetMetrics publishes the fleet-level aggregation: this node's
// report merged with every live peer's scraped /metrics (per-node rows plus
// summed "fleet/serve" counters), with the fleet hit ratio split into its
// local/remote components and the forward ratio computed from the summed
// counters (averaging per-node ratios would weight idle nodes equally with
// busy ones).
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.cluster.FleetReport(r.Context(), s.metricsReport())
	for i := range rep.Rows {
		if rep.Rows[i].Name == "fleet/serve" {
			addFleetRatios(&rep.Rows[i])
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// addFleetRatios derives the fleet-level ratios from a merged counter row:
//
//	hit_ratio.local   — requests answered from the serving node's own cache
//	hit_ratio.remote  — forwarded requests answered from the owner's cache
//	forward_ratio     — share of routed requests that crossed a hop
func addFleetRatios(row *obs.Row) {
	get := func(name string) float64 {
		v, err := strconv.ParseInt(row.Det[name], 10, 64)
		if err != nil {
			return 0
		}
		return float64(v)
	}
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	hits, misses := get("serve.cache.hit"), get("serve.cache.miss")
	fhit, fmiss := get("serve.fleet.forward.hit"), get("serve.fleet.forward.miss")
	routed := get("serve.fleet.forwarded") + get("serve.fleet.owner_local") +
		get("serve.fleet.received") + get("serve.fleet.degraded")
	row.NoisyVal("serve.fleet.hit_ratio.local", ratio(hits, hits+misses))
	row.NoisyVal("serve.fleet.hit_ratio.remote", ratio(fhit, fhit+fmiss))
	row.NoisyVal("serve.fleet.forward_ratio", ratio(get("serve.fleet.forwarded"), routed))
}
