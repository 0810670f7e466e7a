package cluster_test

// The fleet fault-injection suite (DESIGN.md §4.14): every scenario is
// asserted via deterministic digests and result bytes — the contract is
// that a fleet under faults serves exactly the bytes a direct library call
// produces, never that it serves them at a particular speed. Timing enters
// only through Fleet.Converge, which is a synchronous probe round, not a
// sleep.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"twist/internal/cluster"
	"twist/internal/cluster/clustertest"
	"twist/internal/obs"
	"twist/internal/serve"
)

// runSpec builds the suite's standard small run job with a distinguishing
// seed, so tests can mint digests routed to whichever node they need.
func runSpec(seed int64) serve.RunSpec {
	return serve.RunSpec{Workload: "TJ", Variant: "twisted", Scale: 256, Seed: seed}
}

// digestOf normalizes a copy of the spec and returns its content digest.
func digestOf(t testing.TB, spec serve.RunSpec) string {
	t.Helper()
	c := spec
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	return serve.Digest(&c)
}

// directBytes runs the spec through the library and marshals the result —
// the fleet's ground truth.
func directBytes(t testing.TB, spec serve.RunSpec) []byte {
	t.Helper()
	c := spec
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	out, err := serve.RunJob(context.Background(), &c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// findSpec scans seeds from start until the minted digest satisfies pred —
// how tests pick jobs with a particular placement (owned by a node, pure-
// forwarded by another) without depending on any specific hash value.
func findSpec(t testing.TB, start int64, pred func(digest string) bool) (serve.RunSpec, string) {
	t.Helper()
	for seed := start; seed < start+512; seed++ {
		spec := runSpec(seed)
		d := digestOf(t, spec)
		if pred(d) {
			return spec, d
		}
	}
	t.Fatal("no seed found with the requested placement")
	return serve.RunSpec{}, ""
}

// TestFleetDigestRouting is the basic coalescing-locality property: a
// request posted to a pure forwarder executes on the owner, the forwarder
// admits the bytes, and every response equals the direct library call.
func TestFleetDigestRouting(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 3})
	spec := runSpec(1)
	d := digestOf(t, spec)
	fwd := f.NonOwnerIndex(d)
	if fwd < 0 {
		t.Fatal("no pure forwarder in a 3-node/2-replica fleet")
	}
	owner := f.OwnerIndex(d)
	third := 3 - fwd - owner
	want := directBytes(t, spec)

	env := f.PostEnvelope(t, fwd, serve.KindRun, spec)
	if env.Digest != d {
		t.Fatalf("digest %s, want %s", env.Digest, d)
	}
	if env.Node != f.Nodes[owner].ID || env.Via != f.Nodes[fwd].ID {
		t.Errorf("served by %q via %q, want owner %q via forwarder %q",
			env.Node, env.Via, f.Nodes[owner].ID, f.Nodes[fwd].ID)
	}
	if env.Cached {
		t.Error("first execution reported cached")
	}
	if !bytes.Equal(env.Result, want) {
		t.Errorf("forwarded result differs from direct library call\nfleet:  %s\ndirect: %s", env.Result, want)
	}

	// The owner populated its cache: the same job posted to the second
	// replica forwards to the owner and comes back a cache hit, identical.
	env2 := f.PostEnvelope(t, third, serve.KindRun, spec)
	if !env2.Cached || !bytes.Equal(env2.Result, want) {
		t.Errorf("cross-node repeat: cached=%v, bytes equal=%v", env2.Cached, bytes.Equal(env2.Result, want))
	}
	if env2.Node != f.Nodes[owner].ID {
		t.Errorf("repeat served by %q, want owner %q", env2.Node, f.Nodes[owner].ID)
	}

	// The forwarder admitted the response: a repeat there is served from
	// its own replica cache without any network hop.
	env3 := f.PostEnvelope(t, fwd, serve.KindRun, spec)
	if !env3.Cached || env3.Node != f.Nodes[fwd].ID || env3.Via != "" {
		t.Errorf("replica-cache repeat: cached=%v node=%q via=%q, want local hit on %q",
			env3.Cached, env3.Node, env3.Via, f.Nodes[fwd].ID)
	}
	if !bytes.Equal(env3.Result, want) {
		t.Error("replica-cache bytes differ from direct library call")
	}
	if got := f.Nodes[fwd].Server.Counters()["serve.fleet.replica_hit"]; got < 1 {
		t.Errorf("serve.fleet.replica_hit = %d, want >= 1", got)
	}
}

// TestFleetOwnerDeathFallsBackToReplica kills an owner and requires both
// halves of the fallback story: a node holding admitted bytes serves them
// from its replica cache, and a node holding nothing falls back to a live
// replica — the same bytes either way, asserted against the direct call.
func TestFleetOwnerDeathFallsBackToReplica(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 3})
	spec := runSpec(1)
	d := digestOf(t, spec)
	owner, fwd := f.OwnerIndex(d), f.NonOwnerIndex(d)
	third := 3 - owner - fwd
	want := directBytes(t, spec)

	// Seed the forwarder's replica cache through a normal forward.
	if env := f.PostEnvelope(t, fwd, serve.KindRun, spec); !bytes.Equal(env.Result, want) {
		t.Fatal("pre-kill bytes differ from direct library call")
	}

	f.Nodes[owner].Kill()

	// Replica-cache path: the forwarder still serves the digest, owner
	// dead or not, from the bytes it admitted.
	env := f.PostEnvelope(t, fwd, serve.KindRun, spec)
	if !env.Cached || !bytes.Equal(env.Result, want) {
		t.Errorf("replica cache after owner death: cached=%v, bytes equal=%v", env.Cached, bytes.Equal(env.Result, want))
	}

	// Fallback path: the second replica has nothing cached; its forward to
	// the dead owner fails, it falls back to itself (the next live
	// replica), and determinism reproduces the identical bytes.
	env2 := f.PostEnvelope(t, third, serve.KindRun, spec)
	if !bytes.Equal(env2.Result, want) {
		t.Errorf("fallback result differs from direct library call\nfleet:  %s\ndirect: %s", env2.Result, want)
	}
	if env2.Digest != d {
		t.Errorf("fallback digest %s, want %s", env2.Digest, d)
	}
	if env2.Node == f.Nodes[owner].ID {
		t.Errorf("response claims the dead owner %q served it", env2.Node)
	}
}

// TestFleetPartitionDegradesToLocal partitions a node from every peer and
// requires local-only serving with correct bytes instead of errors, even
// for a digest the node is not a replica of.
func TestFleetPartitionDegradesToLocal(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 3})
	// Node 0 is partitioned: every hop to a peer drops at the transport.
	f.Faults.Set("n1", clustertest.Rule{Drop: true})
	f.Faults.Set("n2", clustertest.Rule{Drop: true})

	// A digest whose replica set is exactly the unreachable peers.
	spec, d := findSpec(t, 1, func(d string) bool { return f.NonOwnerIndex(d) == 0 })
	want := directBytes(t, spec)
	env := f.PostEnvelope(t, 0, serve.KindRun, spec)
	if env.Digest != d {
		t.Fatalf("digest %s, want %s", env.Digest, d)
	}
	if env.Node != "n0" || env.Via != "" {
		t.Errorf("partitioned node served node=%q via=%q, want local n0", env.Node, env.Via)
	}
	if !bytes.Equal(env.Result, want) {
		t.Error("degraded result differs from direct library call")
	}
	if got := f.Nodes[0].Server.Counters()["serve.fleet.degraded"]; got < 1 {
		t.Errorf("serve.fleet.degraded = %d, want >= 1", got)
	}
}

// TestFleetRecoveryReconverges heals a partition and requires routing to
// re-converge onto the owner — asserted by who serves, not by timing:
// Converge is a synchronous probe round.
func TestFleetRecoveryReconverges(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 3})
	f.Faults.Set("n1", clustertest.Rule{Drop: true})
	f.Faults.Set("n2", clustertest.Rule{Drop: true})

	ownedByN1 := func(d string) bool {
		return f.OwnerIndex(d) == 1 && f.NonOwnerIndex(d) == 0
	}
	spec, _ := findSpec(t, 1, ownedByN1)
	want := directBytes(t, spec)
	// Under partition: n0 degrades to local execution of n1's digest.
	if env := f.PostEnvelope(t, 0, serve.KindRun, spec); env.Node != "n0" || !bytes.Equal(env.Result, want) {
		t.Fatalf("partition: served by %q, bytes equal %v", env.Node, bytes.Equal(env.Result, want))
	}
	if !f.Nodes[0].Cluster.Membership().IsDown("n1") {
		t.Fatal("n1 not marked down after failed forwards")
	}

	// Heal and converge: a fresh digest owned by n1 must forward again.
	f.Faults.ClearAll()
	f.Converge(context.Background())
	if f.Nodes[0].Cluster.Membership().IsDown("n1") {
		t.Fatal("n1 still down after heal + converge")
	}
	spec2, d2 := findSpec(t, 1000, ownedByN1)
	env := f.PostEnvelope(t, 0, serve.KindRun, spec2)
	if env.Digest != d2 {
		t.Fatalf("digest %s, want %s", env.Digest, d2)
	}
	if env.Node != "n1" || env.Via != "n0" {
		t.Errorf("after recovery served by %q via %q, want owner n1 via n0", env.Node, env.Via)
	}
	if !bytes.Equal(env.Result, directBytes(t, spec2)) {
		t.Error("post-recovery bytes differ from direct library call")
	}
}

// TestFleetTransportFaults drives the 5xx and delay injection paths: a
// peer answering 503 is routed around (correct bytes from a fallback), and
// a delayed link still completes within the hop timeout.
func TestFleetTransportFaults(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 3})
	spec := runSpec(1)
	d := digestOf(t, spec)
	owner, fwd := f.OwnerIndex(d), f.NonOwnerIndex(d)
	ownerID := f.Nodes[owner].ID
	want := directBytes(t, spec)

	// The owner answers 503 to jobs only. A 503 on its /clusterz would let
	// a prober tick mark it down first, and the forward this test counts
	// would then never be tried; the explicit probe below is such a tick.
	f.Faults.Set(ownerID, clustertest.Rule{Status: http.StatusServiceUnavailable, Path: clustertest.JobPath})
	f.Nodes[fwd].Cluster.ProbeOnce(context.Background())
	if f.Nodes[fwd].Cluster.Membership().IsDown(ownerID) {
		t.Fatal("a probe marked the owner down: the fault reached /clusterz")
	}
	env := f.PostEnvelope(t, fwd, serve.KindRun, spec)
	if !bytes.Equal(env.Result, want) {
		t.Error("bytes differ with owner answering 503")
	}
	if env.Node == ownerID {
		t.Errorf("response claims the sick owner %q served it", env.Node)
	}
	if got := f.Nodes[fwd].Server.Counters()["serve.fleet.forward.fail"]; got < 1 {
		t.Errorf("serve.fleet.forward.fail = %d, want >= 1", got)
	}

	// Heal, bring the owner back up, and slow its link: a digest it owns
	// still forwards and completes inside the per-hop timeout.
	f.Faults.ClearAll()
	f.Converge(context.Background())
	f.Faults.Set(ownerID, clustertest.Rule{Delay: 50 * time.Millisecond})
	spec2, d2 := findSpec(t, 2000, func(d string) bool {
		return f.OwnerIndex(d) == owner && f.NonOwnerIndex(d) == fwd
	})
	env2 := f.PostEnvelope(t, fwd, serve.KindRun, spec2)
	if env2.Digest != d2 || env2.Node != ownerID {
		t.Fatalf("delayed hop: digest %s served by %q, want %s by %q", env2.Digest, env2.Node, d2, ownerID)
	}
	if !bytes.Equal(env2.Result, directBytes(t, spec2)) {
		t.Error("bytes differ over a delayed link")
	}
}

// TestFleetVersionSkew runs one node on a bumped engine version: probes
// refuse the mismatch in both directions, each side degrades to serving
// its own requests locally, and no cross-version bytes are ever admitted —
// the invalidation contract of the replicated tier.
func TestFleetVersionSkew(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{
		Nodes:    3,
		Versions: map[int]string{1: serve.EngineVersion + "-bumped"},
	})
	f.Converge(context.Background())
	if !f.Nodes[1].Cluster.Membership().IsDown("n0") || !f.Nodes[1].Cluster.Membership().IsDown("n2") {
		t.Fatal("skewed node still trusts different-version peers after probe")
	}
	if !f.Nodes[0].Cluster.Membership().IsDown("n1") {
		t.Fatal("n0 still trusts the skewed node after probe")
	}

	// The skewed node serves everything itself, correctly.
	spec := runSpec(1)
	want := directBytes(t, spec)
	env := f.PostEnvelope(t, 1, serve.KindRun, spec)
	if env.Node != "n1" {
		t.Errorf("skewed node's request served by %q, want local n1", env.Node)
	}
	if !bytes.Equal(env.Result, want) {
		t.Error("skewed node's bytes differ from direct library call")
	}
	// Nothing crossed the version boundary into a same-version cache.
	for _, i := range []int{0, 2} {
		if got := f.Nodes[i].Server.Counters()["serve.cache.admit.forwarded"]; got != 0 {
			t.Errorf("node %d admitted %d forwarded results across a version skew", i, got)
		}
	}
	// The same-version pair still forwards normally between themselves.
	spec2, d2 := findSpec(t, 3000, func(d string) bool {
		return f.OwnerIndex(d) == 2 && f.NonOwnerIndex(d) == 0
	})
	env2 := f.PostEnvelope(t, 0, serve.KindRun, spec2)
	if env2.Digest != d2 || env2.Node != "n2" {
		t.Errorf("same-version pair: digest %s served by %q, want %s by n2", env2.Digest, env2.Node, d2)
	}
	if !bytes.Equal(env2.Result, directBytes(t, spec2)) {
		t.Error("same-version pair bytes differ from direct library call")
	}
}

// TestFleetMetricsAggregation posts through the fleet and checks the
// merged /metrics/fleet report: per-node rows, the summed fleet row, the
// split hit ratios, and per-peer degradation when a node dies.
func TestFleetMetricsAggregation(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 3})
	spec := runSpec(1)
	d := digestOf(t, spec)
	fwd := f.NonOwnerIndex(d)
	f.PostEnvelope(t, fwd, serve.KindRun, spec)             // forward + admit
	f.PostEnvelope(t, fwd, serve.KindRun, spec)             // replica-cache hit
	f.PostEnvelope(t, f.OwnerIndex(d), serve.KindRun, spec) // owner-local hit

	status, body := f.Get(t, 0, "/metrics/fleet")
	if status != http.StatusOK {
		t.Fatalf("/metrics/fleet status %d: %s", status, body)
	}
	var rep obs.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("bad fleet report: %v", err)
	}
	if rep.Experiment != "twistd-fleet" {
		t.Errorf("experiment %q, want twistd-fleet", rep.Experiment)
	}
	if rep.Params["nodes_up"] != "3" {
		t.Errorf("nodes_up %q, want 3", rep.Params["nodes_up"])
	}
	rows := map[string]obs.Row{}
	for _, r := range rep.Rows {
		rows[r.Name] = r
	}
	for _, want := range []string{"n0/serve", "n1/serve", "n2/serve", "fleet/serve"} {
		if _, ok := rows[want]; !ok {
			t.Fatalf("fleet report missing row %q", want)
		}
	}
	fleet := rows["fleet/serve"]
	if fleet.Det["serve.jobs.total"] == "" || fleet.Det["serve.jobs.total"] == "0" {
		t.Errorf("fleet serve.jobs.total = %q, want > 0", fleet.Det["serve.jobs.total"])
	}
	for _, k := range []string{"serve.fleet.hit_ratio.local", "serve.fleet.hit_ratio.remote", "serve.fleet.forward_ratio"} {
		if _, ok := fleet.Noisy[k]; !ok {
			t.Errorf("fleet row missing noisy signal %q", k)
		}
	}
	if fleet.Noisy["serve.fleet.forward_ratio"] <= 0 {
		t.Errorf("forward_ratio %v, want > 0 after a forwarded job", fleet.Noisy["serve.fleet.forward_ratio"])
	}

	// A dead peer degrades aggregation per node, not the endpoint.
	f.Nodes[2].Kill()
	status, body = f.Get(t, 0, "/metrics/fleet")
	if status != http.StatusOK {
		t.Fatalf("/metrics/fleet with dead peer: status %d", status)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Params["nodes_up"] != "2" {
		t.Errorf("nodes_up %q with a dead peer, want 2", rep.Params["nodes_up"])
	}
	if rep.Params["down"] != "n2" {
		t.Errorf("down %q, want n2", rep.Params["down"])
	}
}

// TestFleetShedding fills the fleet-wide queue bound via observed peer
// status and requires 429 + Retry-After on the next external request. The
// probe interval is effectively disabled so the injected observation is
// not overwritten by a real probe mid-test.
func TestFleetShedding(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{
		Nodes:           2,
		FleetQueueBound: 4,
		ProbeInterval:   time.Hour,
	})
	// Simulate probe-observed peer pressure: the peer reports a deep queue.
	f.Nodes[0].Cluster.Membership().Observe("n1", cluster.NodeStatus{
		ID: "n1", Version: serve.EngineVersion, QueueDepth: 10,
	})
	status, body, err := f.PostE(0, serve.KindRun, runSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429 under fleet queue bound", status, body)
	}
	if got := f.Nodes[0].Server.Counters()["serve.fleet.shed"]; got != 1 {
		t.Errorf("serve.fleet.shed = %d, want 1", got)
	}
	// Pressure gone → served again, correct bytes.
	f.Nodes[0].Cluster.Membership().Observe("n1", cluster.NodeStatus{
		ID: "n1", Version: serve.EngineVersion, QueueDepth: 0,
	})
	env := f.PostEnvelope(t, 0, serve.KindRun, runSpec(1))
	if !bytes.Equal(env.Result, directBytes(t, runSpec(1))) {
		t.Error("post-shed bytes differ from direct library call")
	}
}
