package clustertest_test

// The harness's own contract tests: kill/restart really sever and revive a
// node at the same address, fault rules really apply per target, and the
// helpers (placement lookups, posting, converge) behave — so fleet tests
// built on the harness can trust its primitives.

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"twist/internal/cluster"
	"twist/internal/cluster/clustertest"
	"twist/internal/serve"
)

func transformSpec() serve.TransformSpec {
	return serve.TransformSpec{
		Source: `package p

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
`,
		Variants: []string{"interchanged"},
	}
}

// TestHarnessBootAndHelpers boots a fleet and exercises the query surface:
// per-node health endpoints, placement helpers agreeing with the ring, and
// envelope decoding.
func TestHarnessBootAndHelpers(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 3})
	if len(f.Nodes) != 3 {
		t.Fatalf("fleet size %d, want 3", len(f.Nodes))
	}
	for i, n := range f.Nodes {
		if n.Killed() {
			t.Errorf("node %d born killed", i)
		}
		status, body := f.Get(t, i, "/healthz")
		if status != http.StatusOK {
			t.Errorf("node %d /healthz status %d", i, status)
		}
		if string(body) != "ok\n" {
			t.Errorf("node %d /healthz body %q", i, body)
		}
		status, body = f.Get(t, i, "/clusterz")
		if status != http.StatusOK {
			t.Fatalf("node %d /clusterz status %d", i, status)
		}
		var st cluster.NodeStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("node %d /clusterz body: %v", i, err)
		}
		if st.ID != n.ID || st.Version != serve.EngineVersion {
			t.Errorf("node %d reports id %q version %q", i, st.ID, st.Version)
		}
	}

	// Placement helpers are consistent: the owner leads the replica set,
	// and the pure forwarder appears nowhere in it.
	spec := serve.RunSpec{Workload: "TJ", Scale: 256, Seed: 7}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := serve.Digest(&spec)
	owner, fwd := f.OwnerIndex(d), f.NonOwnerIndex(d)
	reps := f.ReplicaIDs(d)
	if len(reps) != 2 {
		t.Fatalf("replica set %v, want 2 entries", reps)
	}
	if owner < 0 || f.Nodes[owner].ID != reps[0] {
		t.Errorf("OwnerIndex %d does not lead replica set %v", owner, reps)
	}
	for _, id := range reps {
		if fwd >= 0 && id == f.Nodes[fwd].ID {
			t.Errorf("pure forwarder %q found in replica set %v", id, reps)
		}
	}

	// A non-run kind round-trips through the harness too.
	env := f.PostEnvelope(t, 0, serve.KindTransform, transformSpec())
	if env.Kind != string(serve.KindTransform) || len(env.Result) == 0 {
		t.Errorf("transform envelope kind %q, %d result bytes", env.Kind, len(env.Result))
	}
}

// TestHarnessKillRestart proves the kill switch severs a node at the
// connection level and Restart revives it at the same address with its
// state (the warm cache) intact.
func TestHarnessKillRestart(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 2})
	spec := serve.RunSpec{Workload: "TJ", Scale: 256, Seed: 9}
	f.PostEnvelope(t, 0, serve.KindRun, spec) // warm whoever serves it

	f.Nodes[0].Kill()
	if !f.Nodes[0].Killed() {
		t.Fatal("Killed() false after Kill")
	}
	if _, _, err := f.PostE(0, serve.KindRun, spec); err == nil {
		t.Fatal("post to a killed node succeeded")
	}
	// The peer keeps serving while its neighbor is dead.
	if env := f.PostEnvelope(t, 1, serve.KindRun, spec); env.Digest == "" {
		t.Fatal("survivor returned an empty digest")
	}

	f.Nodes[0].Restart()
	url := f.Nodes[0].URL
	env := f.PostEnvelope(t, 0, serve.KindRun, spec)
	if env.Digest == "" {
		t.Fatal("restarted node returned an empty digest")
	}
	if f.Nodes[0].URL != url {
		t.Errorf("restart moved the node from %s to %s", url, f.Nodes[0].URL)
	}
}

// TestHarnessFaultRules proves each rule kind behaves as documented when
// driven directly through the fault client.
func TestHarnessFaultRules(t *testing.T) {
	t.Parallel()
	f := clustertest.Start(t, clustertest.Config{Nodes: 2})
	client := f.Faults.Client()

	// Drop: transport-level failure.
	f.Faults.Set("n1", clustertest.Rule{Drop: true})
	if _, err := client.Get(f.Nodes[1].URL + "/healthz"); err == nil {
		t.Error("dropped request succeeded")
	}
	// Unknown hosts and rule-free nodes pass through.
	if resp, err := client.Get(f.Nodes[0].URL + "/healthz"); err != nil {
		t.Errorf("rule-free request failed: %v", err)
	} else {
		resp.Body.Close()
	}

	// Status: synthesized response without touching the listener.
	f.Faults.Set("n1", clustertest.Rule{Status: http.StatusBadGateway})
	resp, err := client.Get(f.Nodes[1].URL + "/healthz")
	if err != nil {
		t.Fatalf("status-faulted request errored: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status %d, want 502", resp.StatusCode)
	}

	// Path: a job-scoped fault answers jobs and lets every other path through.
	f.Faults.Set("n1", clustertest.Rule{Status: http.StatusBadGateway, Path: clustertest.JobPath})
	resp, err = client.Get(f.Nodes[1].URL + clustertest.JobPath + string(serve.KindRun))
	if err != nil {
		t.Fatalf("job-scoped fault errored: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("job path status %d, want 502", resp.StatusCode)
	}
	resp, err = client.Get(f.Nodes[1].URL + "/clusterz")
	if err != nil {
		t.Fatalf("probe under a job-scoped fault errored: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("probe under a job-scoped fault answered %d, want 200", resp.StatusCode)
	}

	// Delay: the request completes after the hold.
	f.Faults.Set("n1", clustertest.Rule{Delay: 20 * time.Millisecond})
	begin := time.Now()
	resp, err = client.Get(f.Nodes[1].URL + "/healthz")
	if err != nil {
		t.Fatalf("delayed request errored: %v", err)
	}
	resp.Body.Close()
	if elapsed := time.Since(begin); elapsed < 20*time.Millisecond {
		t.Errorf("delayed request returned after %v, want >= 20ms", elapsed)
	}
	// Delay respects cancellation.
	f.Faults.Set("n1", clustertest.Rule{Delay: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.Nodes[1].URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Do(req); err == nil {
		t.Error("hour-delayed request returned before its context expired")
	}

	// Clear and ClearAll heal.
	f.Faults.Clear("n1")
	if resp, err := client.Get(f.Nodes[1].URL + "/healthz"); err != nil {
		t.Errorf("cleared node still faulted: %v", err)
	} else {
		resp.Body.Close()
	}
	f.Faults.Set("n0", clustertest.Rule{Drop: true})
	f.Faults.ClearAll()
	if resp, err := client.Get(f.Nodes[0].URL + "/healthz"); err != nil {
		t.Errorf("ClearAll left a fault in place: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestHarnessConverge proves Converge synchronously refreshes membership
// in both directions around a kill.
func TestHarnessConverge(t *testing.T) {
	t.Parallel()
	// A long probe interval isolates Converge from the background prober.
	f := clustertest.Start(t, clustertest.Config{Nodes: 3, ProbeInterval: time.Hour})
	f.Converge(context.Background())
	for _, n := range f.Nodes {
		for _, peer := range f.Nodes {
			if peer.ID != n.ID && n.Cluster.Membership().IsDown(peer.ID) {
				t.Fatalf("%s sees %s down in a healthy fleet", n.ID, peer.ID)
			}
		}
	}
	f.Nodes[2].Kill()
	f.Converge(context.Background())
	if !f.Nodes[0].Cluster.Membership().IsDown("n2") {
		t.Error("n0 still sees the killed n2 as up after Converge")
	}
	f.Nodes[2].Restart()
	f.Converge(context.Background())
	if f.Nodes[0].Cluster.Membership().IsDown("n2") {
		t.Error("n0 still sees the restarted n2 as down after Converge")
	}
}
