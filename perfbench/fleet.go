package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"twist/internal/cluster"
	"twist/internal/obs"
	"twist/internal/serve"
)

// node is one twistd server on a loopback listener.
type node struct {
	url  string
	srv  *serve.Server
	cl   *cluster.Node // nil for a single server
	hs   *http.Server
	done chan struct{} // closed once hs.Serve has returned
}

// fleet is a set of servers in this process plus the client the benchmark
// calls them with. With more than one node the servers are static
// consistent-hash peers (cluster.NewNode), so a job entering a non-owner is
// forwarded one hop.
type fleet struct {
	nodes  []*node
	client *http.Client // benchmark → server
	hops   *http.Client // server → server
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
}

// startFleet boots n servers with cfg. Listeners come first, so the full
// static membership is known before any node is built.
func startFleet(n int, cfg serve.Config) (*fleet, error) {
	f := &fleet{client: newClient(), hops: newClient()}
	var lns []net.Listener
	var members []cluster.Member
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		members = append(members, cluster.Member{ID: "n" + strconv.Itoa(i), URL: "http://" + ln.Addr().String()})
	}
	for i, ln := range lns {
		nd := &node{url: members[i].URL, done: make(chan struct{})}
		c := cfg
		if n > 1 {
			nd.cl = cluster.NewNode(cluster.Config{
				Self:           members[i],
				Peers:          members,
				Version:        serve.EngineVersion,
				FailThreshold:  1 << 30, // a slow probe under load must not reshape the ring
				ForwardTimeout: time.Minute,
				Client:         f.hops,
			})
			c.Cluster = nd.cl
		}
		nd.srv = serve.New(c)
		nd.hs = &http.Server{Handler: nd.srv.Handler()}
		go func(nd *node, ln net.Listener) {
			defer close(nd.done)
			nd.hs.Serve(ln)
		}(nd, ln)
		f.nodes = append(f.nodes, nd)
	}
	return f, nil
}

// close stops every listener and server and waits for them.
func (f *fleet) close() {
	for _, nd := range f.nodes {
		nd.hs.Close()
		<-nd.done
	}
	for _, nd := range f.nodes {
		nd.srv.Close()
	}
	f.client.CloseIdleConnections()
	f.hops.CloseIdleConnections()
}

// envelope is the part of every job reply the benchmark reads.
type envelope struct {
	Kind      string          `json:"kind"`
	Cached    bool            `json:"cached"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Result    json.RawMessage `json:"result"`
	Via       string          `json:"via"`
}

// post sends one job body to node i. A non-2xx reply returns its status and
// a zero envelope; only transport failures are errors.
func (f *fleet) post(i int, kind serve.Kind, body []byte) (int, envelope, error) {
	var env envelope
	resp, err := f.client.Post(f.nodes[i].url+"/v1/"+string(kind), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, env, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, env, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, env, nil
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return resp.StatusCode, env, fmt.Errorf("bad envelope: %w", err)
	}
	return resp.StatusCode, env, nil
}

// timedPost posts op and returns its caller-side record; ok means a 2xx
// reply with a well-formed envelope of the right kind.
func (f *fleet) timedPost(op jobOp) (record, envelope) {
	t0 := time.Now()
	status, env, err := f.post(op.entry, op.kind, op.body)
	ok := err == nil && status == http.StatusOK && env.Kind == string(op.kind)
	return record{lat: time.Since(t0), ok: ok}, env
}

// counterNames are the serve-layer counters the ledger reads, summed over the
// fleet's nodes.
var counterNames = []string{
	"serve.cache.hit", "serve.cache.miss", "serve.rejected", "serve.coalesced",
	"serve.fleet.forwarded", "serve.fleet.owner_local", "serve.fleet.degraded",
	"serve.fleet.replica_hit", "serve.fleet.forward.fail",
}

// counters sums the fleet's serve counters, plus the cache evictions that
// only /metrics publishes.
func (f *fleet) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, nd := range f.nodes {
		c := nd.srv.Counters()
		for _, name := range counterNames {
			out[name] += float64(c[name])
		}
		resp, err := f.client.Get(nd.url + "/metrics")
		if err != nil {
			return nil, err
		}
		var rep obs.Report
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode /metrics: %w", err)
		}
		for _, row := range rep.Rows {
			if row.Name == "serve" {
				ev, err := strconv.ParseInt(row.Det["serve.cache.evictions"], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("serve.cache.evictions: %w", err)
				}
				out["serve.cache.evictions"] += float64(ev)
			}
		}
	}
	return out, nil
}

// delta is after − before, key by key.
func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
