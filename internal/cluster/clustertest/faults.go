package clustertest

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Rule is one injected transport fault for traffic addressed to a node.
// Zero value means "no fault". Exactly one of Drop, Delay and Status is
// normally set: Drop fails the request at the transport layer (a dead or
// partitioned peer), Delay holds it before delivery (a slow link), Status
// short-circuits with a synthesized HTTP error of that code (a sick peer).
//
// Path, when set, scopes the rule to requests whose URL path starts with it;
// other traffic to the node passes untouched. JobPath scopes a fault to
// forwarded jobs, so the background /clusterz prober keeps seeing the peer
// healthy and cannot route around the fault before a forward meets it.
type Rule struct {
	Drop   bool
	Delay  time.Duration
	Status int
	Path   string
}

// JobPath is the URL path prefix of every forwarded job (/v1/<kind>).
const JobPath = "/v1/"

// Faults is the fault-injection table every inter-node HTTP client in a
// Fleet routes through: rules are keyed by target node ID and applied in
// the RoundTripper, so drops look like connection failures and synthesized
// statuses look like real peer answers. Safe for concurrent use.
type Faults struct {
	mu     sync.Mutex
	rules  map[string]Rule
	addrID map[string]string // host:port -> node ID
}

// NewFaults returns an empty fault table.
func NewFaults() *Faults {
	return &Faults{rules: make(map[string]Rule), addrID: make(map[string]string)}
}

// register maps a listener address to its node ID so rules can be keyed by
// the stable ID rather than the ephemeral port.
func (f *Faults) register(addr, id string) {
	f.mu.Lock()
	f.addrID[addr] = id
	f.mu.Unlock()
}

// Set installs the rule for traffic addressed to a node, replacing any
// previous rule.
func (f *Faults) Set(nodeID string, r Rule) {
	f.mu.Lock()
	f.rules[nodeID] = r
	f.mu.Unlock()
}

// Clear removes the rule for a node.
func (f *Faults) Clear(nodeID string) {
	f.mu.Lock()
	delete(f.rules, nodeID)
	f.mu.Unlock()
}

// ClearAll removes every rule (heals the network).
func (f *Faults) ClearAll() {
	f.mu.Lock()
	f.rules = make(map[string]Rule)
	f.mu.Unlock()
}

// rule resolves the rule for a request URL ("" ID when the host is
// unknown); a rule scoped to another path resolves to no fault.
func (f *Faults) rule(u *url.URL) (string, Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok := f.addrID[u.Host]
	if !ok {
		return "", Rule{}
	}
	r := f.rules[id]
	if !strings.HasPrefix(u.Path, r.Path) {
		return id, Rule{}
	}
	return id, r
}

// Client returns an *http.Client whose transport applies the fault table
// before delegating to the default transport.
func (f *Faults) Client() *http.Client {
	return &http.Client{Transport: &faultTransport{faults: f, next: http.DefaultTransport}}
}

// faultTransport applies the fault table to each round trip.
type faultTransport struct {
	faults *Faults
	next   http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, r := t.faults.rule(req.URL)
	if r.Drop {
		return nil, fmt.Errorf("clustertest: injected drop to %s: %w", id, errors.New("connection refused"))
	}
	if r.Delay > 0 {
		select {
		case <-time.After(r.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if r.Status != 0 {
		body := fmt.Sprintf(`{"error":"clustertest: injected %d from %s"}`, r.Status, id)
		return &http.Response{
			StatusCode: r.Status,
			Status:     http.StatusText(r.Status),
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return t.next.RoundTrip(req)
}
