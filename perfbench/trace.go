package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (the program itself is not instrumented). Spans
// of one op share Op; Parent links a child call to the op span or call that
// made it.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Op     int               `json:"op"`
	Pass   string            `json:"pass"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Labels map[string]string `json:"labels,omitempty"`
	Counts map[string]int64  `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// layer is the module a span's call belongs to: the name up to the first dot
// ("nest.RunSeq" → "nest"; op spans are "op.<kind>").
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps the spans of one pass in memory; they are written out once
// the run ends. A nil *tracer records nothing, so untraced code paths call
// the same helpers at no cost.
type tracer struct {
	pass   string
	origin time.Time
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(pass string) *tracer { return &tracer{pass: pass, origin: time.Now()} }

// active is a span that has begun and not yet ended. A nil *active (from a
// nil tracer) accepts every call.
type active struct {
	t *tracer
	s span
}

// begin opens a span for op under parent (nil for an op's root span).
func (t *tracer) begin(op int, parent *active, name string) *active {
	if t == nil {
		return nil
	}
	a := &active{t: t, s: span{ID: t.ids.Add(1), Op: op, Pass: t.pass, Name: name}}
	if parent != nil {
		a.s.Parent = parent.s.ID
	}
	a.s.Start = time.Since(t.origin).Nanoseconds()
	return a
}

func (a *active) label(k, v string) {
	if a == nil {
		return
	}
	if a.s.Labels == nil {
		a.s.Labels = map[string]string{}
	}
	a.s.Labels[k] = v
}

func (a *active) count(k string, v int64) {
	if a == nil {
		return
	}
	if a.s.Counts == nil {
		a.s.Counts = map[string]int64{}
	}
	a.s.Counts[k] += v
}

// end closes the span and hands it to the tracer.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = time.Since(a.t.origin).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by ID (begin order).
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// selfTimes maps span ID to self time: the span's duration minus the time its
// child spans cover. Children of a span run one after another on the caller's
// goroutine, so their durations add up without overlap.
func selfTimes(spans []span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
		if p := spans[i].Parent; p != 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// layerSelfMS sums self time per layer, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i := range spans {
		out[spans[i].layer()] += float64(self[spans[i].ID]) / 1e6
	}
	return out
}

// dumpSpans writes spans as JSON lines to dir/spans-<workload>.jsonl and
// returns the path.
func dumpSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}
