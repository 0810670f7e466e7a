package main

import (
	"fmt"
	"sort"

	"twist/internal/workloads"
)

// catalogEntry is one per-layer metric the traced run prints.
type catalogEntry struct{ name, unit string }

// layerCatalog lists every per-layer metric, in print order. BENCHMARK.json
// names the same set.
func layerCatalog() []catalogEntry {
	var c []catalogEntry
	add := func(name, unit string) { c = append(c, catalogEntry{name, unit}) }
	for _, b := range workloads.Names() {
		for _, e := range engineNames {
			add("nest.ns_per_visit."+b+"."+e, "ns")
		}
	}
	for _, b := range workloads.Names() {
		add("nest.par_speedup."+b, "x")
	}
	add("nest.work", "count")
	add("nest.iterations", "count")
	for _, e := range engineNames {
		add("nest.engine_ops."+e, "count")
	}
	add("nest.useful_ratio", "ratio")
	add("memsim.ns_per_access.seq", "ns")
	add("memsim.ns_per_access.sharded", "ns")
	add("memsim.reuse_ns_per_access", "ns")
	add("memsim.accesses", "count")
	for _, l := range simLevels {
		add("memsim.misses."+l, "count")
	}
	for _, b := range workloads.Names() {
		add("workloads.build_ms."+b, "ms")
	}
	for _, k := range layoutCycle {
		add("layout.under_ms."+k, "ms")
	}
	add("oracle.capture_ms", "ms")
	add("oracle.check_ms", "ms")
	add("oracle.golden_visits", "count")
	add("transform.parse_us", "us")
	add("transform.generate_us", "us")
	add("loopfront.lower_us", "us")
	add("transform.bytes", "bytes")
	add("serve.decode_us", "us")
	add("serve.normalize_us", "us")
	add("serve.digest_us", "us")
	add("serve.handler_us", "us")
	add("serve.transport_us", "us")
	add("serve.cache.hit_ratio", "ratio")
	add("serve.cache.evictions", "count")
	add("cluster.route_ns", "ns")
	add("cluster.forward_ratio", "ratio")
	add("cluster.hop_ms", "ms")
	add("runtime.alloc_kb_per_op", "KiB")
	add("runtime.gc_per_kop", "1/kop")
	add("trace.overhead_pct", "%")
	return c
}

// simLevels are the simulated levels whose misses the ledger counts. L3 is
// left out: the measured pass follows a warm-up and every serve-miss working
// set fits the 128K L3, so its count is 0 by construction.
var simLevels = []string{"L1", "L2"}

// sums accumulates a total and a denominator per key.
type sums map[string]*[2]float64

func (s sums) add(k string, num, den float64) {
	if s[k] == nil {
		s[k] = &[2]float64{}
	}
	s[k][0] += num
	s[k][1] += den
}

// layerMetrics derives the per-layer metrics a pass's spans and server
// counter deltas support; metrics the pass has no calls for are absent.
// Per-unit costs (ns_per_*) are total self time over total units; per-call
// times are the median self time of the call's spans.
func layerMetrics(spans []span, counters map[string]float64) map[string]float64 {
	self := selfTimes(spans)
	m := map[string]float64{}
	calls := map[string][]float64{} // metric → per-span self times, in its unit
	perVisit, perPar := sums{}, sums{}
	sim, reuse := sums{}, sums{}
	counts := map[string]float64{}
	seqByOp := map[int]int64{}
	var sinks []*span
	// Per op: the caller-side HTTP time and the time of the op's other calls
	// (the replay of its job), whose difference is the serving overhead.
	httpNS, otherNS, fwd := map[int]int64{}, map[int]int64{}, map[int]bool{}
	for i := range spans {
		s := &spans[i]
		st := float64(self[s.ID])
		c := func(k string) float64 { return float64(s.Counts[k]) }
		switch s.Name {
		case "nest.RunSeq", "nest.RunWith":
			b, e := s.Labels["bench"], s.Labels["engine"]
			if s.Name == "nest.RunSeq" {
				perVisit.add(b+"."+e, st, c("iterations"))
				perPar.add(b+".seq", st, c("iterations"))
				seqByOp[s.Op] = s.dur()
			} else {
				perPar.add(b+".par", st, c("iterations"))
			}
			counts["nest.work"] += c("work")
			counts["nest.iterations"] += c("iterations")
			counts["nest.engine_ops."+e] += c("engine_ops")
		case "memsim.RunSink":
			sinks = append(sinks, s)
			if s.Labels["phase"] == "measure" {
				counts["memsim.accesses"] += c("accesses")
				for _, l := range simLevels {
					counts["memsim.misses."+l] += c("misses." + l)
				}
			}
		case "memsim.RunEmit":
			reuse.add("", st, c("accesses"))
		case "workloads.ByName":
			calls["workloads.build_ms."+s.Labels["bench"]] = append(calls["workloads.build_ms."+s.Labels["bench"]], st/1e6)
		case "layout.UnderLayout":
			calls["layout.under_ms."+s.Labels["layout"]] = append(calls["layout.under_ms."+s.Labels["layout"]], st/1e6)
		case "oracle.Capture":
			calls["oracle.capture_ms"] = append(calls["oracle.capture_ms"], st/1e6)
			counts["oracle.golden_visits"] += c("golden_visits")
		case "oracle.Check":
			calls["oracle.check_ms"] = append(calls["oracle.check_ms"], st/1e6)
		case "transform.ParseFile":
			calls["transform.parse_us"] = append(calls["transform.parse_us"], st/1e3)
		case "transform.Generate":
			calls["transform.generate_us"] = append(calls["transform.generate_us"], st/1e3)
			counts["transform.bytes"] += c("bytes")
		case "loopfront.Single":
			calls["loopfront.lower_us"] = append(calls["loopfront.lower_us"], st/1e3)
		case "serve.decode":
			calls["serve.decode_us"] = append(calls["serve.decode_us"], st/1e3)
		case "serve.Normalize":
			calls["serve.normalize_us"] = append(calls["serve.normalize_us"], st/1e3)
		case "serve.Digest":
			calls["serve.digest_us"] = append(calls["serve.digest_us"], st/1e3)
		case "cluster.Route":
			calls["cluster.route_ns"] = append(calls["cluster.route_ns"], st)
		case "serve.http":
			handler := c("elapsed_ns")
			calls["serve.handler_us"] = append(calls["serve.handler_us"], handler/1e3)
			calls["serve.transport_us"] = append(calls["serve.transport_us"], (float64(s.dur())-handler)/1e3)
			httpNS[s.Op] = s.dur()
			fwd[s.Op] = s.Labels["via"] != ""
		}
		if s.Parent != 0 && s.Name != "serve.http" && s.Op >= 0 {
			otherNS[s.Op] += s.dur()
		}
	}
	for name, vs := range calls {
		m[name] = median(vs)
	}
	for k, v := range perVisit {
		if v[1] > 0 {
			m["nest.ns_per_visit."+k] = v[0] / v[1]
		}
	}
	for _, b := range workloads.Names() {
		seq, par := perPar[b+".seq"], perPar[b+".par"]
		if seq != nil && par != nil && seq[1] > 0 && par[0] > 0 {
			m["nest.par_speedup."+b] = (seq[0] / seq[1]) / (par[0] / par[1])
		}
	}
	if counts["nest.iterations"] > 0 {
		m["nest.useful_ratio"] = counts["nest.work"] / counts["nest.iterations"]
	}
	// A traced pass's extra cost over the untraced engine run of the same op,
	// per simulated access.
	for _, s := range sinks {
		if seq, ok := seqByOp[s.Op]; ok {
			sim.add(s.Labels["sim"], float64(self[s.ID]-seq), float64(s.Counts["accesses"]))
		}
	}
	for k, v := range sim {
		if v[1] > 0 {
			m["memsim.ns_per_access."+k] = v[0] / v[1]
		}
	}
	if v := reuse[""]; v != nil && v[1] > 0 {
		m["memsim.reuse_ns_per_access"] = v[0] / v[1]
	}
	for k, v := range counts {
		m[k] = v
	}
	// The forward hop: median serving overhead (HTTP time minus the op's
	// direct replay) of forwarded ops minus that of owner-local ops.
	overhead := map[bool][]float64{}
	for op, h := range httpNS {
		overhead[fwd[op]] = append(overhead[fwd[op]], float64(h-otherNS[op])/1e6)
	}
	if len(overhead[true]) > 0 && len(overhead[false]) > 0 {
		m["cluster.hop_ms"] = median(overhead[true]) - median(overhead[false])
	}
	if counters != nil {
		if look := counters["serve.cache.hit"] + counters["serve.cache.miss"]; look > 0 {
			m["serve.cache.hit_ratio"] = counters["serve.cache.hit"] / look
		}
		m["serve.cache.evictions"] = counters["serve.cache.evictions"]
		routed := counters["serve.fleet.forwarded"] + counters["serve.fleet.owner_local"] +
			counters["serve.fleet.degraded"] + counters["serve.fleet.replica_hit"]
		if routed > 0 {
			m["cluster.forward_ratio"] = counters["serve.fleet.forwarded"] / routed
		}
	}
	return m
}

// opSpanMedianMS is the median duration of a pass's op root spans.
func opSpanMedianMS(spans []span) float64 {
	var ds []float64
	for i := range spans {
		if spans[i].Parent == 0 && spans[i].Op >= 0 {
			ds = append(ds, float64(spans[i].dur())/1e6)
		}
	}
	return median(ds)
}

// finishLedger turns a traced run into the per-layer metrics. Metrics of
// layers the workload's own ops never call are taken from the probe: one
// serve-miss block, traced the same way on a fresh fleet. The spans of both
// are written out.
func finishLedger(o options, out *outcome, base *pass, tr *tracer, counters map[string]float64) (*outcome, error) {
	spans := tr.snapshot()
	values := layerMetrics(spans, counters)
	for k, v := range runtimeMetrics(base) {
		values[k] = v
	}
	baseP50 := ms(base.p50())
	values["trace.overhead_pct"] = (opSpanMedianMS(spans)/baseP50 - 1) * 100
	out.info["counters"] = counters

	var fromProbe []string
	for _, e := range layerCatalog() {
		if _, ok := values[e.name]; !ok {
			fromProbe = append(fromProbe, e.name)
		}
	}
	if len(fromProbe) > 0 {
		pp, ptr, pc, err := tracedMiss(o, 1, "probe")
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		out.attempted += pp.attempted
		out.failed += pp.failed
		pspans := ptr.snapshot()
		probe := layerMetrics(pspans, pc)
		for _, name := range fromProbe {
			v, ok := probe[name]
			if !ok {
				return nil, fmt.Errorf("metric %s not measured by the ops or the probe", name)
			}
			values[name] = v
		}
		spans = append(spans, pspans...)
		out.info["probe_counters"] = pc
	}
	sort.Strings(fromProbe)
	out.info["from_probe"] = fromProbe
	out.info["layer_self_ms"] = layerSelfMS(spans)
	out.metrics = map[string]metric{}
	for _, e := range layerCatalog() {
		out.metrics[e.name] = metric{values[e.name], e.unit}
	}
	path, err := dumpSpans(o.out, o.workload, spans)
	if err != nil {
		return nil, err
	}
	out.info["span_dump"] = path
	out.info["spans"] = len(spans)
	return out, nil
}
