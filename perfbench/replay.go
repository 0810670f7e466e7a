package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"twist/internal/layout"
	"twist/internal/loopfront"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/oracle"
	"twist/internal/serve"
	"twist/internal/transform"
	"twist/internal/transform/algebra"
	"twist/internal/workloads"
)

// decodeSpec decodes a job body the way the server does: into the kind's
// spec type, rejecting unknown fields.
func decodeSpec(kind serve.Kind, body []byte) (serve.Spec, error) {
	var spec serve.Spec
	switch kind {
	case serve.KindRun:
		spec = &serve.RunSpec{}
	case serve.KindMissCurve:
		spec = &serve.MissCurveSpec{}
	case serve.KindTransform:
		spec = &serve.TransformSpec{}
	case serve.KindOracle:
		spec = &serve.OracleSpec{}
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// directBytes computes a job's result bytes by the direct library call the
// server's reply must equal (serve.RunJob and friends, then json.Marshal).
func directBytes(kind serve.Kind, body []byte) ([]byte, error) {
	spec, err := decodeSpec(kind, body)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var out any
	switch s := spec.(type) {
	case *serve.RunSpec:
		out, err = serve.RunJob(ctx, s)
	case *serve.MissCurveSpec:
		out, err = serve.MissCurveJob(ctx, s)
	case *serve.TransformSpec:
		out, err = serve.TransformJob(ctx, s)
	case *serve.OracleSpec:
		out, err = serve.OracleJob(ctx, s)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// replay recomputes a normalized spec's result through the public calls the
// job's execution makes, one span per call under parent, and returns the
// marshaled result. It must equal the served result byte for byte.
func replay(tr *tracer, op int, parent *active, spec serve.Spec) ([]byte, error) {
	ctx := context.Background()
	call := func(name string, f func(sp *active) error) error {
		sp := tr.begin(op, parent, name)
		defer sp.end()
		return f(sp)
	}
	var out any
	var err error
	switch s := spec.(type) {
	case *serve.RunSpec:
		out, err = replayRun(ctx, s, call)
	case *serve.MissCurveSpec:
		out, err = replayMissCurve(ctx, s, call)
	case *serve.OracleSpec:
		out, err = replayOracle(s, call)
	case *serve.TransformSpec:
		out, err = replayTransform(s, call)
	default:
		err = fmt.Errorf("unknown spec %T", spec)
	}
	if err != nil {
		return nil, err
	}
	var b []byte
	err = call("serve.encode", func(*active) error {
		b, err = json.Marshal(out)
		return err
	})
	return b, err
}

type caller func(name string, f func(sp *active) error) error

// buildInstance is the workload build every engine job starts with.
func buildInstance(call caller, name string, scale int, seed int64) (*workloads.Instance, error) {
	var in *workloads.Instance
	err := call("workloads.ByName", func(sp *active) error {
		sp.label("bench", name)
		var err error
		in, err = workloads.ByName(name, scale, seed)
		return err
	})
	return in, err
}

// underLayout is the arena repacking every simulated job applies.
func underLayout(call caller, in *workloads.Instance, kind string, v nest.Variant) (*workloads.Instance, error) {
	lk, err := layout.ParseKind(kind)
	if err != nil {
		return nil, err
	}
	var lin *workloads.Instance
	err = call("layout.UnderLayout", func(sp *active) error {
		sp.label("layout", lk.String())
		lin, err = in.UnderLayout(lk, v)
		return err
	})
	return lin, err
}

func variantOf(expr string) (nest.Variant, error) {
	s, err := algebra.ParseSchedule(expr)
	if err != nil {
		return nest.Variant{}, err
	}
	return s.Variant(), nil
}

func engineOf(name string) (nest.Engine, error) {
	if name == "" {
		return nest.EngineRecursive, nil
	}
	return nest.ParseEngine(name)
}

func countStats(sp *active, bench string, eng nest.Engine, st nest.Stats, engOps int64) {
	sp.label("bench", bench)
	sp.label("engine", eng.String())
	sp.count("iterations", st.Iterations)
	sp.count("work", st.Work)
	sp.count("engine_ops", engOps)
}

func replayRun(ctx context.Context, s *serve.RunSpec, call caller) (*serve.RunResult, error) {
	in, err := buildInstance(call, s.Workload, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	v, err := variantOf(s.Variant)
	if err != nil {
		return nil, err
	}
	fm, err := nest.ParseFlagMode(s.FlagMode)
	if err != nil {
		return nil, err
	}
	eng, err := engineOf(s.Engine)
	if err != nil {
		return nil, err
	}
	configure := func(e *nest.Exec) {
		e.Flags = fm
		e.Engine = eng
	}
	res := &serve.RunResult{
		Workload: s.Workload, Variant: s.Variant, Scale: s.Scale, Seed: s.Seed,
		Workers: s.Workers, FlagMode: s.FlagMode, SimWorkers: s.SimWorkers,
		Geometry: s.Geometry, Layout: s.Layout, Engine: s.Engine,
	}
	if s.Workers <= 1 {
		err = call("nest.RunSeq", func(sp *active) error {
			st, engOps, err := in.RunSeq(ctx, v, configure)
			countStats(sp, s.Workload, eng, st, engOps)
			res.Stats, res.EngineOps, res.Tasks = st, engOps, 1
			return err
		})
	} else {
		err = call("nest.RunWith", func(sp *active) error {
			r, err := in.RunWith(nest.RunConfig{
				Variant: v, Engine: eng, Workers: s.Workers, Stealing: true, Ctx: ctx, Layout: s.Layout,
			})
			countStats(sp, s.Workload, eng, r.Stats, r.EngineOps)
			res.Stats, res.EngineOps, res.Tasks = r.Stats, r.EngineOps, r.Tasks
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	res.Ops = res.Stats.Ops()
	res.Checksum = obs.FormatUint(in.Checksum())

	lin, err := underLayout(call, in, s.Layout, v)
	if err != nil {
		return nil, err
	}
	levels, err := memsim.ParseGeometry(s.Geometry)
	if err != nil {
		return nil, err
	}
	var sim memsim.Simulator
	if err := call("memsim.New", func(*active) error {
		sim, err = memsim.New(memsim.Config{Levels: levels, SimWorkers: s.SimWorkers})
		return err
	}); err != nil {
		return nil, err
	}
	defer sim.Close()
	simKind := "seq"
	if s.SimWorkers > 1 {
		simKind = "sharded"
	}
	// The warm-up pass, a stats reset, then the measured pass.
	for _, phase := range []string{"warmup", "measure"} {
		if phase == "measure" {
			sim.ResetStats()
		}
		err := call("memsim.RunSink", func(sp *active) error {
			sp.label("sim", simKind)
			sp.label("phase", phase)
			st := memsim.NewStream(sim, 0)
			_, _, err := lin.RunSink(ctx, v, st.Sink(), configure)
			st.Close()
			stats := sim.Stats()
			sp.count("accesses", stats[0].Accesses)
			if phase == "measure" {
				for _, ls := range stats {
					sp.count("misses."+ls.Name, ls.Misses)
				}
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, ls := range sim.Stats() {
		res.MissRates = append(res.MissRates, serve.LevelMissRate{
			Level: ls.Name, Accesses: ls.Accesses, Misses: ls.Misses,
			Evictions: ls.Evictions, Rate: ls.MissRate(),
		})
	}
	return res, nil
}

func replayMissCurve(ctx context.Context, s *serve.MissCurveSpec, call caller) (*serve.MissCurveResult, error) {
	in, err := buildInstance(call, s.Workload, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	v, err := variantOf(s.Variant)
	if err != nil {
		return nil, err
	}
	eng, err := engineOf(s.Engine)
	if err != nil {
		return nil, err
	}
	lin, err := underLayout(call, in, s.Layout, v)
	if err != nil {
		return nil, err
	}
	ra := memsim.NewReuseAnalyzer()
	h := memsim.NewHistogram()
	line := memsim.Addr(s.LineBytes)
	err = call("memsim.RunEmit", func(sp *active) error {
		emit := func(a memsim.Addr) { h.Add(ra.Access(a / line)) }
		_, _, err := lin.RunEmit(ctx, v, emit, func(e *nest.Exec) { e.Engine = eng })
		sp.count("accesses", h.Total())
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &serve.MissCurveResult{
		Workload: s.Workload, Variant: s.Variant, Scale: s.Scale, Seed: s.Seed,
		LineBytes: s.LineBytes, Layout: s.Layout, Engine: s.Engine,
		Accesses:      h.Total(),
		DistinctLines: ra.Distinct(),
		ColdMisses:    h.InfiniteCount(),
		MaxDistance:   h.Max(),
		MeanDistance:  h.Mean(),
	}
	for _, c := range s.Capacities {
		res.Points = append(res.Points, serve.MissCurvePoint{
			CapacityLines:   c,
			CapacityBytes:   int64(c) * int64(s.LineBytes),
			PredictedMisses: memsim.PredictMisses(h, c),
			MissRatio:       memsim.PredictMissRatio(h, c),
		})
	}
	return res, nil
}

func replayOracle(s *serve.OracleSpec, call caller) (*serve.OracleResult, error) {
	in, err := buildInstance(call, s.Workload, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	v, err := variantOf(s.Variant)
	if err != nil {
		return nil, err
	}
	fm, err := nest.ParseFlagMode(s.FlagMode)
	if err != nil {
		return nil, err
	}
	eng, err := engineOf(s.Engine)
	if err != nil {
		return nil, err
	}
	var spec nest.Spec
	_ = call("nest.OracleSpec", func(*active) error {
		spec = in.OracleSpec()
		return nil
	})
	var g *oracle.Trace
	if err := call("oracle.Capture", func(sp *active) error {
		g, err = oracle.Capture(spec)
		if err == nil {
			sp.count("golden_visits", int64(g.Visits()))
		}
		return err
	}); err != nil {
		return nil, err
	}
	var verdict *oracle.Verdict
	if err := call("oracle.Check", func(*active) error {
		if s.Workers == 0 {
			verdict = g.CheckVariantOn(spec, eng, v, fm, !s.NoSubtree)
			return nil
		}
		verdict, err = g.CheckParallel(spec, nest.RunConfig{
			Variant: v, Engine: eng, Workers: s.Workers, Stealing: s.Stealing, Ctx: context.Background(),
		})
		return err
	}); err != nil {
		return nil, err
	}
	return &serve.OracleResult{
		Workload: s.Workload, Scale: s.Scale, Seed: s.Seed, Variant: s.Variant,
		FlagMode: s.FlagMode, Subtree: !s.NoSubtree, Engine: s.Engine,
		Workers: s.Workers, Stealing: s.Stealing,
		GoldenVisits:  g.Visits(),
		GoldenColumns: g.Columns(),
		Digest:        obs.FormatUint(g.Digest()),
		ColumnDigest:  obs.FormatUint(g.ColumnDigest()),
		TruncDigest:   obs.FormatUint(g.TruncDigest()),
		OK:            verdict.OK,
		Detail:        verdict.String(),
		Verdict:       verdict,
	}, nil
}

func replayTransform(s *serve.TransformSpec, call caller) (*serve.TransformResult, error) {
	src := []byte(s.Source)
	var unit *loopfront.Unit
	if s.Frontend == "loops" {
		if err := call("loopfront.Single", func(*active) error {
			var err error
			unit, err = loopfront.Single("input.go", src, s.Nest)
			return err
		}); err != nil {
			return nil, err
		}
		src = unit.Source
	}
	var t *transform.Template
	if err := call("transform.ParseFile", func(*active) error {
		var err error
		t, err = transform.ParseFile("input.go", src)
		return err
	}); err != nil {
		return nil, err
	}
	var out []byte
	if err := call("transform.Generate", func(sp *active) error {
		var scheds []algebra.Schedule
		for _, expr := range append(append([]string(nil), s.Variants...), s.Schedules...) {
			sched, err := algebra.ParseSchedule(expr)
			if err != nil {
				return err
			}
			scheds = append(scheds, sched)
		}
		var err error
		out, err = algebra.GenerateSchedules(t, scheds)
		sp.count("bytes", int64(len(out)))
		return err
	}); err != nil {
		return nil, err
	}
	res := &serve.TransformResult{
		OuterFunc:  t.Outer.Name.Name,
		InnerFunc:  t.Inner.Name.Name,
		OuterIndex: t.OName,
		InnerIndex: t.IName,
		Irregular:  t.Irregular(),
		Source:     string(out),
	}
	if unit != nil {
		res.Frontend = "loops"
		res.Nest = unit.Name
		res.Template = string(unit.Source)
	}
	return res, nil
}
