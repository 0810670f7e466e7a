package serve

import (
	"context"
	"fmt"

	"twist/internal/layout"
	"twist/internal/loopfront"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/oracle"
	"twist/internal/transform"
	"twist/internal/transform/algebra"
	"twist/internal/workloads"
)

// This file is the serve↔engine boundary: one exported *Job function per
// kind, each a plain library call with no serving machinery attached. The
// daemon's responses embed exactly the JSON encoding of these return values
// — that equality is the bit-identical-response contract the differential
// test enforces.

// RunResult is the result of a run job.
type RunResult struct {
	// Echo of the normalized spec, so a result is self-describing.
	Workload   string `json:"workload"`
	Variant    string `json:"variant"`
	Scale      int    `json:"scale"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"workers"`
	FlagMode   string `json:"flag_mode"`
	SimWorkers int    `json:"sim_workers"`
	Geometry   string `json:"geometry"`
	// Layout is the arena layout the simulated miss rates were measured
	// under; omitted for the default build-order arena, so pre-layout
	// responses are byte-identical.
	Layout string `json:"layout,omitempty"`
	// Engine echoes the request's visit-engine label; omitted for the
	// default recursive engine, so pre-engine responses keep their shape.
	Engine string `json:"engine,omitempty"`

	// Checksum is the workload's result checksum in obs.FormatUint form —
	// identical across every schedule and worker count for one instance.
	Checksum string `json:"checksum"`

	// Stats are the merged engine operation counts (deterministic across
	// worker counts for a fixed spawn depth); Ops is their weighted total
	// under the instruction model. A sequential job takes them, with
	// EngineOps and Checksum, from the warm-up traced pass behind MissRates
	// (the one pass that runs the Work kernels; workloads.RunSteady), a
	// parallel job from its executor run.
	Stats nest.Stats `json:"stats"`
	Ops   int64      `json:"ops"`

	// EngineOps is the visit-engine overhead counter (nest.Exec.EngineOps):
	// one per outer/inner recursion entry, Stats.OuterCalls +
	// Stats.InnerCalls. Deterministic for a fixed spec — it is the
	// response's schedule-overhead signal.
	EngineOps int64 `json:"engine_ops"`

	// Tasks is the parallel task count (1 for a sequential run).
	Tasks int64 `json:"tasks"`

	// MissRates are the simulated per-level cache statistics of the traced
	// sequential run under the spec's geometry: a warm-up pass, a stats
	// reset, then the measured pass, which replays the warm-up pass's
	// recorded truncation answers instead of re-running the kernels
	// (workloads.RunSteady, the protocol internal/experiments shares). For a
	// sequential job the warm-up pass is also the run that Stats, EngineOps
	// and Checksum report.
	MissRates []LevelMissRate `json:"miss_rates"`
}

// LevelMissRate is one cache level's simulated statistics.
type LevelMissRate struct {
	Level     string  `json:"level"`
	Accesses  int64   `json:"accesses"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Rate      float64 `json:"rate"`
}

// RunJob executes a run job directly (the library-call equivalent of POST
// /v1/run). The spec is normalized in place.
func RunJob(ctx context.Context, s *RunSpec) (*RunResult, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	out, err := s.exec(ctx, obs.Nop())
	if err != nil {
		return nil, err
	}
	return out.(*RunResult), nil
}

func (s *RunSpec) exec(ctx context.Context, rec obs.Recorder) (any, error) {
	in, err := workloads.ByName(s.Workload, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	v, err := parseVariantExpr(s.Variant)
	if err != nil {
		return nil, err
	}
	fm, err := nest.ParseFlagMode(s.FlagMode)
	if err != nil {
		return nil, err
	}
	configure := func(e *nest.Exec) { e.Flags = fm }

	res := &RunResult{
		Workload: s.Workload, Variant: s.Variant, Scale: s.Scale, Seed: s.Seed,
		Workers: s.Workers, FlagMode: s.FlagMode, SimWorkers: s.SimWorkers,
		Geometry: s.Geometry, Layout: s.Layout, Engine: s.Engine,
	}

	// A parallel job's engine signals come from the requested executor.
	// Merged Stats are deterministic across worker counts (fixed spawn
	// depth), so the response body does not depend on scheduling.
	if s.Workers > 1 {
		r, err := in.RunWith(nest.RunConfig{
			Variant:  v,
			Workers:  s.Workers,
			Ctx:      ctx,
			Layout:   s.Layout,
			Recorder: rec,
		}, configure)
		if err != nil {
			return nil, err
		}
		res.Stats = r.Stats
		res.EngineOps = r.EngineOps
		res.Tasks = r.Tasks
		res.Checksum = obs.FormatUint(in.Checksum())
	}

	// Simulated miss rates from the traced *sequential* run — one sink, so
	// the simulated access order (and thus every counter) is a pure function
	// of the spec, independent of the engine worker count. The spec's layout
	// applies here: node addresses are generated under the repacked arena
	// (build-order returns the instance unchanged, and schedule order is
	// realized online, as the warm-up pass first touches each node).
	lk, err := layout.ParseKind(s.Layout)
	if err != nil {
		return nil, err
	}
	lin, err := in.SequentialLayout(lk, v)
	if err != nil {
		return nil, err
	}
	levels, err := memsim.ParseGeometry(s.Geometry)
	if err != nil {
		return nil, err
	}
	sim := memsim.MustNew(memsim.Config{Levels: levels})
	st, engOps, _, err := lin.RunSteady(ctx, v, sim, configure)
	if err != nil {
		return nil, err
	}
	// A sequential job's engine signals come from the warm-up pass, the one
	// pass that runs the Work kernels: an untraced RunSeq would repeat the
	// same traversal, and the measured pass only replays it.
	if s.Workers <= 1 {
		if rec != nil {
			st.Record(rec, "nest")
			rec.Count("nest.engine.ops", engOps)
		}
		res.Stats = st
		res.EngineOps = engOps
		res.Tasks = 1
		res.Checksum = obs.FormatUint(in.Checksum())
	}
	res.Ops = res.Stats.Ops()
	if rec != nil {
		sim.Publish(rec, "serve.memsim")
	}
	for _, ls := range sim.Stats() {
		res.MissRates = append(res.MissRates, LevelMissRate{
			Level: ls.Name, Accesses: ls.Accesses, Misses: ls.Misses,
			Evictions: ls.Evictions, Rate: ls.MissRate(),
		})
	}
	return res, nil
}

// MissCurveResult is the result of a misscurve job.
type MissCurveResult struct {
	// Echo of the normalized spec.
	Workload  string `json:"workload"`
	Variant   string `json:"variant"`
	Scale     int    `json:"scale"`
	Seed      int64  `json:"seed"`
	LineBytes int    `json:"line_bytes"`
	// Layout is the arena layout the distances were measured under; omitted
	// for the default build-order arena (see RunResult.Layout).
	Layout string `json:"layout,omitempty"`
	// Engine echoes the request's visit-engine label; omitted for the
	// default recursive engine (see RunResult.Engine).
	Engine string `json:"engine,omitempty"`

	// Histogram summary over line-granular stack distances.
	Accesses      int64   `json:"accesses"`
	DistinctLines int     `json:"distinct_lines"`
	ColdMisses    int64   `json:"cold_misses"`
	MaxDistance   int     `json:"max_distance"`
	MeanDistance  float64 `json:"mean_distance"`

	// Points is the predicted miss-ratio curve, one entry per requested
	// capacity in request order.
	Points []MissCurvePoint `json:"points"`
}

// MissCurvePoint is the Mattson prediction at one cache capacity.
type MissCurvePoint struct {
	CapacityLines   int     `json:"capacity_lines"`
	CapacityBytes   int64   `json:"capacity_bytes"`
	PredictedMisses int64   `json:"predicted_misses"`
	MissRatio       float64 `json:"miss_ratio"`
}

// MissCurveJob executes a misscurve job directly (the library-call
// equivalent of POST /v1/misscurve). The spec is normalized in place.
func MissCurveJob(ctx context.Context, s *MissCurveSpec) (*MissCurveResult, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	out, err := s.exec(ctx, obs.Nop())
	if err != nil {
		return nil, err
	}
	return out.(*MissCurveResult), nil
}

func (s *MissCurveSpec) exec(ctx context.Context, rec obs.Recorder) (any, error) {
	in, err := workloads.ByName(s.Workload, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	v, err := parseVariantExpr(s.Variant)
	if err != nil {
		return nil, err
	}
	lk, err := layout.ParseKind(s.Layout)
	if err != nil {
		return nil, err
	}
	lin, err := in.SequentialLayout(lk, v)
	if err != nil {
		return nil, err
	}

	ra := memsim.NewReuseAnalyzer()
	h := memsim.NewHistogram()
	line := memsim.Addr(s.LineBytes)
	emit := func(a memsim.Addr) { h.Add(ra.Access(a / line)) }
	if _, _, err := lin.RunEmit(ctx, v, emit, nil); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.Count("serve.misscurve.accesses", h.Total())
		rec.Count("serve.misscurve.distinct_lines", int64(ra.Distinct()))
	}

	res := &MissCurveResult{
		Workload: s.Workload, Variant: s.Variant, Scale: s.Scale, Seed: s.Seed,
		LineBytes: s.LineBytes, Layout: s.Layout, Engine: s.Engine,
		Accesses:      h.Total(),
		DistinctLines: ra.Distinct(),
		ColdMisses:    h.InfiniteCount(),
		MaxDistance:   h.Max(),
		MeanDistance:  h.Mean(),
	}
	for _, c := range s.Capacities {
		res.Points = append(res.Points, MissCurvePoint{
			CapacityLines:   c,
			CapacityBytes:   int64(c) * int64(s.LineBytes),
			PredictedMisses: memsim.PredictMisses(h, c),
			MissRatio:       memsim.PredictMissRatio(h, c),
		})
	}
	return res, nil
}

// TransformResult is the result of a transform job.
type TransformResult struct {
	// OuterFunc and InnerFunc are the annotated pair's function names;
	// OuterIndex and InnerIndex their index parameter names.
	OuterFunc  string `json:"outer_func"`
	InnerFunc  string `json:"inner_func"`
	OuterIndex string `json:"outer_index"`
	InnerIndex string `json:"inner_index"`

	// Irregular reports whether the template's inner truncation depends on
	// the outer index (the paper's irregular case, §4).
	Irregular bool `json:"irregular"`

	// Frontend and Nest echo the loops front-end selection; omitted for
	// the default template front-end.
	Frontend string `json:"frontend,omitempty"`
	Nest     string `json:"nest,omitempty"`

	// Template is the intermediate recursion template the loop front-end
	// generated from the source nest; omitted for the default template
	// front-end (where the input already is the template).
	Template string `json:"template,omitempty"`

	// Source is the generated Go source file holding the requested
	// schedule variants.
	Source string `json:"source"`
}

// TransformJob executes a transform job directly (the library-call
// equivalent of POST /v1/transform). The spec is normalized in place.
func TransformJob(ctx context.Context, s *TransformSpec) (*TransformResult, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	out, err := s.exec(ctx, obs.Nop())
	if err != nil {
		return nil, err
	}
	return out.(*TransformResult), nil
}

func (s *TransformSpec) exec(ctx context.Context, rec obs.Recorder) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src := []byte(s.Source)
	var unit *loopfront.Unit
	if s.Frontend == "loops" {
		var err error
		unit, err = loopfront.Single("input.go", src, s.Nest)
		if err != nil {
			return nil, err
		}
		src = unit.Source
	}
	t, err := transform.ParseFile("input.go", src)
	if err != nil {
		return nil, err
	}
	var scheds []algebra.Schedule
	for _, expr := range append(append([]string(nil), s.Variants...), s.Schedules...) {
		sched, err := algebra.ParseSchedule(expr)
		if err != nil {
			return nil, err
		}
		scheds = append(scheds, sched)
	}
	out, err := algebra.GenerateSchedules(t, scheds)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.Count("serve.transform.bytes", int64(len(out)))
	}
	res := &TransformResult{
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

// OracleResult is the result of an oracle job.
type OracleResult struct {
	// Echo of the normalized spec.
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Seed     int64  `json:"seed"`
	Variant  string `json:"variant"`
	FlagMode string `json:"flag_mode"`
	Subtree  bool   `json:"subtree"`
	// Engine echoes the request's visit-engine label; omitted for the
	// default recursive engine (see RunResult.Engine).
	Engine   string `json:"engine,omitempty"`
	Workers  int    `json:"workers"`
	Stealing bool   `json:"stealing"`

	// Golden-trace summary: visit and column counts plus the order-,
	// column-order-, and truncation-sensitive digests (obs.FormatUint).
	GoldenVisits  int    `json:"golden_visits"`
	GoldenColumns int    `json:"golden_columns"`
	Digest        string `json:"digest"`
	ColumnDigest  string `json:"column_digest"`
	TruncDigest   string `json:"trunc_digest"`

	// OK mirrors Verdict.OK; Detail is the human-readable verdict line
	// (including the minimized counterexample for a failing check); Verdict
	// is the full structured verdict.
	OK      bool            `json:"ok"`
	Detail  string          `json:"detail"`
	Verdict *oracle.Verdict `json:"verdict"`
}

// OracleJob executes an oracle job directly (the library-call equivalent of
// POST /v1/oracle). The spec is normalized in place.
func OracleJob(ctx context.Context, s *OracleSpec) (*OracleResult, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	out, err := s.exec(ctx, obs.Nop())
	if err != nil {
		return nil, err
	}
	return out.(*OracleResult), nil
}

func (s *OracleSpec) exec(ctx context.Context, rec obs.Recorder) (any, error) {
	in, err := workloads.ByName(s.Workload, s.Scale, s.Seed)
	if err != nil {
		return nil, err
	}
	v, err := parseVariantExpr(s.Variant)
	if err != nil {
		return nil, err
	}
	fm, err := nest.ParseFlagMode(s.FlagMode)
	if err != nil {
		return nil, err
	}
	eng := nest.EngineRecursive // "" is the elided default (normalizeEngine)
	if s.Engine != "" {
		if eng, err = nest.ParseEngine(s.Engine); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec := in.OracleSpec()
	g, err := oracle.Capture(spec)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.Count("serve.oracle.golden_visits", int64(g.Visits()))
	}
	var verdict *oracle.Verdict
	if s.Workers == 0 {
		verdict = g.CheckVariantOn(spec, eng, v, fm, !s.NoSubtree)
	} else {
		verdict, err = g.CheckParallel(spec, nest.RunConfig{
			Variant:  v,
			Engine:   eng,
			Workers:  s.Workers,
			Stealing: s.Stealing,
			Ctx:      ctx,
			Recorder: rec,
		}, func(e *nest.Exec) {
			e.Flags = fm
			e.SubtreeTruncation = !s.NoSubtree
		})
		if err != nil {
			return nil, err
		}
	}
	return &OracleResult{
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

// parseVariantExpr resolves a normalized spec's schedule expression onto
// its engine variant through the algebra (every variant name is a schedule
// expression).
func parseVariantExpr(expr string) (nest.Variant, error) {
	s, err := algebra.ParseSchedule(expr)
	if err != nil {
		return nest.Variant{}, err
	}
	return s.Variant(), nil
}

// decodeSpec builds the Spec type for a kind, for the HTTP layer's JSON
// decoding. Unknown kinds return an error rather than a nil Spec.
func decodeSpec(k Kind) (Spec, error) {
	switch k {
	case KindRun:
		return &RunSpec{}, nil
	case KindMissCurve:
		return &MissCurveSpec{}, nil
	case KindTransform:
		return &TransformSpec{}, nil
	case KindOracle:
		return &OracleSpec{}, nil
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", k)
}
