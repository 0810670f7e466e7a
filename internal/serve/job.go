// Package serve is the production serving layer over the engine: a
// long-running HTTP/JSON daemon (cmd/twistd) that exposes the repository's
// four capabilities as job kinds —
//
//	run       — workload × variant × scale × seed → engine statistics,
//	            result checksum, and simulated per-level miss rates
//	misscurve — reuse-distance histogram of a traced run → predicted
//	            miss-ratio curve across cache capacities (Mattson one-pass)
//	transform — an annotated Go nested-recursion template → the generated
//	            schedule variants (paper §5, internal/transform)
//	oracle    — workload spec + schedule under test → permutation-equivalence
//	            verdict with a minimized counterexample (DESIGN.md §4.9)
//
// The layer is deliberately production-shaped rather than a thin mux: every
// job is content-addressed by a canonical spec digest and served from an LRU
// result cache; identical concurrent requests coalesce onto one in-flight
// execution; admission goes through a bounded queue feeding a fixed worker
// pool (full queue → HTTP 429 + Retry-After); per-job deadlines and request
// cancellation propagate into the executor (nest.RunConfig.Ctx /
// Exec.RunContext) and the memsim stream; shutdown drains admitted jobs; and
// /healthz, /readyz, and /metrics expose liveness, drain state, and the
// obs.Recorder-backed telemetry (DESIGN.md §4.10).
//
// The serving contract is bit-identical results: the "result" field of every
// response is exactly the JSON encoding of the equivalent direct library
// call (RunJob, MissCurveJob, TransformJob, OracleJob) — the cache, the
// coalescer, and the transport add nothing and remove nothing. A
// differential test enforces this across the full workload × variant ×
// executor grid.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/transform/algebra"
	"twist/internal/workloads"
)

// Kind names one of the four job families the daemon serves.
type Kind string

// The four job kinds, each with its own endpoint under /v1/.
const (
	KindRun       Kind = "run"
	KindMissCurve Kind = "misscurve"
	KindTransform Kind = "transform"
	KindOracle    Kind = "oracle"
)

// Admission guardrails: a serving daemon must bound the work one request can
// demand. Scales above these limits belong in the offline harness
// (cmd/nestbench), not behind an HTTP deadline.
const (
	// MaxScale bounds the suite scale of run and misscurve jobs.
	MaxScale = 1 << 17
	// MaxOracleScale bounds oracle jobs, which materialize golden traces.
	MaxOracleScale = 1 << 13
	// MaxWorkers bounds the engine worker count a job may request.
	MaxWorkers = 64
	// MaxSimWorkers bounds the cache-simulation shard workers.
	MaxSimWorkers = 64
	// MaxSourceBytes bounds the template source of a transform job.
	MaxSourceBytes = 1 << 20
	// MaxCapacities bounds the capacity grid of a misscurve job.
	MaxCapacities = 64
	// MaxCapacityLines bounds each capacity of a misscurve job (in lines).
	MaxCapacityLines = 1 << 24
)

// DefaultGeometry is the simulated hierarchy run jobs use unless the spec
// names one: the same scaled-down default as internal/experiments (2K L1,
// 16K L2, 128K L3), which reaches the paper's beyond-LLC regime at
// service-friendly scales.
const DefaultGeometry = "2K/64:8,16K/64:8,128K/64:16"

// Spec is one job's parameter set. Implementations are the four *Spec
// types; the set is closed (normalize/exec are unexported), which is what
// lets the digest double as a complete content address.
//
// A normalized spec is shared read-only: the server memoizes it by the
// bytes of the request it came from and hands the same value to every
// request with those bytes. exec, Digest and the fleet forwarder only read
// it, and nothing mutates a spec after Normalize.
type Spec interface {
	// Kind reports the job family.
	Kind() Kind
	// Normalize applies defaults in place and validates; after it returns
	// nil the spec is canonical, so equal jobs have equal digests.
	Normalize() error
	// exec runs the job against the engine, recording telemetry into rec.
	exec(ctx context.Context, rec obs.Recorder) (any, error)
}

// Digest returns the canonical content address of a normalized spec: the
// hex SHA-256 of the job kind and the spec's canonical JSON encoding.
// Normalize must have succeeded first; two requests coalesce (and share a
// cache entry) exactly when their digests are equal.
func Digest(s Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Specs are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(s.Kind()))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// RunSpec parameterizes a run job: execute one suite workload under one
// schedule and report the engine statistics, the result checksum, and the
// simulated per-level miss rates.
type RunSpec struct {
	// Workload is the benchmark abbreviation (TJ, MM, PC, NN, KNN, VP).
	Workload string `json:"workload"`
	// Variant is the schedule as a variant name, the nest.Variant.String
	// form (original, interchanged, twisted, twisted-cutoff:N). Default
	// twisted.
	Variant string `json:"variant,omitempty"`
	// Schedule is the schedule as an algebra expression
	// (algebra.ParseSchedule, e.g. "stripmine(64)∘twist(flagged)"). It is
	// legality-checked against the workload's dependence witnesses, then
	// canonicalized into Variant — a schedule-bearing request digests
	// identically to its variant-bearing equivalent. Mutually exclusive
	// with Variant.
	Schedule string `json:"schedule,omitempty"`
	// Scale is the suite scale parameter (workloads.ByName). Default 1024.
	Scale int `json:"scale,omitempty"`
	// Seed is the workload seed.
	Seed int64 `json:"seed,omitempty"`
	// Workers selects the executor: <= 1 runs the sequential engine, > 1
	// the work-stealing parallel executor at that worker count (merged
	// stats are deterministic either way).
	Workers int `json:"workers,omitempty"`
	// FlagMode is the truncation-flag representation (sets, counter).
	// Default counter.
	FlagMode string `json:"flag_mode,omitempty"`
	// Engine is a visit-engine label (nest.ParseEngine): recursive or
	// iterative. It selects nothing — both run the one recursive engine
	// (DESIGN.md §4.13) — but it is still normalized, digested and echoed:
	// the default recursive canonicalizes to "", so engine-free requests
	// keep their pre-engine digests, and "iterative" stays a distinct
	// request with its own digest.
	Engine string `json:"engine,omitempty"`
	// SimWorkers sizes the cache simulation: <= 1 sequential, > 1
	// set-partitioned shards (stats bit-identical either way, §4.8).
	SimWorkers int `json:"sim_workers,omitempty"`
	// Geometry is the simulated hierarchy in memsim.ParseGeometry form.
	// Default DefaultGeometry.
	Geometry string `json:"geometry,omitempty"`
	// Layout names the arena layout (layout.ParseKind) the traced simulation
	// generates node addresses under: buildorder, hotcold, preorder,
	// schedule, veb (DESIGN.md §4.12). The default build-order layout
	// canonicalizes to "", so layout-free requests keep their pre-layout
	// digests. The layout cannot change the checksum, stats, or verdict of a
	// job — only the simulated miss rates.
	Layout string `json:"layout,omitempty"`
}

// Kind implements Spec.
func (s *RunSpec) Kind() Kind { return KindRun }

// Normalize implements Spec.
func (s *RunSpec) Normalize() error {
	if err := normalizeWorkload(&s.Workload); err != nil {
		return err
	}
	if err := normalizeSchedule(&s.Schedule, &s.Variant, s.Workload); err != nil {
		return err
	}
	if err := normalizeScale(&s.Scale, MaxScale); err != nil {
		return err
	}
	if s.Workers <= 1 {
		s.Workers = 1
	}
	if s.Workers > MaxWorkers {
		return fmt.Errorf("serve: workers %d exceeds the limit %d", s.Workers, MaxWorkers)
	}
	if err := normalizeFlagMode(&s.FlagMode); err != nil {
		return err
	}
	if err := normalizeEngine(&s.Engine); err != nil {
		return err
	}
	if s.SimWorkers <= 1 {
		s.SimWorkers = 1
	}
	if s.SimWorkers > MaxSimWorkers {
		return fmt.Errorf("serve: sim_workers %d exceeds the limit %d", s.SimWorkers, MaxSimWorkers)
	}
	if err := normalizeLayout(&s.Layout); err != nil {
		return err
	}
	return normalizeGeometry(&s.Geometry)
}

// MissCurveSpec parameterizes a misscurve job: trace one workload under one
// schedule, build its reuse-distance histogram over cache lines, and
// evaluate the predicted miss-ratio curve at each capacity.
type MissCurveSpec struct {
	// Workload is the benchmark abbreviation (TJ, MM, PC, NN, KNN, VP).
	Workload string `json:"workload"`
	// Variant is the schedule as a variant name (nest.Variant.String form).
	// Default twisted.
	Variant string `json:"variant,omitempty"`
	// Schedule is the schedule as an algebra expression; see
	// RunSpec.Schedule. Mutually exclusive with Variant.
	Schedule string `json:"schedule,omitempty"`
	// Scale is the suite scale parameter. Default 1024.
	Scale int `json:"scale,omitempty"`
	// Seed is the workload seed.
	Seed int64 `json:"seed,omitempty"`
	// Capacities are the fully-associative LRU capacities (in lines) the
	// curve is evaluated at. Default 8,32,128,512,2048,8192,32768.
	Capacities []int `json:"capacities,omitempty"`
	// LineBytes is the line size distances are measured in; a power of two.
	// Default 64.
	LineBytes int `json:"line_bytes,omitempty"`
	// Layout names the arena layout node addresses are generated under; see
	// RunSpec.Layout. Default build-order (canonicalized to "").
	Layout string `json:"layout,omitempty"`
	// Engine is a visit-engine label that selects nothing; see
	// RunSpec.Engine. Default recursive (canonicalized to "").
	Engine string `json:"engine,omitempty"`
}

// Kind implements Spec.
func (s *MissCurveSpec) Kind() Kind { return KindMissCurve }

// Normalize implements Spec.
func (s *MissCurveSpec) Normalize() error {
	if err := normalizeWorkload(&s.Workload); err != nil {
		return err
	}
	if err := normalizeSchedule(&s.Schedule, &s.Variant, s.Workload); err != nil {
		return err
	}
	if err := normalizeScale(&s.Scale, MaxScale); err != nil {
		return err
	}
	if len(s.Capacities) == 0 {
		s.Capacities = []int{8, 32, 128, 512, 2048, 8192, 32768}
	}
	if len(s.Capacities) > MaxCapacities {
		return fmt.Errorf("serve: %d capacities exceeds the limit %d", len(s.Capacities), MaxCapacities)
	}
	for _, c := range s.Capacities {
		if c <= 0 || c > MaxCapacityLines {
			return fmt.Errorf("serve: capacity %d lines out of range 1..%d", c, MaxCapacityLines)
		}
	}
	if s.LineBytes == 0 {
		s.LineBytes = 64
	}
	if s.LineBytes < 8 || s.LineBytes > 4096 || s.LineBytes&(s.LineBytes-1) != 0 {
		return fmt.Errorf("serve: line_bytes %d must be a power of two in 8..4096", s.LineBytes)
	}
	if err := normalizeEngine(&s.Engine); err != nil {
		return err
	}
	return normalizeLayout(&s.Layout)
}

// TransformSpec parameterizes a transform job: run the §5 source-to-source
// tool on an annotated template and return the generated schedule variants.
type TransformSpec struct {
	// Source is a complete Go source file holding the //twist:outer and
	// //twist:inner annotated pair (internal/transform).
	Source string `json:"source"`
	// Variants selects the schedule families to emit. Entries are schedule
	// expressions (algebra.ParseSchedule), which include the variant
	// names; empty means every family. The identity
	// schedule is rejected — the input template already is it.
	Variants []string `json:"variants,omitempty"`
	// Schedules are additional schedule expressions to emit. Inline-free
	// entries canonicalize into Variants (so a schedule-bearing request
	// digests identically to its variant-bearing equivalent); entries with
	// inline(K) stay here in canonical form and emit the inlined drivers.
	Schedules []string `json:"schedules,omitempty"`
	// Frontend names the source language of the job: "template" for the
	// annotated recursion pair (the default), "loops" for a plain Go file
	// whose //twist:loops loop nest is first converted to the template by
	// the loop front-end (internal/loopfront, §7.2). The default template
	// front-end canonicalizes to "", so requests predating the axis keep
	// their content digests (the same contract as RunSpec.Engine).
	Frontend string `json:"frontend,omitempty"`
	// Nest selects one //twist:loops nest by name when the loops front-end
	// input holds several; requires Frontend "loops".
	Nest string `json:"nest,omitempty"`
}

// Kind implements Spec.
func (s *TransformSpec) Kind() Kind { return KindTransform }

// Normalize implements Spec.
func (s *TransformSpec) Normalize() error {
	if s.Source == "" {
		return fmt.Errorf("serve: transform source must be non-empty")
	}
	if len(s.Source) > MaxSourceBytes {
		return fmt.Errorf("serve: transform source %d bytes exceeds the limit %d", len(s.Source), MaxSourceBytes)
	}
	if err := normalizeFrontend(&s.Frontend); err != nil {
		return err
	}
	if s.Nest != "" && s.Frontend != "loops" {
		return fmt.Errorf("serve: nest selection requires the loops frontend")
	}
	exprs := len(s.Variants) + len(s.Schedules)
	if exprs == 0 {
		s.Variants, s.Schedules = nil, nil // canonical form for "every family"
		return nil
	}
	variants := make([]string, 0, exprs)
	var schedules []string
	for _, expr := range append(append([]string(nil), s.Variants...), s.Schedules...) {
		sched, err := algebra.ParseSchedule(expr)
		if err != nil {
			return fmt.Errorf("serve: %v", err)
		}
		if sched == algebra.Identity() {
			return fmt.Errorf("serve: transform cannot emit the identity schedule (the input template is it)")
		}
		if sched.InlineDepth() == 0 {
			variants = append(variants, sched.Variant().String())
		} else {
			schedules = append(schedules, sched.String())
		}
	}
	if len(variants) == 0 {
		variants = nil
	}
	s.Variants, s.Schedules = variants, schedules
	return nil
}

// OracleSpec parameterizes an oracle job: capture the golden trace of one
// workload and check a schedule against it (DESIGN.md §4.9).
type OracleSpec struct {
	// Workload is the benchmark abbreviation (TJ, MM, PC, NN, KNN, VP).
	Workload string `json:"workload"`
	// Scale is the suite scale parameter. Default 256 — oracle jobs
	// materialize golden traces, so the default stays small.
	Scale int `json:"scale,omitempty"`
	// Seed is the workload seed.
	Seed int64 `json:"seed,omitempty"`
	// Variant is the schedule under test as a variant name
	// (nest.Variant.String form). Default twisted.
	Variant string `json:"variant,omitempty"`
	// Schedule is the schedule under test as an algebra expression; see
	// RunSpec.Schedule. Mutually exclusive with Variant.
	Schedule string `json:"schedule,omitempty"`
	// FlagMode is the truncation-flag representation for sequential checks
	// (sets, counter). Default counter.
	FlagMode string `json:"flag_mode,omitempty"`
	// NoSubtree disables the §4.2 subtree-truncation optimization in
	// sequential checks (the default checks the optimized schedule).
	NoSubtree bool `json:"no_subtree,omitempty"`
	// Engine is a visit-engine label that selects nothing; see
	// RunSpec.Engine. A non-default label is named in the verdict text.
	// Default recursive (canonicalized to "").
	Engine string `json:"engine,omitempty"`
	// Workers selects the check: 0 checks the sequential engine schedule;
	// >= 1 checks the parallel executor at that worker count
	// (oracle.Trace.CheckParallel, including column-confinement).
	Workers int `json:"workers,omitempty"`
	// Stealing is an executor label for parallel checks. It selects
	// nothing — every parallel check runs the work-stealing executor — but
	// it is digested, echoed, and printed in the verdict text.
	Stealing bool `json:"stealing,omitempty"`
}

// Kind implements Spec.
func (s *OracleSpec) Kind() Kind { return KindOracle }

// Normalize implements Spec.
func (s *OracleSpec) Normalize() error {
	if err := normalizeWorkload(&s.Workload); err != nil {
		return err
	}
	if s.Scale <= 0 {
		s.Scale = 256
	}
	if s.Scale > MaxOracleScale {
		return fmt.Errorf("serve: oracle scale %d exceeds the limit %d", s.Scale, MaxOracleScale)
	}
	if err := normalizeSchedule(&s.Schedule, &s.Variant, s.Workload); err != nil {
		return err
	}
	if err := normalizeFlagMode(&s.FlagMode); err != nil {
		return err
	}
	if err := normalizeEngine(&s.Engine); err != nil {
		return err
	}
	if s.Workers < 0 {
		return fmt.Errorf("serve: workers %d must be >= 0", s.Workers)
	}
	if s.Workers > MaxWorkers {
		return fmt.Errorf("serve: workers %d exceeds the limit %d", s.Workers, MaxWorkers)
	}
	if s.Workers == 0 && s.Stealing {
		return fmt.Errorf("serve: stealing requires workers >= 1")
	}
	return nil
}

// normalizeWorkload canonicalizes a suite benchmark name.
func normalizeWorkload(name *string) error {
	canon, err := workloads.CanonicalName(*name)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	*name = canon
	return nil
}

// normalizeSchedule canonicalizes a job's schedule selection. The two
// fields are mutually exclusive: a legacy variant name passes through
// (default twisted), while a schedule expression is parsed with the
// algebra, legality-checked against the workload's dependence witnesses,
// lowered onto its engine variant, and cleared — so a schedule-bearing
// request has the same canonical form (and digest) as its variant-bearing
// equivalent. The workload must already be canonical.
func normalizeSchedule(schedule, variant *string, workload string) error {
	expr := *variant
	if *schedule != "" {
		if *variant != "" {
			return fmt.Errorf("serve: set schedule or variant, not both")
		}
		expr = *schedule
	}
	if expr == "" {
		*variant = nest.Twisted().String()
		return nil
	}
	s, err := algebra.ParseSchedule(expr)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if s.InlineDepth() > 0 {
		return fmt.Errorf("serve: inline(K) is a code-generation transformation; engine jobs cannot execute %q", expr)
	}
	irregular, err := workloads.Irregular(workload)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if v := s.Check(algebra.ForNest(irregular)); v != nil {
		return fmt.Errorf("serve: %v", v)
	}
	*variant = s.Variant().String()
	*schedule = ""
	return nil
}

// normalizeScale defaults a suite scale and enforces the admission limit.
func normalizeScale(scale *int, limit int) error {
	if *scale <= 0 {
		*scale = 1024
	}
	if *scale > limit {
		return fmt.Errorf("serve: scale %d exceeds the limit %d", *scale, limit)
	}
	return nil
}

// normalizeLayout canonicalizes an arena layout name. The default
// build-order layout elides to "" — a layout-free request and an explicit
// "buildorder" request are the same job, and requests predating the layout
// dimension keep their content digests.
func normalizeLayout(name *string) error {
	k, err := layout.ParseKind(*name)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if k == layout.BuildOrder {
		*name = ""
	} else {
		*name = k.String()
	}
	return nil
}

// normalizeEngine canonicalizes a visit-engine name. The default recursive
// engine elides to "" — an engine-free request and an explicit "recursive"
// request are the same job, and requests predating the engine axis keep
// their content digests (the same contract as normalizeLayout).
func normalizeEngine(name *string) error {
	if *name == "" {
		return nil
	}
	eng, err := nest.ParseEngine(strings.ToLower(*name))
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	if eng == nest.EngineRecursive {
		*name = ""
	} else {
		*name = eng.String()
	}
	return nil
}

// normalizeFrontend canonicalizes a transform front-end name. The default
// template front-end elides to "" — a frontend-free request and an explicit
// "template" request are the same job, and transform requests predating the
// front-end axis keep their content digests (the same contract as
// normalizeEngine).
func normalizeFrontend(name *string) error {
	switch strings.ToLower(*name) {
	case "", "template":
		*name = ""
		return nil
	case "loops":
		*name = "loops"
		return nil
	default:
		return fmt.Errorf("serve: unknown transform frontend %q (want template or loops)", *name)
	}
}

// normalizeFlagMode canonicalizes a flag-mode name ("" means counter).
func normalizeFlagMode(mode *string) error {
	if *mode == "" {
		*mode = nest.FlagCounter.String()
		return nil
	}
	fm, err := nest.ParseFlagMode(*mode)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	*mode = fm.String()
	return nil
}

// normalizeGeometry canonicalizes a cache geometry ("" means
// DefaultGeometry).
func normalizeGeometry(geometry *string) error {
	if *geometry == "" {
		*geometry = DefaultGeometry
		return nil
	}
	levels, err := memsim.ParseGeometry(*geometry)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	*geometry = memsim.FormatGeometry(levels)
	return nil
}
