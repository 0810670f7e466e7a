package main

import (
	"math/rand"
	"time"

	"twist/internal/nest"
	"twist/internal/transform/algebra"
	"twist/internal/workloads"
)

// The engine-direct workload: one caller goroutine runs the six suite
// instances through the library, with no HTTP and no cache simulation. Each
// block is a seeded permutation of the full grid benchmark × schedule ×
// engine × executor, so the nest layer does nearly all the work.

var engineSchedules = []string{"original", "twisted", "twisted-cutoff:64"}

type engineOp struct {
	bench, sched int
	engine       nest.Engine
	parallel     bool // RunWith on 2 stealing workers instead of RunSeq
}

func engineBlock(seed int64) func(b int) []engineOp {
	return func(b int) []engineOp {
		var ops []engineOp
		for bench := range workloads.Names() {
			for sched := range engineSchedules {
				for _, eng := range nest.Engines() {
					for _, par := range []bool{false, true} {
						ops = append(ops, engineOp{bench, sched, eng, par})
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(b)))
		rng.Shuffle(len(ops), func(x, y int) { ops[x], ops[y] = ops[y], ops[x] })
		return ops
	}
}

// engineEnv is the set-up state: the built instances and each benchmark's
// Original-schedule checksum, which every schedule, engine and worker count
// must reproduce.
type engineEnv struct {
	names    []string
	inst     []*workloads.Instance
	sums     []uint64
	variants []nest.Variant
	// first Stats seen per (bench, schedule, executor): later ops of the
	// other engine must match them exactly.
	stats map[[3]int]nest.Stats
}

func setupEngine(tr *tracer, seed int64, scale int) (*engineEnv, error) {
	env := &engineEnv{names: workloads.Names(), stats: map[[3]int]nest.Stats{}}
	for _, s := range engineSchedules {
		sc, err := algebra.ParseSchedule(s)
		if err != nil {
			return nil, err
		}
		env.variants = append(env.variants, sc.Variant())
	}
	root := tr.begin(-1, nil, "op.setup")
	defer root.end()
	for _, name := range env.names {
		sp := tr.begin(-1, root, "workloads.ByName")
		sp.label("bench", name)
		in, err := workloads.ByName(name, scale, seed)
		sp.end()
		if err != nil {
			return nil, err
		}
		if _, _, err := in.RunSeq(nil, nest.Original(), nil); err != nil {
			return nil, err
		}
		env.inst = append(env.inst, in)
		env.sums = append(env.sums, in.Checksum())
	}
	return env, nil
}

// run executes one op and verifies it. Traced, it records the op's root
// span with the engine call under it.
func (env *engineEnv) run(tr *tracer, i int, op engineOp) record {
	t0 := time.Now()
	root := tr.begin(i, nil, "op.engine")
	in, v := env.inst[op.bench], env.variants[op.sched]
	var st nest.Stats
	var engOps int64
	var err error
	name := "nest.RunSeq"
	if op.parallel {
		name = "nest.RunWith"
	}
	sp := tr.begin(i, root, name)
	if op.parallel {
		var r nest.RunResult
		r, err = in.RunWith(nest.RunConfig{Variant: v, Engine: op.engine, Workers: 2, Stealing: true})
		st, engOps = r.Stats, r.EngineOps
	} else {
		st, engOps, err = in.RunSeq(nil, v, func(e *nest.Exec) { e.Engine = op.engine })
	}
	sp.label("bench", env.names[op.bench])
	sp.label("engine", op.engine.String())
	sp.count("iterations", st.Iterations)
	sp.count("work", st.Work)
	sp.count("engine_ops", engOps)
	sp.end()
	ok := err == nil && in.Checksum() == env.sums[op.bench] && env.sameStats(op, st)
	root.end()
	return record{lat: time.Since(t0), ok: ok}
}

// sameStats checks st against the first Stats of the op's (bench, schedule,
// executor) class. The engine-direct workload has a single caller goroutine,
// so the map needs no lock.
func (env *engineEnv) sameStats(op engineOp, st nest.Stats) bool {
	k := [3]int{op.bench, op.sched, 0}
	if op.parallel {
		k[2] = 1
	}
	if ref, ok := env.stats[k]; ok {
		return ref == st
	}
	env.stats[k] = st
	return true
}

// verifyWorkers reruns every parallel class seen on one worker and checks
// its Stats and checksum against the 2-worker runs: merged Stats must not
// depend on the worker count. It returns the number of mismatches.
func (env *engineEnv) verifyWorkers() int {
	bad := 0
	for k, ref := range env.stats {
		if k[2] != 1 {
			continue
		}
		in := env.inst[k[0]]
		r, err := in.RunWith(nest.RunConfig{Variant: env.variants[k[1]], Workers: 1, Stealing: true})
		if err != nil || r.Stats != ref || in.Checksum() != env.sums[k[0]] {
			bad++
		}
	}
	return bad
}

// engineDirect measures the workload untraced for o.seconds.
func engineDirect(o options) (*outcome, error) {
	setups, env, err := repeatSetup(o.size.setups, func() (*engineEnv, error) {
		return setupEngine(nil, o.seed, o.size.engineScale)
	}, nil)
	if err != nil {
		return nil, err
	}
	d := newDispenser(engineBlock(o.seed), o.size.engineSeg, afterTime(o.window()))
	p := runPass(1, d, func(i int, op engineOp) record { return env.run(nil, i, op) })
	out := newOutcome(&p)
	out.failed += env.verifyWorkers()
	out.metrics = endToEnd(&p, setups, out.info)
	out.info["clients"] = 1
	return out, nil
}

// engineLedger is the traced run: an untraced and a traced pass over the
// same fixed op list, then the probe for the layers this workload bypasses.
func engineLedger(o options) (*outcome, error) {
	tr := newTracer("ops")
	env, err := setupEngine(tr, o.seed, o.size.engineScale)
	if err != nil {
		return nil, err
	}
	base := runPass(1, newDispenser(engineBlock(o.seed), o.size.engineSeg, afterSegments(1)),
		func(i int, op engineOp) record { return env.run(nil, i, op) })
	traced := runPass(1, newDispenser(engineBlock(o.seed), o.size.engineSeg, afterSegments(1)),
		func(i int, op engineOp) record { return env.run(tr, i, op) })
	out := newOutcome(&base, &traced)
	out.failed += env.verifyWorkers()
	return finishLedger(o, out, &base, tr, nil)
}
