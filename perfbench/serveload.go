package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"twist/internal/serve"
)

// The serve workloads drive twistd servers in this process over loopback
// HTTP from two closed-loop client goroutines: callers that each wait for
// their reply (CI smoke, CLIs, scripts), never more clients than CPUs.
const serveClients = 2

// missNodes is the fleet size of serve-miss.
const missNodes = 3

// setupMiss boots the fleet and warms it (connections, code paths) with
// one whole block the timed passes never reach, from the timed clients.
func setupMiss(sz sizes, gen func(int) []jobOp) (*fleet, error) {
	// Small per-node caches make a run's unique specs also exercise LRU
	// eviction, the write side of the cache.
	f, err := startFleet(missNodes, serve.Config{Workers: serveClients, CacheEntries: sz.missCache})
	if err != nil {
		return nil, err
	}
	warm := func(int) []jobOp { return gen(1 << 20) }
	p := runPass(serveClients, newDispenser(warm, 1, afterSegments(1)), func(i int, op jobOp) record {
		r, _ := f.timedPost(op)
		return r
	})
	if n := p.failed; n > 0 {
		f.close()
		return nil, fmt.Errorf("serve-miss warm-up: %d jobs failed", n)
	}
	return f, nil
}

// serveMiss measures serve-miss untraced for o.seconds. A seeded sample of
// the replies is recomputed by direct library call after the window.
func serveMiss(o options) (*outcome, error) {
	srcs, err := loadSources(o.root)
	if err != nil {
		return nil, err
	}
	gen := missBlock(o.seed, o.size, srcs, missNodes)
	setups, f, err := repeatSetup(o.size.setups, func() (*fleet, error) { return setupMiss(o.size, gen) }, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()

	sampled := map[int]envelope{}
	ops := map[int]jobOp{}
	var mu sync.Mutex
	offset := int(uint64(o.seed) % uint64(o.size.verifyEvery))
	p := runPass(serveClients, newDispenser(gen, o.size.missSeg, afterTime(o.window())), func(i int, op jobOp) record {
		r, env := f.timedPost(op)
		if r.ok && i%o.size.verifyEvery == offset {
			mu.Lock()
			sampled[i], ops[i] = env, op
			mu.Unlock()
		}
		return r
	})
	for i, env := range sampled {
		want, err := directBytes(ops[i].kind, ops[i].body)
		if err != nil || !bytes.Equal(want, env.Result) {
			p.failed++
		}
	}
	out := newOutcome(&p)
	out.metrics = endToEnd(&p, setups, out.info)
	out.info["clients"] = serveClients
	out.info["nodes"] = missNodes
	out.info["verified_by_direct_call"] = len(sampled)
	return out, nil
}

// tracedMissOp runs one serve-miss op traced: the server-side decode,
// normalize, digest and route calls on its body, the replay of its job
// through the library, then the HTTP request, whose result must equal the
// replay byte for byte.
func tracedMissOp(tr *tracer, f *fleet, i int, op jobOp) record {
	t0 := time.Now()
	root := tr.begin(i, nil, "op."+string(op.kind))
	spec, digest, err := frontHalf(tr, i, root, op)
	var want []byte
	if err == nil {
		if nd := f.nodes[op.entry]; nd.cl != nil {
			sp := tr.begin(i, root, "cluster.Route")
			nd.cl.Route(digest)
			sp.end()
		}
		want, err = replay(tr, i, root, spec)
	}
	sp := tr.begin(i, root, "serve.http")
	r, env := f.timedPost(op)
	sp.label("kind", string(op.kind))
	sp.label("via", env.Via)
	sp.count("elapsed_ns", env.ElapsedNS)
	sp.end()
	root.end()
	r.lat = time.Since(t0)
	r.ok = r.ok && err == nil && bytes.Equal(want, env.Result)
	return r
}

// frontHalf times the serve layer's request front half on op's body with
// its public calls: decode, Normalize, Digest.
func frontHalf(tr *tracer, i int, root *active, op jobOp) (serve.Spec, string, error) {
	sp := tr.begin(i, root, "serve.decode")
	spec, err := decodeSpec(op.kind, op.body)
	sp.end()
	if err != nil {
		return nil, "", err
	}
	sp = tr.begin(i, root, "serve.Normalize")
	err = spec.Normalize()
	sp.end()
	if err != nil {
		return nil, "", err
	}
	sp = tr.begin(i, root, "serve.Digest")
	digest := serve.Digest(spec)
	sp.end()
	return spec, digest, nil
}

// tracedMiss runs whole serve-miss blocks (one segment) traced on a fresh fleet and
// returns the pass, its spans and the fleet's counter deltas.
func tracedMiss(o options, blocks int, passName string) (*pass, *tracer, map[string]float64, error) {
	srcs, err := loadSources(o.root)
	if err != nil {
		return nil, nil, nil, err
	}
	gen := missBlock(o.seed, o.size, srcs, missNodes)
	f, err := setupMiss(o.size, gen)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.close()
	before, err := f.counters()
	if err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer(passName)
	p := runPass(serveClients, newDispenser(gen, blocks, afterSegments(1)), func(i int, op jobOp) record {
		return tracedMissOp(tr, f, i, op)
	})
	after, err := f.counters()
	if err != nil {
		return nil, nil, nil, err
	}
	return &p, tr, delta(before, after), nil
}

// missLedger is serve-miss's traced run: an untraced pass and a traced pass
// over the same op list, each on a fresh fleet so every op still misses.
func missLedger(o options) (*outcome, error) {
	srcs, err := loadSources(o.root)
	if err != nil {
		return nil, err
	}
	gen := missBlock(o.seed, o.size, srcs, missNodes)
	f, err := setupMiss(o.size, gen)
	if err != nil {
		return nil, err
	}
	base := runPass(serveClients, newDispenser(gen, o.size.missSeg, afterSegments(1)), func(i int, op jobOp) record {
		r, _ := f.timedPost(op)
		return r
	})
	f.close()
	traced, tr, counters, err := tracedMiss(o, o.size.missSeg, "ops")
	if err != nil {
		return nil, err
	}
	out := newOutcome(&base, traced)
	return finishLedger(o, out, &base, tr, counters)
}

// hotEnv is serve-hot's set-up state: one server holding the 64 primed
// results, and the direct-call bytes every reply must equal.
type hotEnv struct {
	f      *fleet
	primed []jobOp
	want   [][]byte
}

// setupHot boots the server, primes every spec (each a miss), and
// precomputes each result by direct library call.
func setupHot(o options, srcs map[string]source) (*hotEnv, error) {
	f, err := startFleet(1, serve.Config{Workers: serveClients})
	if err != nil {
		return nil, err
	}
	env := &hotEnv{f: f, primed: hotSpecs(o.seed, o.size, srcs)}
	for _, op := range env.primed {
		want, err := directBytes(op.kind, op.body)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("serve-hot direct %s job: %w", op.kind, err)
		}
		r, reply := f.timedPost(op)
		if !r.ok || !bytes.Equal(want, reply.Result) {
			f.close()
			return nil, fmt.Errorf("serve-hot priming %s job: reply differs from the direct call", op.kind)
		}
		env.want = append(env.want, want)
	}
	return env, nil
}

func (env *hotEnv) close() { env.f.close() }

// run posts one op; it must be a cache hit equal to the direct-call bytes.
// Traced, the serve layer's front half is timed on the body first.
func (env *hotEnv) run(tr *tracer, i int, op jobOp) record {
	t0 := time.Now()
	root := tr.begin(i, nil, "op."+string(op.kind))
	var err error
	if tr != nil {
		_, _, err = frontHalf(tr, i, root, op)
	}
	sp := tr.begin(i, root, "serve.http")
	r, reply := env.f.timedPost(op)
	sp.label("kind", string(op.kind))
	sp.count("elapsed_ns", reply.ElapsedNS)
	sp.end()
	root.end()
	r.lat = time.Since(t0)
	r.ok = r.ok && err == nil && reply.Cached && bytes.Equal(env.want[op.idx], reply.Result)
	return r
}

// serveHot measures serve-hot untraced for o.seconds.
func serveHot(o options) (*outcome, error) {
	srcs, err := loadSources(o.root)
	if err != nil {
		return nil, err
	}
	setups, env, err := repeatSetup(o.size.setups, func() (*hotEnv, error) { return setupHot(o, srcs) }, (*hotEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	d := newDispenser(hotBlock(o.seed, env.primed), o.size.hotSeg, afterTime(o.window()))
	p := runPass(serveClients, d, func(i int, op jobOp) record { return env.run(nil, i, op) })
	out := newOutcome(&p)
	out.metrics = endToEnd(&p, setups, out.info)
	out.info["clients"] = serveClients
	out.info["primed_specs"] = len(env.primed)
	return out, nil
}

// hotLedger is serve-hot's traced run: an untraced and a traced pass over
// the same draws from one primed server.
func hotLedger(o options) (*outcome, error) {
	srcs, err := loadSources(o.root)
	if err != nil {
		return nil, err
	}
	env, err := setupHot(o, srcs)
	if err != nil {
		return nil, err
	}
	defer env.close()
	gen := hotBlock(o.seed, env.primed)
	base := runPass(serveClients, newDispenser(gen, o.size.hotSeg, afterSegments(1)),
		func(i int, op jobOp) record { return env.run(nil, i, op) })
	before, err := env.f.counters()
	if err != nil {
		return nil, err
	}
	tr := newTracer("ops")
	traced := runPass(serveClients, newDispenser(gen, o.size.hotSeg, afterSegments(1)),
		func(i int, op jobOp) record { return env.run(tr, i, op) })
	after, err := env.f.counters()
	if err != nil {
		return nil, err
	}
	out := newOutcome(&base, &traced)
	return finishLedger(o, out, &base, tr, delta(before, after))
}
