package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"twist/internal/serve"
	"twist/internal/workloads"
)

// jobOp is one served job: the kind, the JSON body the client sends, and the
// node it enters at. Servers only ever see these generated bodies.
type jobOp struct {
	kind  serve.Kind
	body  []byte
	entry int
	idx   int // serve-hot: index of the primed spec
}

func mustBody(spec serve.Spec) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // specs are plain data
	}
	return b
}

// source is a transform input read from the repository's examples.
type source struct {
	name, text string
	loops      bool // a plain loop nest for the loops front-end
	irregular  bool // inlining is rejected on irregular templates
}

// loadSources reads the transform inputs both serve workloads send.
func loadSources(root string) (map[string]source, error) {
	specs := []source{
		{name: "join.go"},
		{name: "loopjoin.go", loops: true},
		{name: "looptri.go", loops: true, irregular: true},
		{name: "loopjoin_template.go"},
		{name: "looptri_template.go", irregular: true},
	}
	out := map[string]source{}
	for _, s := range specs {
		b, err := os.ReadFile(filepath.Join(root, "examples", "transform", s.name))
		if err != nil {
			return nil, fmt.Errorf("transform source: %w", err)
		}
		s.text = string(b)
		out[s.name] = s
	}
	return out, nil
}

// transformSpec builds a transform job on src whose schedule list is a
// seeded subset of the legal schedules plus twisted-cutoff:cutoff, which
// makes the spec unique when cutoff is.
func transformSpec(rng *rand.Rand, src source, cutoff int) *serve.TransformSpec {
	extra := []string{"interchanged", "twisted", "inline(2)∘twist(flagged)", "inline(1)∘interchange"}
	if src.irregular {
		extra = extra[:2]
	}
	var vs []string
	for _, e := range extra {
		if rng.Intn(2) == 0 {
			vs = append(vs, e)
		}
	}
	vs = append(vs, fmt.Sprintf("twisted-cutoff:%d", cutoff))
	rng.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
	s := &serve.TransformSpec{Source: src.text, Variants: vs}
	if src.loops {
		s.Frontend = "loops"
	}
	return s
}

var (
	layoutCycle = []string{"buildorder", "veb", "schedule"}
	engineNames = []string{"recursive", "iterative"}
)

// missBlock generates serve-miss block b: 40 jobs, each unique by its
// workload seed or schedule list, so every op misses its entry node's cache.
// Every block has the same mix; the seed draws the workload data, the
// transform schedule lists and the op order.
//   - 24 run: the grid benchmark × engine × workers{1,2}, with half the grid
//     at each scale and schedule (the halves swap between blocks), layouts
//     cycling buildorder/veb/schedule and sim_workers 1/2 across the grid;
//   - 6 misscurve and 6 oracle: one per benchmark (oracle workers 0/2);
//   - 4 transform: join.go twice (template), loopjoin.go and looptri.go
//     (loops front-end).
//
// After a seeded shuffle, op k of the run enters at node k mod nodes.
func missBlock(seed int64, sz sizes, srcs map[string]source, nodes int) func(b int) []jobOp {
	return func(b int) []jobOp {
		rng := rand.New(rand.NewSource(seed*104729 + int64(b)))
		next := 0
		uniq := func() int64 { next++; return seed<<40 | int64(b)<<8 | int64(next) }
		var ops []jobOp
		add := func(spec serve.Spec) { ops = append(ops, jobOp{kind: spec.Kind(), body: mustBody(spec)}) }
		variants := []string{"original", "twisted"}
		k := 0
		for bi, bench := range workloads.Names() {
			for ei, eng := range engineNames {
				for wi, w := range []int{1, 2} {
					add(&serve.RunSpec{
						Workload: bench, Variant: variants[(bi+wi+b)%2],
						Scale: sz.runScales[(bi+ei+wi+b)%2], Seed: uniq(), Workers: w,
						Engine: eng, SimWorkers: 1 + (bi+ei)%2, Layout: layoutCycle[k%3],
					})
					k++
				}
			}
		}
		for bi, bench := range workloads.Names() {
			add(&serve.MissCurveSpec{
				Workload: bench, Variant: variants[(bi+b)%2], Scale: sz.curveScale,
				Seed: uniq(), Engine: engineNames[(bi/2+b)%2], Layout: layoutCycle[bi%3],
			})
			w := 2 * (bi % 2)
			add(&serve.OracleSpec{
				Workload: bench, Scale: sz.oracleScale, Seed: uniq(), Workers: w, Stealing: w > 0,
				Variant: []string{"twisted", "twisted-cutoff:32", "interchanged"}[(bi+b)%3],
			})
		}
		for t, name := range []string{"join.go", "join.go", "loopjoin.go", "looptri.go"} {
			add(transformSpec(rng, srcs[name], 2+4*b+t))
		}
		rng.Shuffle(len(ops), func(x, y int) { ops[x], ops[y] = ops[y], ops[x] })
		for i := range ops {
			ops[i].entry = (b*len(ops) + i) % nodes
		}
		return ops
	}
}

// hotSpecs generates the 64 distinct specs serve-hot primes: 28 run, 12
// misscurve, 12 oracle and 12 transform jobs, from ~60-byte run specs to
// multi-KB transform templates. The seed draws the workload data and the
// transform schedule lists.
func hotSpecs(seed int64, sz sizes, srcs map[string]source) []jobOp {
	rng := rand.New(rand.NewSource(seed*15485863 + 1))
	names := workloads.Names()
	var ops []jobOp
	add := func(spec serve.Spec) { ops = append(ops, jobOp{kind: spec.Kind(), body: mustBody(spec)}) }
	for k := 0; k < 28; k++ {
		s := &serve.RunSpec{Workload: names[k%len(names)], Scale: sz.hotRunScales[k/len(names)%len(sz.hotRunScales)], Seed: seed<<8 | int64(k)}
		if k%2 == 1 {
			s.Engine, s.Layout, s.Variant = "iterative", layoutCycle[k%3], "original"
		}
		add(s)
	}
	for k := 0; k < 12; k++ {
		add(&serve.MissCurveSpec{Workload: names[k%len(names)], Scale: sz.hotCurveScale, Seed: seed<<8 | int64(k)})
		add(&serve.OracleSpec{
			Workload: names[k%len(names)], Scale: sz.hotOracleScales[k/len(names)%len(sz.hotOracleScales)],
			Seed: seed<<8 | int64(k), Workers: 2 * (k % 2), Stealing: k%2 == 1,
		})
	}
	files := []string{"join.go", "loopjoin.go", "looptri.go", "loopjoin_template.go", "looptri_template.go", "join.go"}
	for k := 0; k < 12; k++ {
		add(transformSpec(rng, srcs[files[k%len(files)]], 8+k))
	}
	return ops
}

// hotBlock draws block b of serve-hot: 64 seeded uniform draws from the
// primed specs.
func hotBlock(seed int64, primed []jobOp) func(b int) []jobOp {
	return func(b int) []jobOp {
		rng := rand.New(rand.NewSource(seed*32452843 + int64(b)))
		ops := make([]jobOp, 64)
		for i := range ops {
			j := rng.Intn(len(primed))
			ops[i] = primed[j]
			ops[i].idx = j
		}
		return ops
	}
}
