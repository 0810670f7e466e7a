// Package workloads assembles the paper's six evaluation benchmarks (§6.1)
// as instances of the nested recursion template:
//
//	TJ  — tree join: cross product of two trees (Fig 1a)
//	MM  — matrix multiplication via Cilk-style divide-and-conquer range
//	      trees over rows and columns (§6.1, §7.2)
//	PC  — dual-tree 2-point correlation (kd-tree self-join)
//	NN  — dual-tree all-nearest-neighbors (kd-trees)
//	KNN — dual-tree k-nearest-neighbors, k=5 (kd-trees)
//	VP  — dual-tree k-nearest-neighbors, k=10 (vantage-point trees)
//
// Every instance carries, besides its nest.Spec, a checksum of its result
// (used to verify that all schedules compute the same answer), an operation
// count for the instruction model, and a Trace function that replays the
// memory accesses of one work(o, i) invocation for the cache simulation.
package workloads

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"twist/internal/dualtree"
	"twist/internal/geom"
	"twist/internal/kdtree"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/tree"
	"twist/internal/vptree"
)

// Address-space bases for the cache simulation: every data structure lives
// in its own 1 GiB region so structures never alias.
const (
	baseOuterNodes memsim.Addr = 1 << 30
	baseInnerNodes memsim.Addr = 2 << 30
	baseOuterData  memsim.Addr = 3 << 30
	baseInnerData  memsim.Addr = 4 << 30
	baseMatA       memsim.Addr = 5 << 30
	baseMatB       memsim.Addr = 6 << 30
	baseMatC       memsim.Addr = 7 << 30
)

// nodeStride is the default payload footprint of one tree node: one cache
// line, matching the paper's §3.2 model where work(o, i) touches exactly
// node o and node i.
const nodeStride = 64

// Instance is one runnable benchmark.
type Instance struct {
	// Name is the paper's benchmark abbreviation (TJ, MM, PC, NN, KNN, VP).
	Name string

	// Description is a one-line summary for harness output.
	Description string

	// Spec is the nested recursion to run.
	Spec nest.Spec

	// Reset clears result state; call before every run.
	Reset func()

	// Checksum folds the computed result into a value that must agree
	// across all schedules.
	Checksum func() uint64

	// ExtraOps reports workload work (e.g. point-pair distance evaluations)
	// performed during the last run, in instruction-model units.
	ExtraOps func() int64

	// Trace appends the addresses one work(o, i) invocation touches to buf,
	// in access order (inner structure first, per the paper's examples), and
	// returns the extended slice. It holds no state of its own, so
	// concurrent callers (one per parallel worker) are safe as long as each
	// passes its own buffer; reusing that buffer (buf[:0]) keeps the traced
	// hot path free of allocation. The one exception is the Trace of a
	// SequentialLayout instance under the schedule layout, which assigns
	// slots as it goes: it is stateful, and only for one sequential run.
	Trace func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr

	// ForTask derives a task-private Spec for the parallel executor (pass
	// it as nest.RunConfig.ForTask with the unmodified Spec as the base):
	// scalar reductions go to per-task shards and pruning bounds start
	// fresh, so each task's behaviour — and hence its Stats — is a pure
	// function of its outer root, which is what makes merged parallel Stats
	// identical across worker counts. Checksum and ExtraOps include the
	// shard contributions; Reset discards them.
	ForTask func(root tree.NodeID, base nest.Spec) nest.Spec
}

// TracedSpec returns a copy of the Spec whose Work additionally replays its
// memory accesses into emit, one address at a time, from a buffer the Spec
// reuses across visits — so the Spec is for one sequential run at a time.
// Use a fresh Reset before running it.
func (in *Instance) TracedSpec(emit func(memsim.Addr)) nest.Spec {
	s := in.Spec
	trace, work := in.Trace, s.Work
	var buf []memsim.Addr
	s.Work = func(o, i tree.NodeID) {
		buf = trace(o, i, buf[:0])
		for _, a := range buf {
			emit(a)
		}
		work(o, i)
	}
	return s
}

// Run executes the instance under variant v with the given flag mode and
// returns the engine statistics (including ExtraOps).
func (in *Instance) Run(v nest.Variant, fm nest.FlagMode) nest.Stats {
	st, _, err := in.RunSeq(nil, v, func(e *nest.Exec) { e.Flags = fm })
	if err != nil {
		panic(err) // unreachable: a nil ctx never cancels
	}
	return st
}

// RunSeq executes the instance sequentially under v on a fresh Exec,
// applying configure (flag mode, subtree truncation, ...) before the
// run. It is the single sequential entry point the harnesses (serve,
// experiments, nestbench) drive instead of building raw Execs. It returns
// the run's Stats with ExtraOps folded in, the engine-overhead counter
// (nest.Exec.EngineOps), and the context error, if any. ctx may be nil.
func (in *Instance) RunSeq(ctx context.Context, v nest.Variant, configure func(*nest.Exec)) (nest.Stats, int64, error) {
	in.Reset()
	return in.runSpec(ctx, in.Spec, v, configure)
}

// RunEmit is RunSeq over the traced spec: every visit's memory accesses are
// replayed, in access order, into emit before the visit's work runs.
func (in *Instance) RunEmit(ctx context.Context, v nest.Variant, emit func(memsim.Addr), configure func(*nest.Exec)) (nest.Stats, int64, error) {
	in.Reset()
	return in.runSpec(ctx, in.TracedSpec(emit), v, configure)
}

// RunSink is the batched form of RunEmit for simulator pipelines: each
// visit's accesses are appended to one scratch buffer reused across the run
// and handed to sink as one EmitBatch call, so the traced hot path neither
// allocates nor pays a call per address. Batch boundaries — and therefore
// simulated stats — are identical to emitting address-by-address. The trace
// only observes the visits, so the returned Stats, EngineOps and checksum
// are those of RunSeq with the same configure. Every RunSink pass runs the
// Work kernels; the warm-up/measure protocol of RunSteady runs them once
// and replays the second pass, for the same simulated stats.
func (in *Instance) RunSink(ctx context.Context, v nest.Variant, sink *memsim.Sink, configure func(*nest.Exec)) (nest.Stats, int64, error) {
	var scratch []memsim.Addr
	trace := in.Trace
	return in.record(ctx, v, configure, nil, func(o, i tree.NodeID) {
		scratch = trace(o, i, scratch[:0])
		sink.EmitBatch(scratch)
	})
}

// runSpec runs s, a form of in.Spec, under v on a fresh Exec after
// configure, and returns its Stats with ExtraOps folded in, its EngineOps
// and the context error.
func (in *Instance) runSpec(ctx context.Context, s nest.Spec, v nest.Variant, configure func(*nest.Exec)) (nest.Stats, int64, error) {
	e := nest.MustNew(s)
	if configure != nil {
		configure(e)
	}
	err := e.RunContext(ctx, v)
	e.Stats.ExtraOps = in.ExtraOps()
	return e.Stats, e.EngineOps(), err
}

// OracleSpec returns the Spec the semantic-equivalence oracle should check
// for this instance (internal/oracle): it runs the instance once under the
// baseline schedule so adaptive pruning state — the nearest-neighbor bounds
// that tighten as work executes — converges, then hands back the Spec with
// that state frozen. The oracle replaces Work with its own recorder, so
// captures and checks never mutate workload state again: the truncation
// predicate becomes a pure (and, for the dual-tree bounds, still hereditary)
// function of (o, i), which is the premise of the oracle's
// permutation-equivalence model (DESIGN.md §4.9). For the stateless spaces
// (TJ, MM, PC) the warm-up run changes nothing.
func (in *Instance) OracleSpec() nest.Spec {
	in.Run(nest.Original(), nest.FlagCounter)
	return in.Spec
}

// RunWith executes the instance under the parallel executor, wiring the
// instance's ForTask sharding into cfg (unless the caller set its own) and
// folding ExtraOps into the merged Stats. configure (flag mode, subtree
// truncation, ...) applies to the Exec before the run, as in RunSeq; every
// worker inherits it.
func (in *Instance) RunWith(cfg nest.RunConfig, configure ...func(*nest.Exec)) (nest.RunResult, error) {
	in.Reset()
	if cfg.ForTask == nil {
		cfg.ForTask = in.ForTask
	}
	e := nest.MustNew(in.Spec)
	for _, c := range configure {
		c(e)
	}
	res, err := e.RunWith(cfg)
	res.Stats.ExtraOps = in.ExtraOps()
	return res, err
}

// shardSet collects the per-task reduction shards a run's ForTask hands out.
type shardSet[T any] struct {
	mu   sync.Mutex
	list []*T
}

func (s *shardSet[T]) add() *T {
	t := new(T)
	s.mu.Lock()
	s.list = append(s.list, t)
	s.mu.Unlock()
	return t
}

func (s *shardSet[T]) reset() {
	s.mu.Lock()
	s.list = nil
	s.mu.Unlock()
}

func (s *shardSet[T]) fold(f func(*T)) {
	s.mu.Lock()
	for _, t := range s.list {
		f(t)
	}
	s.mu.Unlock()
}

// mix is a cheap 64-bit hash combiner for checksums.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// TreeJoin builds the TJ benchmark: a cross product of two balanced binary
// trees of n nodes each, where each visited pair contributes both nodes'
// payloads to a running sum (Fig 1a's join). The payload is one cache line
// per node, so TJ has the paper's "low computational intensity": nearly all
// time goes to fetching tree data.
func TreeJoin(n int, seed int64) *Instance {
	outer := tree.NewBalanced(n)
	inner := tree.NewBalanced(n)
	valO := make([][8]uint64, n)
	valI := make([][8]uint64, n)
	s := uint64(seed)
	for k := 0; k < n; k++ {
		for w := 0; w < 8; w++ {
			s = s*6364136223846793005 + 1442695040888963407
			valO[k][w] = s
			s = s*6364136223846793005 + 1442695040888963407
			valI[k][w] = s
		}
	}
	type tjCells struct {
		sum   uint64
		works int64
	}
	var base tjCells
	var sh shardSet[tjCells]
	makeSpec := func(c *tjCells) nest.Spec {
		return nest.Spec{
			Outer: outer,
			Inner: inner,
			Work: func(o, i tree.NodeID) {
				vo, vi := &valO[o], &valI[i]
				var sum uint64
				for w := range vo {
					sum += vo[w] * vi[w]
				}
				c.sum += sum
				c.works++
			},
		}
	}
	in := &Instance{
		Name:        "TJ",
		Description: fmt.Sprintf("tree join, two %d-node balanced trees", n),
		Reset:       func() { base = tjCells{}; sh.reset() },
		Checksum: func() uint64 {
			total := base.sum
			sh.fold(func(c *tjCells) { total += c.sum })
			return total
		},
		ExtraOps: func() int64 {
			works := base.works
			sh.fold(func(c *tjCells) { works += c.works })
			return works * 16
		},
		Trace: func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr {
			return append(buf, baseInnerNodes+memsim.Addr(i)*nodeStride, baseOuterNodes+memsim.Addr(o)*nodeStride)
		},
	}
	in.Spec = makeSpec(&base)
	in.ForTask = func(root tree.NodeID, _ nest.Spec) nest.Spec {
		return makeSpec(sh.add())
	}
	return in
}

// rangeTree builds a balanced binary tree whose leaves are the indices
// [0, n) in order, returning the topology and the leaf index of each node
// (-1 for internal nodes). This is the Cilk-style divide-and-conquer
// decomposition of a for loop discussed in §7.2.
func rangeTree(n int) (*tree.Topology, []int32) {
	b := tree.NewBuilder(2*n - 1)
	var idx []int32
	var build func(lo, hi int32) tree.NodeID
	build = func(lo, hi int32) tree.NodeID {
		id := b.Add()
		if hi-lo == 1 {
			idx = append(idx, lo)
			return id
		}
		idx = append(idx, -1)
		mid := lo + (hi-lo)/2
		b.SetLeft(id, build(lo, mid))
		b.SetRight(id, build(mid, hi))
		return id
	}
	root := build(0, int32(n))
	return b.MustBuild(root), idx
}

// MatMul builds the MM benchmark: C = A·B for n×n float64 matrices, with the
// outer recursion dividing the rows of A and the inner recursion dividing
// the columns of B; work(o, i) at a leaf-leaf pair is the dot product of row
// o and column i (§6.1). B is stored column-major so each column is
// contiguous, as a cache-conscious baseline would.
func MatMul(n int, seed int64) *Instance {
	outer, rowIdx := rangeTree(n)
	inner, colIdx := rangeTree(n)
	a := make([]float64, n*n)  // row-major
	bt := make([]float64, n*n) // column-major B (row-major Bᵀ)
	c := make([]float64, n*n)  // row-major
	s := uint64(seed)
	for k := range a {
		s = s*6364136223846793005 + 1442695040888963407
		a[k] = float64(s%1000) / 1000
		s = s*6364136223846793005 + 1442695040888963407
		bt[k] = float64(s%1000) / 1000
	}
	var pairs int64
	var sh shardSet[int64]
	lineFloats := int32(8) // 64B line holds 8 float64s
	in := &Instance{
		Name:        "MM",
		Description: fmt.Sprintf("recursive matrix multiply, %dx%d", n, n),
		Reset: func() {
			pairs = 0
			sh.reset()
			for k := range c {
				c[k] = 0
			}
		},
		Checksum: func() uint64 {
			var h uint64 = 14695981039346656037
			for _, v := range c {
				h = mix(h, uint64(v*1024))
			}
			return h
		},
		ExtraOps: func() int64 {
			p := pairs
			sh.fold(func(n *int64) { p += *n })
			return p * int64(n) * 2
		},
		Trace: func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr {
			r, cl := rowIdx[o], colIdx[i]
			if r < 0 || cl < 0 {
				return buf
			}
			// The dot product streams one column of B and one row of A.
			for k := int32(0); k < int32(n); k += lineFloats {
				buf = append(buf, baseMatB+memsim.Addr(cl*int32(n)+k)*8)
			}
			for k := int32(0); k < int32(n); k += lineFloats {
				buf = append(buf, baseMatA+memsim.Addr(r*int32(n)+k)*8)
			}
			return append(buf, baseMatC+memsim.Addr(r*int32(n)+cl)*8)
		},
	}
	makeSpec := func(pairs *int64) nest.Spec {
		return nest.Spec{
			Outer: outer,
			Inner: inner,
			Work: func(o, i tree.NodeID) {
				r, cl := rowIdx[o], colIdx[i]
				if r < 0 || cl < 0 {
					return
				}
				*pairs++
				// C rows are disjoint across outer subtrees, so tasks
				// never write the same cell.
				row := a[int(r)*n : int(r+1)*n]
				col := bt[int(cl)*n : int(cl+1)*n]
				var dot float64
				for k := 0; k < n; k++ {
					dot += row[k] * col[k]
				}
				c[int(r)*n+int(cl)] = dot
			},
		}
	}
	in.Spec = makeSpec(&pairs)
	in.ForTask = func(root tree.NodeID, _ nest.Spec) nest.Spec {
		return makeSpec(sh.add())
	}
	return in
}

// dualTraced builds the shared Trace function for the dual-tree benchmarks:
// each work(o, i) touches the two tree nodes; a leaf-leaf pair additionally
// streams both leaves' point data.
func dualTraced(query, ref interface {
	NodePoints(tree.NodeID) []geom.Point
}, qTopo, rTopo *tree.Topology, qStart, rStart []int32) func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr {
	const ptBytes = 24 // 3 float64 coordinates
	return func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr {
		buf = append(buf, baseInnerNodes+memsim.Addr(i)*nodeStride, baseOuterNodes+memsim.Addr(o)*nodeStride)
		if !qTopo.IsLeaf(o) || !rTopo.IsLeaf(i) {
			return buf
		}
		nq := int32(len(query.NodePoints(o)))
		nr := int32(len(ref.NodePoints(i)))
		for k := int32(0); k*64 < nr*ptBytes; k++ {
			buf = append(buf, baseInnerData+memsim.Addr(rStart[i])*ptBytes+memsim.Addr(k)*64)
		}
		for k := int32(0); k*64 < nq*ptBytes; k++ {
			buf = append(buf, baseOuterData+memsim.Addr(qStart[o])*ptBytes+memsim.Addr(k)*64)
		}
		return buf
	}
}

// leafSize is the leaf bucket capacity for all spatial trees.
const leafSize = 8

// PointCorr builds the PC benchmark: dual-tree 2-point correlation of n
// uniform points against themselves with the given radius. The radius
// controls how much of the reference tree each query's traversal visits —
// and hence, as in the paper's Fig 9, whether the per-traversal working set
// fits in cache (small inputs) or thrashes it (large ones).
func PointCorr(n int, radius float64, seed int64) *Instance {
	pts := geom.Generate(geom.Uniform, n, seed)
	ix := kdtree.MustBuild(pts, leafSize)
	pc := dualtree.NewPC(ix, ix, radius)
	type pcCells struct{ count, pairOps int64 }
	var sh shardSet[pcCells]
	return &Instance{
		Name:        "PC",
		Description: fmt.Sprintf("dual-tree point correlation, %d points, r=%.3g", n, radius),
		Spec:        pc.Spec(),
		Reset:       func() { pc.Reset(); sh.reset() },
		Checksum: func() uint64 {
			count := pc.Count
			sh.fold(func(c *pcCells) { count += c.count })
			return uint64(count)
		},
		ExtraOps: func() int64 {
			ops := pc.PairOps
			sh.fold(func(c *pcCells) { ops += c.pairOps })
			return ops * 8
		},
		Trace: dualTraced(ix, ix, ix.Topo, ix.Topo, ix.Start, ix.Start),
		ForTask: func(root tree.NodeID, _ nest.Spec) nest.Spec {
			c := sh.add()
			return pc.SpecInto(&c.count, &c.pairOps)
		},
	}
}

// NearestNeighbor builds the NN benchmark: all-nearest-neighbors of n
// uniform query points in n uniform reference points.
func NearestNeighbor(n int, seed int64) *Instance {
	q := kdtree.MustBuild(geom.Generate(geom.Uniform, n, seed), leafSize)
	r := kdtree.MustBuild(geom.Generate(geom.Uniform, n, seed+1), leafSize)
	nn := dualtree.NewNN(q, r)
	var sh shardSet[int64]
	return &Instance{
		Name:        "NN",
		Description: fmt.Sprintf("dual-tree nearest neighbor, %d queries in %d refs", n, n),
		Spec:        nn.Spec(),
		Reset:       func() { nn.Reset(); sh.reset() },
		Checksum: func() uint64 {
			var h uint64 = 14695981039346656037
			for k := range nn.BestI {
				h = mix(h, uint64(nn.BestI[k]))
			}
			return h
		},
		ExtraOps: func() int64 {
			ops := nn.PairOps
			sh.fold(func(n *int64) { ops += *n })
			return ops * 8
		},
		Trace: dualTraced(q, r, q.Topo, r.Topo, q.Start, r.Start),
		ForTask: func(root tree.NodeID, _ nest.Spec) nest.Spec {
			// Fresh infinite bounds per task: pruning becomes a pure
			// function of the task's subtree (deterministic merged stats),
			// and conservative pruning cannot change the neighbors found.
			return nn.SpecInto(dualtree.InfBounds(q.Topo), sh.add())
		},
	}
}

// KNearest builds the KNN benchmark (k=5 in the paper) over kd-trees.
func KNearest(n, k int, seed int64) *Instance {
	q := kdtree.MustBuild(geom.Generate(geom.Clustered, n, seed), leafSize)
	r := kdtree.MustBuild(geom.Generate(geom.Clustered, n, seed+1), leafSize)
	kn := dualtree.NewKNN(q, r, k)
	var sh shardSet[int64]
	return &Instance{
		Name:        "KNN",
		Description: fmt.Sprintf("dual-tree %d-nearest neighbor, %d points", k, n),
		Spec:        kn.Spec(),
		Reset:       func() { kn.Reset(); sh.reset() },
		Checksum:    func() uint64 { return knnChecksum(kn) },
		ExtraOps: func() int64 {
			ops := kn.PairOps
			sh.fold(func(n *int64) { ops += *n })
			return ops * 8
		},
		Trace: dualTraced(q, r, q.Topo, r.Topo, q.Start, r.Start),
		ForTask: func(root tree.NodeID, _ nest.Spec) nest.Spec {
			return kn.SpecInto(dualtree.InfBounds(q.Topo), sh.add())
		},
	}
}

// VPKNearest builds the VP benchmark (k=10 in the paper): k-nearest-neighbor
// self-join over a vantage-point tree.
func VPKNearest(n, k int, seed int64) *Instance {
	ix := vptree.MustBuild(geom.Generate(geom.Clustered, n, seed), leafSize, seed)
	kn := dualtree.NewKNN(ix, ix, k)
	var sh shardSet[int64]
	return &Instance{
		Name:        "VP",
		Description: fmt.Sprintf("vp-tree %d-nearest neighbor self-join, %d points", k, n),
		Spec:        kn.Spec(),
		Reset:       func() { kn.Reset(); sh.reset() },
		Checksum:    func() uint64 { return knnChecksum(kn) },
		ExtraOps: func() int64 {
			ops := kn.PairOps
			sh.fold(func(n *int64) { ops += *n })
			return ops * 8
		},
		Trace: dualTraced(ix, ix, ix.Topo, ix.Topo, ix.Start, ix.Start),
		ForTask: func(root tree.NodeID, _ nest.Spec) nest.Spec {
			return kn.SpecInto(dualtree.InfBounds(ix.Topo), sh.add())
		},
	}
}

// knnChecksum mixes every query point's neighbor indices, ascending by
// (distance, index), into one hash.
func knnChecksum(kn *dualtree.KNN) uint64 {
	var h uint64 = 14695981039346656037
	kn.EachResult(func(_ int, idx []int32) {
		for _, i := range idx {
			h = mix(h, uint64(i))
		}
	})
	return h
}

// Names returns the suite benchmark abbreviations in suite order.
func Names() []string {
	return []string{"TJ", "MM", "PC", "NN", "KNN", "VP"}
}

// Irregular reports whether the named benchmark's iteration space is
// irregular (Spec.TruncInner2 set): the dual-tree benchmarks prune inner
// subtrees based on the outer traversal state, while TJ and MM are
// rectangular. The classification is static — it holds at every scale and
// seed — which lets schedule legality (internal/transform/algebra) be
// checked without building an instance. The name must be canonical (see
// CanonicalName).
func Irregular(name string) (bool, error) {
	switch name {
	case "TJ", "MM":
		return false, nil
	case "PC", "NN", "KNN", "VP":
		return true, nil
	}
	return false, fmt.Errorf("workloads: unknown workload %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// CanonicalName maps a benchmark name, case-insensitively, to its canonical
// suite abbreviation, or reports an error naming the valid set.
func CanonicalName(name string) (string, error) {
	for _, n := range Names() {
		if strings.EqualFold(name, n) {
			return n, nil
		}
	}
	return "", fmt.Errorf("workloads: unknown workload %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// ByName builds one suite benchmark at the common scale parameter n, using
// the same per-benchmark sizing rules as Suite. The name must be canonical
// (see CanonicalName).
func ByName(name string, n int, seed int64) (*Instance, error) {
	switch name {
	case "TJ":
		tj := n / 4
		if tj < 64 {
			tj = 64
		}
		return TreeJoin(tj, seed), nil
	case "MM":
		m := n / 64
		if m < 32 {
			m = 32
		}
		return MatMul(m, seed), nil
	case "PC":
		return PointCorr(n, 0.4, seed), nil
	case "NN":
		return NearestNeighbor(n, seed), nil
	case "KNN":
		return KNearest(n, 5, seed), nil
	case "VP":
		return VPKNearest(n, 10, seed), nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// Suite returns the paper's six benchmarks at a common scale parameter n.
// Per-benchmark sizes are chosen so each reaches the paper's interesting
// regime at comparable cost: TJ performs Θ(n²) work so it runs at n/4 nodes,
// MM performs Θ(m³) work so it runs at m = n/64, and the dual-tree
// benchmarks run at n points (PC with radius 0.4, which at the default
// scales makes per-query traversals exceed the simulated LLC — the paper's
// large-input regime of Fig 9).
func Suite(n int, seed int64) []*Instance {
	out := make([]*Instance, 0, len(Names()))
	for _, name := range Names() {
		in, err := ByName(name, n, seed)
		if err != nil {
			panic(err) // unreachable: Names() yields only canonical names
		}
		out = append(out, in)
	}
	return out
}
