package oracle_test

import (
	"testing"

	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/oracle"
	"twist/internal/tree"
	"twist/internal/workloads"
)

// recordingSim is a memsim.Simulator that records the address trace it is
// fed instead of simulating caches. Stream serializes all access to it.
type recordingSim struct {
	seq    []memsim.Addr
	counts map[memsim.Addr]int64
}

func newRecordingSim() *recordingSim {
	return &recordingSim{counts: make(map[memsim.Addr]int64)}
}

func (r *recordingSim) Access(a memsim.Addr) {
	r.seq = append(r.seq, a)
	r.counts[a]++
}

func (r *recordingSim) AccessBatch(as []memsim.Addr) {
	for _, a := range as {
		r.Access(a)
	}
}

func (r *recordingSim) Stats() []memsim.LevelStats   { return nil }
func (r *recordingSim) Reset()                       { r.seq = nil; r.counts = make(map[memsim.Addr]int64) }
func (r *recordingSim) ResetStats()                  {}
func (r *recordingSim) Publish(obs.Recorder, string) {}
func (r *recordingSim) Close()                       {}

// expand replays the golden trace's visits through the instance's Trace
// function, producing the address stream the simulator *should* see.
func expand(in *workloads.Instance, g *oracle.Trace) []memsim.Addr {
	var want []memsim.Addr
	for _, v := range g.Seq {
		in.Trace(v.O, v.I, func(a memsim.Addr) { want = append(want, a) })
	}
	return want
}

// Sequential wiring: with one Sink and the baseline schedule, the address
// sequence the simulator consumes is exactly the golden trace expanded in
// order — the memsim pipeline neither drops, reorders, nor invents accesses.
func TestStreamSequentialTraceEqualsOracleTrace(t *testing.T) {
	t.Parallel()
	in := workloads.TreeJoin(96, 3)
	spec := in.OracleSpec()
	g, err := oracle.Capture(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := expand(in, g)

	rec := newRecordingSim()
	st := memsim.NewStream(rec, 64)
	sink := st.Sink()
	run := spec
	run.Work = func(o, i tree.NodeID) { in.Trace(o, i, sink.Emit) }
	nest.MustNew(run).Run(nest.Original())
	st.Close()

	if st.Dropped() != 0 {
		t.Fatalf("stream dropped %d addresses", st.Dropped())
	}
	if len(rec.seq) != len(want) {
		t.Fatalf("simulator consumed %d addresses, oracle trace expands to %d", len(rec.seq), len(want))
	}
	for k := range want {
		if rec.seq[k] != want[k] {
			t.Fatalf("address %d: simulator saw %#x, oracle trace %#x", k, rec.seq[k], want[k])
		}
	}
}

// Parallel wiring: under the work-stealing executor with per-worker sinks
// (the production missRatesWith arrangement), batches interleave in
// completion order but the address *multiset* fed to the simulator must
// still equal the oracle trace's expansion exactly.
func TestStreamParallelTraceMatchesOracleMultiset(t *testing.T) {
	t.Parallel()
	in := workloads.PointCorr(256, 0.4, 9)
	spec := in.OracleSpec()
	g, err := oracle.Capture(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := make(map[memsim.Addr]int64)
	for _, a := range expand(in, g) {
		wantCounts[a]++
	}

	const workers = 4
	rec := newRecordingSim()
	st := memsim.NewStream(rec, 128)
	sinks := make([]*memsim.Sink, workers)
	for w := range sinks {
		sinks[w] = st.Sink()
	}
	run := spec
	run.Work = func(o, i tree.NodeID) {}
	cfg := nest.RunConfig{
		Variant: nest.Twisted(), Workers: workers,
		WrapWork: func(worker int, _ func(o, i tree.NodeID)) func(o, i tree.NodeID) {
			sk := sinks[worker]
			return func(o, i tree.NodeID) { in.Trace(o, i, sk.Emit) }
		},
	}
	if _, err := nest.MustNew(run).RunWith(cfg); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if st.Dropped() != 0 {
		t.Fatalf("stream dropped %d addresses", st.Dropped())
	}
	if len(rec.counts) != len(wantCounts) {
		t.Fatalf("simulator saw %d distinct addresses, oracle trace expands to %d", len(rec.counts), len(wantCounts))
	}
	for a, n := range wantCounts {
		if rec.counts[a] != n {
			t.Fatalf("address %#x: simulator count %d, oracle trace %d", a, rec.counts[a], n)
		}
	}
}
