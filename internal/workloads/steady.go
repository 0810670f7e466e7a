package workloads

import (
	"context"
	"fmt"

	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/tree"
)

// RunSteady runs the sequential steady-state protocol of the simulated miss
// rates into sim: a warm-up traced pass, sim.ResetStats, and a measured
// pass over the identical trace, each pass through its own single-sink
// Stream. Only the warm-up pass runs the Spec's Work kernels and pruning
// tests; it starts from a fresh Reset, and the returned Stats (ExtraOps
// folded in) and EngineOps are its own, as is the result the instance's
// Checksum reads afterwards. It also records every TruncInner2 answer, one
// bit each, and the measured pass replays that record with Work reduced to
// the trace: the engine's visit sequence depends only on the topologies,
// v, the Exec configuration and those answers, so the replay visits — and
// traces — exactly what the warm-up pass did (DESIGN.md §4.17). The replay
// never calls Reset, so it leaves the warm-up pass's result in place.
// RunSteady returns the measured pass's Stream, for its pipeline counters.
// ctx may be nil.
func (in *Instance) RunSteady(ctx context.Context, v nest.Variant, sim memsim.Simulator, configure func(*nest.Exec)) (nest.Stats, int64, *memsim.Stream, error) {
	var scratch []memsim.Addr
	var sink *memsim.Sink
	trace := in.Trace
	emit := func(o, i tree.NodeID) {
		scratch = trace(o, i, scratch[:0])
		sink.EmitBatch(scratch)
	}
	var log truncLog
	warm := memsim.NewStream(sim, 0)
	sink = warm.Sink()
	st, engOps, err := in.record(ctx, v, configure, &log, emit)
	warm.Close()
	if err != nil {
		return st, engOps, nil, err
	}
	sim.ResetStats()
	measured := memsim.NewStream(sim, 0)
	sink = measured.Sink()
	_, err = in.replay(ctx, v, configure, &log, emit)
	measured.Close()
	return st, engOps, measured, err
}

// record runs the real Spec under v from a fresh Reset, calling visit
// before each Work invocation; a non-nil log records every TruncInner2
// answer in evaluation order.
func (in *Instance) record(ctx context.Context, v nest.Variant, configure func(*nest.Exec), log *truncLog, visit func(o, i tree.NodeID)) (nest.Stats, int64, error) {
	in.Reset()
	s := in.Spec
	if trunc := s.TruncInner2; trunc != nil && log != nil {
		s.TruncInner2 = func(o, i tree.NodeID) bool {
			t := trunc(o, i)
			log.push(t)
			return t
		}
	}
	work := s.Work
	s.Work = func(o, i tree.NodeID) {
		visit(o, i)
		work(o, i)
	}
	return in.runSpec(ctx, s, v, configure)
}

// replay re-runs the visit sequence of a recorded pass under the same v and
// configure: TruncInner2 answers from log and Work is visit alone, so no
// kernel, pruning test or Reset runs. It returns the replay's Stats (equal
// to the recorded pass's, ExtraOps included, since the result is left
// alone) and an error if the replay did not consume the record exactly,
// which would mean the visit sequence depends on something the record does
// not hold.
func (in *Instance) replay(ctx context.Context, v nest.Variant, configure func(*nest.Exec), log *truncLog, visit func(o, i tree.NodeID)) (nest.Stats, error) {
	s := in.Spec
	if s.TruncInner2 != nil {
		s.TruncInner2 = log.next
	}
	s.Work = visit
	st, _, err := in.runSpec(ctx, s, v, configure)
	if err == nil && log.read != log.n {
		err = fmt.Errorf("workloads: %s replay read %d of %d recorded truncation answers", in.Name, log.read, log.n)
	}
	return st, err
}

// truncLog is the record a replay needs: one bit per TruncInner2
// evaluation, in evaluation order (DESIGN.md §4.17 bounds its size).
type truncLog struct {
	bits []uint64
	n    int // answers recorded
	read int // answers replayed
}

// push appends one answer.
func (l *truncLog) push(t bool) {
	if l.n&63 == 0 {
		l.bits = append(l.bits, 0)
	}
	if t {
		l.bits[l.n>>6] |= 1 << (l.n & 63)
	}
	l.n++
}

// next returns the next recorded answer; it has TruncInner2's signature.
// Past the end of the record it answers true, which ends a diverged replay
// quickly, and replay reports the overrun.
func (l *truncLog) next(tree.NodeID, tree.NodeID) bool {
	k := l.read
	l.read++
	return k >= l.n || l.bits[k>>6]&(1<<(k&63)) != 0
}
