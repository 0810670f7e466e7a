package workloads

import (
	"fmt"
	"testing"

	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/tree"
)

// steadyCase is one cell of the replay and first-touch grids: every suite
// benchmark × four schedules × both flag modes × scales 256 and 1024.
type steadyCase struct {
	name      string
	scale     int
	v         nest.Variant
	configure func(*nest.Exec)
}

func steadyCases(name string) []steadyCase {
	var cases []steadyCase
	for _, scale := range []int{256, 1024} {
		for _, v := range []nest.Variant{nest.Original(), nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(64)} {
			for _, fm := range []nest.FlagMode{nest.FlagCounter, nest.FlagSets} {
				cases = append(cases, steadyCase{
					name:      fmt.Sprintf("%s/%d/%v/%v", name, scale, v, fm),
					scale:     scale,
					v:         v,
					configure: func(e *nest.Exec) { e.Flags = fm },
				})
			}
		}
	}
	return cases
}

// visitHash is an ordered digest of a pass's (o, i) visits, or of the
// addresses a Trace emits at those visits.
type visitHash struct {
	h, visits uint64
	buf       []memsim.Addr
}

func newVisitHash() *visitHash { return &visitHash{h: 14695981039346656037} }

func (vh *visitHash) visit(o, i tree.NodeID) {
	vh.h = mix(mix(vh.h, uint64(o)), uint64(i))
	vh.visits++
}

// tracer hashes the addresses trace emits at each visit instead.
func (vh *visitHash) tracer(trace func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr) func(o, i tree.NodeID) {
	return func(o, i tree.NodeID) {
		vh.buf = trace(o, i, vh.buf[:0])
		for _, a := range vh.buf {
			vh.h = mix(vh.h, uint64(a))
		}
		vh.visits++
	}
}

// TestReplayMatchesRecordedPass pins RunSteady's determinism argument
// (DESIGN.md §4.17): replaying the recorded TruncInner2 answers reproduces
// the recorded pass's ordered (o, i) visit sequence and its engine Stats,
// leaves its result in place, and the record holds exactly one bit per
// TruncInner2 evaluation — none at all for the rectangular TJ and MM.
func TestReplayMatchesRecordedPass(t *testing.T) {
	for _, name := range suiteNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range steadyCases(name) {
				in, err := ByName(name, c.scale, 1)
				if err != nil {
					t.Fatal(err)
				}
				evals := 0
				if trunc := in.Spec.TruncInner2; trunc != nil {
					in.Spec.TruncInner2 = func(o, i tree.NodeID) bool {
						evals++
						return trunc(o, i)
					}
				}
				var log truncLog
				rec := newVisitHash()
				st, _, err := in.record(nil, c.v, c.configure, &log, rec.visit)
				if err != nil {
					t.Fatal(err)
				}
				sum := in.Checksum()
				if log.n != evals || len(log.bits) != (evals+63)/64 {
					t.Errorf("%s: record holds %d answers in %d words for %d TruncInner2 evaluations", c.name, log.n, len(log.bits), evals)
				}
				if (name == "TJ" || name == "MM") && (log.n != 0 || log.bits != nil) {
					t.Errorf("%s: rectangular space logged %d answers", c.name, log.n)
				}
				rep := newVisitHash()
				rst, err := in.replay(nil, c.v, c.configure, &log, rep.visit)
				if err != nil {
					t.Fatal(err)
				}
				if rep.h != rec.h || rep.visits != rec.visits || rst != st {
					t.Errorf("%s: replay visits %d (hash %#x) stats %+v; recorded %d (hash %#x) stats %+v",
						c.name, rep.visits, rep.h, rst, rec.visits, rec.h, st)
				}
				if evals != log.n {
					t.Errorf("%s: the replay evaluated TruncInner2 (%d calls, record %d)", c.name, evals, log.n)
				}
				if got := in.Checksum(); got != sum {
					t.Errorf("%s: checksum %#x after the replay, %#x after the recorded pass", c.name, got, sum)
				}
			}
		})
	}
}

// TestFirstTouchLayoutMatchesScheduleRemaps pins the online schedule-order
// layout against the offline one: over a recorded pass, every node the
// pass touches gets the slot layout.ScheduleRemaps gives it (untouched
// nodes get none, and ScheduleRemaps puts them after every touched one),
// and the recorded pass and its replay emit the address stream of the
// offline UnderLayout instance.
func TestFirstTouchLayoutMatchesScheduleRemaps(t *testing.T) {
	for _, name := range suiteNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range steadyCases(name) {
				in, err := ByName(name, c.scale, 1)
				if err != nil {
					t.Fatal(err)
				}
				so, si, err := in.LayoutSchemes(layout.Schedule, c.v)
				if err != nil {
					t.Fatal(err)
				}
				offline := in.WithLayout(so, si)
				off := newVisitHash()
				if _, _, err := offline.record(nil, c.v, c.configure, nil, off.tracer(offline.Trace)); err != nil {
					t.Fatal(err)
				}

				lin, fo, fi := in.firstTouchLayout()
				var log truncLog
				on := newVisitHash()
				if _, _, err := lin.record(nil, c.v, c.configure, &log, on.tracer(lin.Trace)); err != nil {
					t.Fatal(err)
				}
				for _, arena := range []struct {
					side          string
					online, final layout.Remap
				}{{"outer", fo.Remap, so.Remap}, {"inner", fi.Remap, si.Remap}} {
					touched := int32(0)
					for _, slot := range arena.online {
						if slot >= 0 {
							touched++
						}
					}
					for id, slot := range arena.online {
						if slot >= 0 && slot != arena.final[id] || slot < 0 && arena.final[id] < touched {
							t.Fatalf("%s: %s node %d has online slot %d, ScheduleRemaps slot %d (%d touched)",
								c.name, arena.side, id, slot, arena.final[id], touched)
						}
					}
				}
				if on.h != off.h || on.visits != off.visits {
					t.Errorf("%s: online trace hash %#x over %d visits, offline %#x over %d", c.name, on.h, on.visits, off.h, off.visits)
				}
				rep := newVisitHash()
				if _, err := lin.replay(nil, c.v, c.configure, &log, rep.tracer(lin.Trace)); err != nil {
					t.Fatal(err)
				}
				if rep.h != off.h || rep.visits != off.visits {
					t.Errorf("%s: replayed trace hash %#x over %d visits, offline %#x over %d", c.name, rep.h, rep.visits, off.h, off.visits)
				}
			}
		})
	}
}
