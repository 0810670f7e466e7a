package workloads

import (
	"fmt"
	"slices"
	"testing"

	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/oracle"
	"twist/internal/tree"
)

// runTraced executes the instance's traced spec under v, returning the
// visit sequence in execution order, the number of addresses emitted, and a
// digest of the address stream.
func runTraced(in *Instance, v nest.Variant) (seq []oracle.Visit, addrs int64, addrDigest uint64) {
	addrDigest = 14695981039346656037
	spec := in.TracedSpec(func(a memsim.Addr) {
		addrs++
		addrDigest = mix(addrDigest, uint64(a))
	})
	work := spec.Work
	spec.Work = func(o, i tree.NodeID) {
		seq = append(seq, oracle.Visit{O: o, I: i})
		work(o, i)
	}
	nest.MustNew(spec).Run(v)
	return seq, addrs, addrDigest
}

// TestLayoutTraversalDigestInvariant is the acceptance gate of the layout
// subsystem: across every layout, every workload's traversal under a given
// schedule visits the identical (o, i) sequence, computes the identical
// checksum, and emits the same number of simulated accesses — a layout
// renames storage slots and nothing else. Only the address *values* may
// change, and for the build-order layout not even those (the wrapped
// instance must be the original instance).
func TestLayoutTraversalDigestInvariant(t *testing.T) {
	const scale, seed = 256, 11
	for k, name := range suiteNames {
		k, name := k, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := Suite(scale, seed)[k]
			for _, v := range []nest.Variant{nest.Original(), nest.Twisted(), nest.TwistedCutoff(64)} {
				type ref struct {
					visitDigest uint64
					checksum    uint64
					addrs       int64
					addrDigest  uint64
				}
				var base ref
				for _, kind := range layout.Kinds() {
					lin, err := in.UnderLayout(kind, v)
					if err != nil {
						t.Fatalf("%v/%v: %v", v, kind, err)
					}
					if kind == layout.BuildOrder && lin != in {
						t.Fatalf("%v: build-order layout did not return the instance unchanged", v)
					}
					in.Reset()
					seq, addrs, addrDigest := runTraced(lin, v)
					got := ref{
						visitDigest: oracle.FromSequence(seq).Digest(),
						checksum:    in.Checksum(),
						addrs:       addrs,
						addrDigest:  addrDigest,
					}
					if kind == layout.BuildOrder {
						base = got
						continue
					}
					if got.visitDigest != base.visitDigest {
						t.Errorf("%v/%v: visit digest %x != buildorder %x", v, kind, got.visitDigest, base.visitDigest)
					}
					if got.checksum != base.checksum {
						t.Errorf("%v/%v: checksum %x != buildorder %x", v, kind, got.checksum, base.checksum)
					}
					if got.addrs != base.addrs {
						t.Errorf("%v/%v: %d addresses != buildorder %d", v, kind, got.addrs, base.addrs)
					}
					// The node regions of TJ and the dual-tree benchmarks are
					// repacked, so their address streams must differ from the
					// legacy model under every non-identity scheme; MM traces
					// only matrix data, which layouts never touch.
					if name != "MM" && got.addrDigest == base.addrDigest {
						t.Errorf("%v/%v: address stream identical to buildorder; layout had no effect", v, kind)
					}
					if name == "MM" && got.addrDigest != base.addrDigest {
						t.Errorf("%v/%v: MM address stream changed; layouts must not touch matrix data", v, kind)
					}
				}
			}
		})
	}
}

// TestLayoutOracleInvariance checks the layouts against the semantic
// oracle: a golden trace captured from the (layout-free) baseline schedule
// verdicts the visit sequence of every layouted run, for every workload ×
// schedule × layout — permutation equivalence is decided by the traversal
// alone, so the verdict cannot depend on the layout.
func TestLayoutOracleInvariance(t *testing.T) {
	const scale, seed = 256, 11
	for k, name := range suiteNames {
		k, name := k, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := Suite(scale, seed)[k]
			spec := in.OracleSpec() // converged pruning state; see OracleSpec
			g, err := oracle.Capture(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []nest.Variant{nest.Original(), nest.Interchanged(), nest.Twisted()} {
				for _, kind := range layout.Kinds() {
					// Build schemes on a copy of the converged spec with Work
					// stripped: first-touch recording must not mutate pruning
					// state either (one baseline run is not a fixpoint for the
					// KNN heaps).
					frozen := spec
					frozen.Work = func(o, i tree.NodeID) {}
					outer, inner, err := layout.Schemes(kind, frozen, v)
					if err != nil {
						t.Fatalf("%v/%v: %v", v, kind, err)
					}
					lin := in.WithLayout(outer, inner)
					// Replay the layouted trace but do not execute Work: the
					// oracle's premise is that checks never mutate pruning
					// state (see OracleSpec), and the layout wrapper still
					// runs on every visit.
					var seq []oracle.Visit
					var buf []memsim.Addr
					s := lin.Spec
					s.Work = func(o, i tree.NodeID) {
						buf = lin.Trace(o, i, buf[:0])
						seq = append(seq, oracle.Visit{O: o, I: i})
					}
					nest.MustNew(s).Run(v)
					label := fmt.Sprintf("%s/%v/layout=%v", name, v, kind)
					if vd := g.CheckSequence(label, seq); !vd.OK {
						t.Fatalf("%s: %v", label, vd)
					}
				}
			}
		})
	}
}

// TestWithLayoutRemapsRegions pins the address arithmetic: under a
// reordering scheme, a node access lands at base + remap[id]*stride within
// the same region, and data accesses are untouched. Only the appended tail
// is rewritten: addresses already in the caller's buffer stay as they are.
func TestWithLayoutRemapsRegions(t *testing.T) {
	in := TreeJoin(64, 1)
	outer, inner, err := in.LayoutSchemes(layout.VEB, nest.Original())
	if err != nil {
		t.Fatal(err)
	}
	lin := in.WithLayout(outer, inner)
	o, i := in.Spec.Outer.Root(), in.Spec.Inner.Root()
	prefix := baseOuterNodes + 5*nodeStride
	got := lin.Trace(o, i, []memsim.Addr{prefix})
	want := []memsim.Addr{
		prefix,
		baseInnerNodes + memsim.Addr(inner.Offset(i)),
		baseOuterNodes + memsim.Addr(outer.Offset(o)),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}
