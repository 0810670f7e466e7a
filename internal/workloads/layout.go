package workloads

import (
	"twist/internal/layout"
	"twist/internal/memsim"
	"twist/internal/nest"
	"twist/internal/tree"
)

// LayoutSchemes realizes layout kind k for this instance's two arenas. The
// schedule-order kind records first-touch order by running the instance
// under v from a freshly Reset state (the same state the measured warmup
// run starts from), and Resets again afterwards so the recording leaves no
// trace in the workload's accumulators; every other kind depends only on
// the topologies. First-touch order is deterministic for a fixed instance
// and variant, so the layout — and every miss-rate signal measured under
// it — is reproducible.
func (in *Instance) LayoutSchemes(k layout.Kind, v nest.Variant) (outer, inner layout.Scheme, err error) {
	if k == layout.Schedule {
		in.Reset()
		defer in.Reset()
	}
	return layout.Schemes(k, in.Spec, v)
}

// WithLayout returns a copy of the instance whose Trace generates node
// addresses under the given per-arena layout schemes: an emitted node
// access Base + id*64 is rewritten to the node's packed hot-record address
// (memsim.Remapper), while point-data and matrix accesses pass through
// untouched — hot/cold splitting moves only the traversal-hot record, and
// the cold payload arena is never touched by the traversal. Identity
// schemes return the instance unchanged, byte-for-byte preserving every
// pre-layout trace. Only addresses change: the traversal, checksum, and
// operation counts are those of the underlying instance, which is why
// oracle verdicts and result digests are layout-invariant.
func (in *Instance) WithLayout(outer, inner layout.Scheme) *Instance {
	if outer.Identity() && inner.Identity() {
		return in
	}
	om := memsim.Remapper{Base: baseOuterNodes, Stride: memsim.Addr(outer.StrideBytes()), Perm: outer.Remap}
	im := memsim.Remapper{Base: baseInnerNodes, Stride: memsim.Addr(inner.StrideBytes()), Perm: inner.Remap}
	trace := in.Trace
	cp := *in
	cp.Trace = func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr {
		n := len(buf)
		buf = trace(o, i, buf)
		for k, a := range buf[n:] {
			switch {
			case a >= baseOuterNodes && a < baseInnerNodes:
				buf[n+k] = om.Addr(int32((a - baseOuterNodes) / nodeStride))
			case a >= baseInnerNodes && a < baseOuterData:
				buf[n+k] = im.Addr(int32((a - baseInnerNodes) / nodeStride))
			}
		}
		return buf
	}
	return &cp
}

// UnderLayout is LayoutSchemes followed by WithLayout: the instance with
// its node addresses generated under layout k as realized for schedule
// variant v.
func (in *Instance) UnderLayout(k layout.Kind, v nest.Variant) (*Instance, error) {
	outer, inner, err := in.LayoutSchemes(k, v)
	if err != nil {
		return nil, err
	}
	return in.WithLayout(outer, inner), nil
}
