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
		remapNodes(buf[n:], om, im)
		return buf
	}
	return &cp
}

// firstTouchLayout returns a copy of the instance under the schedule-order
// layout realized online, with the outer and inner slot tables its Trace
// fills: the first visit that touches a node gives it the next slot of its
// arena (layout.FirstTouch), and its addresses follow at once, because a
// slot never changes after its first touch. Over one sequential run under a
// variant v it therefore emits exactly the trace of
// UnderLayout(layout.Schedule, v), without UnderLayout's recording run. The
// returned Trace is stateful: it is for one sequential run on one goroutine
// (a RunSteady call, or one RunEmit or RunSink pass), never for a parallel
// trace or for a second run under another variant.
func (in *Instance) firstTouchLayout() (lin *Instance, outer, inner *layout.FirstTouch) {
	fo := layout.NewFirstTouch(in.Spec.Outer.Len())
	fi := layout.NewFirstTouch(in.Spec.Inner.Len())
	stride := memsim.Addr(layout.Schedule.Stride())
	om := memsim.Remapper{Base: baseOuterNodes, Stride: stride, Perm: fo.Remap}
	im := memsim.Remapper{Base: baseInnerNodes, Stride: stride, Perm: fi.Remap}
	trace := in.Trace
	cp := *in
	cp.Trace = func(o, i tree.NodeID, buf []memsim.Addr) []memsim.Addr {
		fo.Touch(o)
		fi.Touch(i)
		n := len(buf)
		buf = trace(o, i, buf)
		remapNodes(buf[n:], om, im)
		return buf
	}
	return &cp, fo, fi
}

// remapNodes rewrites, in place, the node accesses among as (the outer and
// inner node arenas) to their addresses under om and im.
func remapNodes(as []memsim.Addr, om, im memsim.Remapper) {
	for k, a := range as {
		switch {
		case a >= baseOuterNodes && a < baseInnerNodes:
			as[k] = om.Addr(int32((a - baseOuterNodes) / nodeStride))
		case a >= baseInnerNodes && a < baseOuterData:
			as[k] = im.Addr(int32((a - baseInnerNodes) / nodeStride))
		}
	}
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

// SequentialLayout is UnderLayout for one sequential traced run under v:
// the schedule-order layout is realized online, as the run first touches
// each node, so no recording run precedes the traced pass, and the
// returned instance's Trace is stateful (see firstTouchLayout); every other
// kind depends only on the topologies and is UnderLayout's.
func (in *Instance) SequentialLayout(k layout.Kind, v nest.Variant) (*Instance, error) {
	if k == layout.Schedule {
		lin, _, _ := in.firstTouchLayout()
		return lin, nil
	}
	return in.UnderLayout(k, v)
}
