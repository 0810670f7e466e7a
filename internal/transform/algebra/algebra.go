// Package algebra is the composable schedule algebra over the nested
// recursion template: the general form of the paper's fixed schedule menu,
// after "Composable, Sound Transformations of Nested Recursion and Loops"
// (PolyRec, PLDI 2019).
//
// The unit of composition is a Transformation — CodeMotion (recursion
// twisting), Interchange, StripMine (the §7.1 cutoff), and Inlining — and a
// Schedule is a composition of transformations, written outermost first with
// the ∘ operator, e.g.
//
//	inline(2)∘stripmine(64)∘twist(flagged)
//
// Compose normalizes every composition into a canonical form
//
//	[inline(k) ∘] [stripmine(c) ∘] core
//
// with core one of identity, interchange, twist, or twist(flagged); the
// normalization rules (see apply) make composition associative, which
// Compose verifies on each call. ParseSchedule and Schedule.String
// round-trip the canonical form and also accept the four legacy variant
// names, each of which is exactly one canonical schedule:
//
//	original          = identity
//	interchanged      = interchange
//	twisted           = twist(flagged)
//	twisted-cutoff:N  = stripmine(N)∘twist(flagged)
//
// Legality is checked against dependence witnesses (see WitnessSet): a
// rejected composition returns the violated witness, not just false, and
// Complete enumerates every legal completion of a partial schedule.
// Schedules with no Inlining lower exactly onto the engine's nest.Variant
// (Schedule.Variant); Inlining changes generated code only
// (GenerateSchedules), never the visit order.
package algebra

import (
	"fmt"
	"math"
	"strings"

	"twist/internal/nest"
)

// MaxInlineDepth bounds the total Inlining depth of a schedule: unrolling
// the inner recursion k levels multiplies the generated work body 2^k-fold,
// so the algebra refuses depths with no plausible payoff.
const MaxInlineDepth = 8

// Transformation is one schedulable rewrite of the nested recursion. The
// concrete types are CodeMotion, Interchange, StripMine, and Inlining; the
// set is closed (sealed by isTransformation), which is what lets the
// normalizer enumerate every composition shape.
type Transformation interface {
	fmt.Stringer
	isTransformation()
}

// Interchange is recursion interchange (paper §3, Fig 3): the outer
// recursion traverses the inner tree and vice versa, turning the
// column-by-column schedule row-by-row. Interchange is an involution —
// interchange∘interchange = identity — and is absorbed by CodeMotion, which
// already re-decides orientation at every step.
type Interchange struct{}

func (Interchange) String() string    { return "interchange" }
func (Interchange) isTransformation() {}

// CodeMotion is recursion twisting (paper §4, Fig 4a): the code-motion
// transformation that switches orientation whenever the remaining outer
// subtree is no larger than the tree held by the inner recursion. Flagged
// composes the Fig 6(b) truncation-flag protocol over the twist; a plain
// (unflagged) twist asserts the iteration space is regular and is illegal —
// with an OuterTrunc witness — when the inner truncation depends on the
// outer index.
type CodeMotion struct {
	// Flagged enables the truncation-flag protocol for irregular spaces.
	Flagged bool
}

func (c CodeMotion) String() string {
	if c.Flagged {
		return "twist(flagged)"
	}
	return "twist"
}
func (CodeMotion) isTransformation() {}

// StripMine bounds a twist with the §7.1 cutoff: orientation only switches
// while the inner recursion's tree is larger than Cutoff, shedding
// bookkeeping on the small-subproblem fringe. StripMine is only meaningful
// over a CodeMotion core — composing it over identity or interchange is a
// structural error — and two strip mines merge to the larger cutoff.
type StripMine struct {
	// Cutoff is the inner-subtree size below which twisting stops (>= 0).
	Cutoff int
}

func (s StripMine) String() string  { return fmt.Sprintf("stripmine(%d)", s.Cutoff) }
func (StripMine) isTransformation() {}

// Inlining unrolls the recursion that executes the work Depth levels per
// call, amortizing call and truncation-test overhead. It is a pure
// code-generation transformation: the visit order — and therefore the
// engine lowering Schedule.Variant — is unchanged, so Inlining is always
// legal. Depths of consecutive inlinings add.
type Inlining struct {
	// Depth is the number of unrolled levels, 1..MaxInlineDepth.
	Depth int
}

func (i Inlining) String() string  { return fmt.Sprintf("inline(%d)", i.Depth) }
func (Inlining) isTransformation() {}

// coreKind is the reordering core of a canonical schedule.
type coreKind int8

const (
	coreIdentity coreKind = iota
	coreInterchange
	coreTwist
)

// Schedule is a normalized composition of transformations. The zero value
// is the identity schedule; values are comparable, and two schedules are
// equal exactly when they denote the same canonical composition. Build one
// with New, Compose, ParseSchedule, or FromVariant.
type Schedule struct {
	core    coreKind
	flagged bool  // coreTwist: the Fig 6(b) flag protocol is composed over the twist
	strip   bool  // coreTwist: a StripMine bounds the twist
	cutoff  int32 // strip: the merged (maximum) cutoff
	inline  int32 // total Inlining depth (0 = none)
}

// Identity returns the identity schedule (the original program order).
func Identity() Schedule { return Schedule{} }

// New builds the canonical schedule denoted by the composition
// ops[0]∘ops[1]∘…∘ops[n-1] (outermost first: the last op applies first).
// It returns a structural error — distinct from a legality Violation — when
// the chain is malformed: a StripMine with no CodeMotion under it, an
// Inlining depth outside 1..MaxInlineDepth, or a cutoff outside 0..2^31-1.
func New(ops ...Transformation) (Schedule, error) {
	s := Schedule{}
	for k := len(ops) - 1; k >= 0; k-- {
		var err error
		if s, err = s.apply(ops[k]); err != nil {
			return Schedule{}, err
		}
	}
	return s, nil
}

// MustNew is New that panics on error, for statically-known compositions.
func MustNew(ops ...Transformation) Schedule {
	s, err := New(ops...)
	if err != nil {
		panic(err)
	}
	return s
}

// apply composes op over (outside) the already-built schedule s,
// normalizing as it goes. The rules:
//
//   - interchange toggles identity↔interchange and is absorbed by a twist
//     core (twisting re-decides orientation at every recursive step, with
//     the entry orientation pinned to the template's, so composing a fixed
//     orientation flip over it denotes the same schedule);
//   - twist replaces either orientation core, and flaggedness is sticky:
//     once any twist in the chain carries the flag protocol, the canonical
//     form does;
//   - stripmine requires a twist core and merges by maximum cutoff;
//   - inline depths add, bounded by MaxInlineDepth.
func (s Schedule) apply(op Transformation) (Schedule, error) {
	switch t := op.(type) {
	case Interchange:
		if s.core == coreTwist {
			return s, nil // absorbed
		}
		if s.core == coreInterchange {
			s.core = coreIdentity
		} else {
			s.core = coreInterchange
		}
	case CodeMotion:
		s.core = coreTwist
		s.flagged = s.flagged || t.Flagged
	case StripMine:
		if t.Cutoff < 0 || t.Cutoff > math.MaxInt32 {
			return Schedule{}, fmt.Errorf("algebra: stripmine cutoff %d out of range 0..%d", t.Cutoff, math.MaxInt32)
		}
		if s.core != coreTwist {
			return Schedule{}, fmt.Errorf("algebra: %v must compose over a twist core (it bounds the twist's orientation switching); compose it over twist or twist(flagged)", t)
		}
		s.strip = true
		if int32(t.Cutoff) > s.cutoff {
			s.cutoff = int32(t.Cutoff)
		}
	case Inlining:
		if t.Depth < 1 || t.Depth > MaxInlineDepth {
			return Schedule{}, fmt.Errorf("algebra: inline depth %d out of range 1..%d", t.Depth, MaxInlineDepth)
		}
		if int(s.inline)+t.Depth > MaxInlineDepth {
			return Schedule{}, fmt.Errorf("algebra: total inline depth %d exceeds the limit %d", int(s.inline)+t.Depth, MaxInlineDepth)
		}
		s.inline += int32(t.Depth)
	default:
		return Schedule{}, fmt.Errorf("algebra: unknown transformation %T", op)
	}
	return s, nil
}

// Compose returns the composition parts[0]∘parts[1]∘…∘parts[n-1] (outermost
// first). Normalization makes composition associative; Compose checks the
// law on its operands — folding the parts left- and right-associated must
// produce the same canonical schedule — and reports an internal error if
// the normalizer ever breaks it. Structural errors (e.g. a part-boundary
// StripMine landing on a non-twist core) surface like New's.
func Compose(parts ...Schedule) (Schedule, error) {
	if len(parts) == 0 {
		return Schedule{}, nil
	}
	pair := func(a, b Schedule) (Schedule, error) {
		return New(append(a.Ops(), b.Ops()...)...)
	}
	// Left-associated fold: ((p0∘p1)∘p2)∘…
	left := parts[0]
	for _, p := range parts[1:] {
		var err error
		if left, err = pair(left, p); err != nil {
			return Schedule{}, err
		}
	}
	// Right-associated fold: p0∘(p1∘(p2∘…)).
	right := parts[len(parts)-1]
	for k := len(parts) - 2; k >= 0; k-- {
		var err error
		if right, err = pair(parts[k], right); err != nil {
			return Schedule{}, err
		}
	}
	if left != right {
		return Schedule{}, fmt.Errorf("algebra: composition is not associative: %v vs %v (normalizer bug)", left, right)
	}
	return left, nil
}

// Ops returns the canonical transformation chain, outermost first:
// [Inlining,] [StripMine,] core. The identity schedule returns nil.
// New(s.Ops()...) reproduces s exactly.
func (s Schedule) Ops() []Transformation {
	var ops []Transformation
	if s.inline > 0 {
		ops = append(ops, Inlining{Depth: int(s.inline)})
	}
	if s.strip {
		ops = append(ops, StripMine{Cutoff: int(s.cutoff)})
	}
	switch s.core {
	case coreInterchange:
		ops = append(ops, Interchange{})
	case coreTwist:
		ops = append(ops, CodeMotion{Flagged: s.flagged})
	}
	return ops
}

// String renders the canonical form, terms joined by ∘ and outermost first;
// the identity schedule prints as "identity". The output round-trips
// through ParseSchedule.
func (s Schedule) String() string {
	ops := s.Ops()
	if len(ops) == 0 {
		return "identity"
	}
	parts := make([]string, len(ops))
	for k, op := range ops {
		parts[k] = op.String()
	}
	return strings.Join(parts, "∘")
}

// InlineDepth reports the schedule's total Inlining depth (0 = none).
func (s Schedule) InlineDepth() int { return int(s.inline) }

// Variant lowers the schedule onto the engine's four canonical schedules.
// Inlining is dropped: it changes generated code, not the visit order, so
// the lowering is exact for engine purposes. The mapping is the inverse of
// FromVariant on inline-free schedules.
func (s Schedule) Variant() nest.Variant {
	switch {
	case s.core == coreTwist && s.strip:
		return nest.TwistedCutoff(int(s.cutoff))
	case s.core == coreTwist:
		return nest.Twisted()
	case s.core == coreInterchange:
		return nest.Interchanged()
	}
	return nest.Original()
}

// FromVariant expresses a legacy engine variant as its canonical schedule:
// original = identity, interchanged = interchange, twisted = twist(flagged),
// twisted-cutoff:N = stripmine(N)∘twist(flagged). The engine variants always
// carry the truncation-flag protocol on irregular spaces, which is why the
// twisting variants map to the flagged twist.
func FromVariant(v nest.Variant) (Schedule, error) {
	switch v.Kind {
	case nest.KindOriginal:
		return Schedule{}, nil
	case nest.KindInterchanged:
		return Schedule{core: coreInterchange}, nil
	case nest.KindTwisted:
		return Schedule{core: coreTwist, flagged: true}, nil
	case nest.KindTwistedCutoff:
		return Schedule{core: coreTwist, flagged: true, strip: true, cutoff: v.Cutoff}, nil
	}
	return Schedule{}, fmt.Errorf("algebra: unknown variant kind %d", v.Kind)
}
