package algebra

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSchedule parses a schedule expression: terms joined by the
// composition operator ∘ (ASCII alternative: "."), outermost first. Terms:
//
//	identity                  the original program order
//	interchange               recursion interchange
//	twist                     recursion twisting (asserts a regular space)
//	twist(flagged)            twisting with the Fig 6(b) flag protocol
//	stripmine(N)              the §7.1 cutoff, composed over a twist
//	inline(K)                 unroll the work-executing recursion K levels
//
// The four legacy variant names — original, interchanged (or interchange),
// twisted, twisted-cutoff[:N] — are accepted as terms and denote their
// canonical schedules (see FromVariant), so every nest.Variant.String output
// is also a valid schedule expression. The result is canonical:
// ParseSchedule(s.String()) == s for every schedule s, and whitespace around
// terms is ignored.
func ParseSchedule(src string) (Schedule, error) {
	expr := strings.TrimSpace(src)
	if expr == "" {
		return Schedule{}, fmt.Errorf("algebra: empty schedule expression")
	}
	var ops []Transformation
	for _, term := range splitTerms(expr) {
		term = strings.TrimSpace(term)
		if term == "" {
			return Schedule{}, fmt.Errorf("algebra: empty term in schedule %q", src)
		}
		termOps, err := parseTerm(term)
		if err != nil {
			return Schedule{}, err
		}
		ops = append(ops, termOps...)
	}
	return New(ops...)
}

// MustParseSchedule is ParseSchedule that panics on error, for
// statically-known expressions.
func MustParseSchedule(src string) Schedule {
	s, err := ParseSchedule(src)
	if err != nil {
		panic(err)
	}
	return s
}

// splitTerms splits a schedule expression on the composition operator,
// accepting both ∘ and the ASCII "." (empty terms are kept so the caller
// can reject dangling operators).
func splitTerms(expr string) []string {
	return strings.Split(strings.ReplaceAll(expr, "∘", "."), ".")
}

// parseTerm parses one term into the transformation chain it denotes
// (outermost first; legacy names can denote more than one op).
func parseTerm(term string) ([]Transformation, error) {
	name, arg, hasArg := term, "", false
	if k := strings.IndexByte(term, '('); k >= 0 {
		if !strings.HasSuffix(term, ")") {
			return nil, fmt.Errorf("algebra: malformed term %q (missing closing parenthesis)", term)
		}
		name, arg, hasArg = strings.TrimSpace(term[:k]), strings.TrimSpace(term[k+1:len(term)-1]), true
	}
	switch name {
	case "identity", "original":
		if hasArg {
			return nil, fmt.Errorf("algebra: %s takes no argument", name)
		}
		return nil, nil
	case "interchange", "interchanged":
		if hasArg {
			return nil, fmt.Errorf("algebra: %s takes no argument", name)
		}
		return []Transformation{Interchange{}}, nil
	case "twist":
		switch arg {
		case "":
			if hasArg {
				return nil, fmt.Errorf("algebra: twist() takes either no argument or (flagged)")
			}
			return []Transformation{CodeMotion{}}, nil
		case "flagged":
			return []Transformation{CodeMotion{Flagged: true}}, nil
		}
		return nil, fmt.Errorf("algebra: bad twist argument %q (want twist or twist(flagged))", arg)
	case "stripmine":
		if !hasArg {
			return nil, fmt.Errorf("algebra: stripmine needs a cutoff argument, e.g. stripmine(64)")
		}
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("algebra: bad stripmine cutoff %q", arg)
		}
		return []Transformation{StripMine{Cutoff: n}}, nil
	case "inline":
		if !hasArg {
			return nil, fmt.Errorf("algebra: inline needs a depth argument, e.g. inline(2)")
		}
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("algebra: bad inline depth %q", arg)
		}
		return []Transformation{Inlining{Depth: n}}, nil
	}
	// Legacy spellings that are not bare identifiers ("twisted",
	// "twisted-cutoff[:N]") are parsed here against the canonical schedules
	// FromVariant assigns them; TestLegacyTermsMatchVariantGrammar pins the
	// two grammars together so they cannot drift apart.
	if !hasArg {
		if ops, ok, err := parseLegacyTerm(name); ok {
			return ops, err
		}
	}
	return nil, fmt.Errorf("algebra: unknown term %q (want identity, interchange, twist[(flagged)], stripmine(N), inline(K), or a legacy variant name)", term)
}

// parseLegacyTerm handles the colon-argument variant spellings of
// nest.Variant.String that parseTerm's switch does not: "twisted" denotes
// twist(flagged) and "twisted-cutoff[:N]" denotes stripmine(N)∘twist(flagged)
// (N defaults to 0, the bare §7.1 guard site). ok reports whether the term is
// a legacy spelling at all; err reports a malformed argument on one that is.
func parseLegacyTerm(term string) (ops []Transformation, ok bool, err error) {
	name, arg, hasArg := strings.Cut(term, ":")
	switch name {
	case "twisted":
		if hasArg {
			return nil, true, fmt.Errorf("algebra: term %q takes no argument (use twisted-cutoff:N)", term)
		}
		return []Transformation{CodeMotion{Flagged: true}}, true, nil
	case "twisted-cutoff":
		cutoff := 0
		if hasArg {
			n, aerr := strconv.Atoi(arg)
			if aerr != nil || n < 0 {
				return nil, true, fmt.Errorf("algebra: bad cutoff %q in term %q", arg, term)
			}
			cutoff = n
		}
		return []Transformation{StripMine{Cutoff: cutoff}, CodeMotion{Flagged: true}}, true, nil
	}
	return nil, false, nil
}
