package algebra

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"twist/internal/nest"
)

func TestParseSchedule(t *testing.T) {
	t.Parallel()
	cases := []struct {
		src  string
		want string
	}{
		{"identity", "identity"},
		{"  identity  ", "identity"},
		{"interchange", "interchange"},
		{"twist", "twist"},
		{"twist(flagged)", "twist(flagged)"},
		{"stripmine(64)∘twist(flagged)", "stripmine(64)∘twist(flagged)"},
		{"inline(2)∘stripmine(64)∘twist(flagged)", "inline(2)∘stripmine(64)∘twist(flagged)"},
		// Non-canonical compositions normalize.
		{"interchange∘interchange", "identity"},
		{"interchange∘twist(flagged)", "twist(flagged)"},
		{"twist∘twist(flagged)", "twist(flagged)"},
		{"inline(1)∘inline(1)", "inline(2)"},
		{"stripmine(8)∘stripmine(64)∘twist", "stripmine(64)∘twist"},
		// ASCII composition operator and whitespace.
		{"interchange.twist(flagged)", "twist(flagged)"},
		{"inline(2) ∘ twist(flagged)", "inline(2)∘twist(flagged)"},
		{"stripmine( 64 )∘twist", "stripmine(64)∘twist"},
		// Legacy variant names are schedule expressions too.
		{"original", "identity"},
		{"interchanged", "interchange"},
		{"twisted", "twist(flagged)"},
		{"twisted-cutoff", "stripmine(0)∘twist(flagged)"},
		{"twisted-cutoff:64", "stripmine(64)∘twist(flagged)"},
		{"inline(1)∘twisted", "inline(1)∘twist(flagged)"},
	}
	for _, c := range cases {
		s, err := ParseSchedule(c.src)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", c.src, err)
			continue
		}
		if got := s.String(); got != c.want {
			t.Errorf("ParseSchedule(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		src     string
		wantSub string
	}{
		{"", "empty schedule expression"},
		{"   ", "empty schedule expression"},
		{"twist∘", "empty term"},
		{"∘twist", "empty term"},
		{"twist∘∘twist", "empty term"},
		{"frobnicate", "unknown term"},
		{"twist(flagged", "missing closing parenthesis"},
		{"twist(bogus)", "bad twist argument"},
		{"identity(x)", "takes no argument"},
		{"interchange(x)", "takes no argument"},
		{"stripmine", "needs a cutoff argument"},
		{"stripmine(x)", "bad stripmine cutoff"},
		{"stripmine(-1)∘twist", "out of range"},
		{"stripmine(64)", "must compose over a twist core"},
		{"stripmine(64)∘interchange", "must compose over a twist core"},
		{"inline", "needs a depth argument"},
		{"inline(x)", "bad inline depth"},
		{"inline(0)", "out of range"},
		{"inline(9)", "out of range"},
		{"inline(5)∘inline(5)", "exceeds the limit"},
	}
	for _, c := range cases {
		_, err := ParseSchedule(c.src)
		if err == nil {
			t.Errorf("ParseSchedule(%q) unexpectedly succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSchedule(%q) error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

// randomSchedule draws a uniformly-shaped canonical schedule; shared by the
// quick-check round-trip and the oracle differential test.
func randomSchedule(rng *rand.Rand) Schedule {
	s := Schedule{core: coreKind(rng.Intn(3))}
	if s.core == coreTwist {
		s.flagged = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			s.strip = true
			s.cutoff = int32(rng.Intn(256))
		}
	}
	s.inline = int32(rng.Intn(MaxInlineDepth + 1))
	return s
}

// Quick-check: every canonical schedule round-trips through its String
// rendering (the grammar analogue of nest's TestQuickVariantRoundTrip).
func TestQuickScheduleRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	prop := func() bool {
		s := randomSchedule(rng)
		rt, err := ParseSchedule(s.String())
		return err == nil && rt == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The ∘ and ASCII "." spellings of the same expression parse identically.
func TestQuickOperatorEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	prop := func() bool {
		s := randomSchedule(rng)
		ascii := strings.ReplaceAll(s.String(), "∘", ".")
		rt, err := ParseSchedule(ascii)
		return err == nil && rt == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// parseLegacyTerm owns the colon-argument variant spellings, so this test
// pins the variant-name grammar: every nest.Variant prints to a term that
// parses back to FromVariant's canonical schedule and lowers back to the
// variant, the aliases resolve, and malformed or out-of-range arguments are
// rejected.
func TestLegacyTermsMatchVariantGrammar(t *testing.T) {
	t.Parallel()
	variants := []nest.Variant{
		nest.Original(),
		nest.Interchanged(),
		nest.Twisted(),
		nest.TwistedCutoff(0),
		nest.TwistedCutoff(64),
	}
	for _, v := range variants {
		want, err := FromVariant(v)
		if err != nil {
			t.Fatalf("FromVariant(%v): %v", v, err)
		}
		got, err := ParseSchedule(v.String())
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", v.String(), err)
			continue
		}
		if got != want {
			t.Errorf("ParseSchedule(%q) = %v, want %v", v.String(), got, want)
		}
	}
	// Every representable variant round-trips through its name, not just
	// the fixed cases above. Non-cutoff kinds carry Cutoff 0 by
	// construction, which is what makes the representation canonical.
	roundTrip := func(kind uint8, cutoff uint32) bool {
		v := nest.Variant{Kind: nest.VariantKind(kind % 4)}
		if v.Kind == nest.KindTwistedCutoff {
			v.Cutoff = int32(cutoff % math.MaxInt32)
		}
		s, err := ParseSchedule(v.String())
		return err == nil && s.Variant() == v
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for src, want := range map[string]nest.Variant{
		"interchange":    nest.Interchanged(),
		"twisted-cutoff": nest.TwistedCutoff(0),
	} {
		if s, err := ParseSchedule(src); err != nil || s.Variant() != want {
			t.Errorf("ParseSchedule(%q) = %v, %v; want %v", src, s, err, want)
		}
	}
	for _, src := range []string{
		"twisted:3", "twisted-cutoff:x", "twisted-cutoff:-1",
		"original:1", "twisted-cutoff:2147483648",
	} {
		if _, err := ParseSchedule(src); err == nil {
			t.Errorf("ParseSchedule(%q) unexpectedly succeeded", src)
		}
	}
}

func TestMustParseSchedulePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseSchedule on a bad expression did not panic")
		}
	}()
	MustParseSchedule("frobnicate")
}
