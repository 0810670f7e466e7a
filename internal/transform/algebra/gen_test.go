package algebra

import (
	"bytes"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twist/internal/nest"
	"twist/internal/transform"
)

// The four legacy variants expressed as schedules must generate code
// byte-identical to the enum-driven generator — the redesign changes the
// API, not one byte of output.
func TestGenerateSchedulesByteIdentity(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name, guard string
	}{
		{"regular", "i == nil"},
		{"irregular", "i == nil || prune(o, i)"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tmpl := parseTemplate(t, templateSrc(tc.guard, "work(o, i)"))
			legacy, err := transform.Generate(tmpl)
			if err != nil {
				t.Fatal(err)
			}

			// Default invocation: nil schedules means the legacy families.
			got, err := GenerateSchedules(tmpl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, legacy) {
				t.Error("GenerateSchedules(nil) differs from transform.Generate")
			}

			// The same families spelled as schedule expressions.
			scheds := []Schedule{
				MustParseSchedule("interchanged"),
				MustParseSchedule("twisted"),
				MustParseSchedule("twisted-cutoff"),
			}
			got, err = GenerateSchedules(tmpl, scheds)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, legacy) {
				t.Error("GenerateSchedules(legacy schedules) differs from transform.Generate")
			}

			// And per-variant: each schedule alone matches the family
			// generated directly.
			for _, s := range scheds {
				want, err := transform.GenerateWithInline(tmpl, []nest.Variant{s.Variant()}, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := GenerateSchedules(tmpl, []Schedule{s})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("GenerateSchedules(%v) differs from GenerateWithInline(%v)", s, s.Variant())
				}
			}
		})
	}
}

// Inline schedules emit Inline-suffixed drivers that parse and contain the
// unrolled work at the requested depth.
func TestGenerateSchedulesInline(t *testing.T) {
	t.Parallel()
	tmpl := parseTemplate(t, templateSrc("i == nil", "work(o, i)"))
	out, err := GenerateSchedules(tmpl, []Schedule{MustParseSchedule("inline(2)∘twist(flagged)")})
	if err != nil {
		t.Fatal(err)
	}
	src := string(out)
	for _, want := range []string{"OuterTwistedInline2", "InnerInline2", "work(o, i)"} {
		if !strings.Contains(src, want) {
			t.Errorf("inline output missing %q", want)
		}
	}
	// Depth 2 unrolls the binary inner recursion into 4 leaf recursive calls
	// per driver body; the work call appears at every unrolled level.
	if n := strings.Count(src, "work(o, i)"); n < 3 {
		t.Errorf("inline(2) output has %d work sites, want >= 3", n)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "gen.go", out, 0); err != nil {
		t.Fatalf("inline output does not parse: %v", err)
	}

	// Mixing legacy and inline schedules keeps the legacy text intact.
	mixed, err := GenerateSchedules(tmpl, []Schedule{
		MustParseSchedule("twisted"),
		MustParseSchedule("inline(1)∘interchange"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OuterTwisted(", "OuterSwappedInline1"} {
		if !strings.Contains(string(mixed), want) {
			t.Errorf("mixed output missing %q", want)
		}
	}
}

// The identity schedule is rejected — the input template is already that
// schedule — and illegal schedules return the concrete *Violation.
func TestGenerateSchedulesRejections(t *testing.T) {
	t.Parallel()
	regular := parseTemplate(t, templateSrc("i == nil", "work(o, i)"))
	if _, err := GenerateSchedules(regular, []Schedule{Identity()}); err == nil {
		t.Error("identity schedule accepted")
	} else if !strings.Contains(err.Error(), "nothing to generate") {
		t.Errorf("identity rejection %q", err)
	}

	irregular := parseTemplate(t, templateSrc("i == nil || prune(o, i)", "work(o, i)"))
	_, err := GenerateSchedules(irregular, []Schedule{MustParseSchedule("twist")})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("illegal schedule error %v is not a *Violation", err)
	}
	if v.Witness.Kind != WitnessOuterTrunc {
		t.Errorf("violation witness %v, want OuterTrunc", v.Witness.Kind)
	}

	// Inlining on an irregular template is a generator limitation surfaced
	// as an error (unrolling through the flag protocol is not implemented).
	if _, err := GenerateSchedules(irregular, []Schedule{MustParseSchedule("inline(1)∘twist(flagged)")}); err == nil {
		t.Error("inline on irregular template accepted")
	}
}

// The committed example corpus includes one schedule-expression product:
// examples/transform/join_inline.go must stay in sync with what
// GenerateSchedules emits for inline(2)∘twist(flagged) — the algebra
// counterpart of the transform package's TestExampleCorpusInSync.
func TestExampleInlineCorpusInSync(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("..", "..", "..", "examples", "transform")
	src, err := os.ReadFile(filepath.Join(dir, "join.go"))
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := transform.ParseFile("join.go", src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateSchedules(tmpl, []Schedule{MustParseSchedule("inline(2)∘twist(flagged)")})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "join_inline.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("join_inline.go out of sync with cmd/twist output; regenerate with:\n  go run ./cmd/twist -in examples/transform/join.go -out examples/transform/join_inline.go -schedules 'inline(2)∘twist(flagged)'")
	}
}
