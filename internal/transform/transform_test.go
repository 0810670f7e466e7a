package transform

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twist/internal/nest"
)

// parseOK parses a template from source, failing the test on error.
func parseOK(t *testing.T, src string) *Template {
	t.Helper()
	tmpl, err := ParseFile("test.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

const regularSrc = `package p

//twist:outer
func Outer(o *Node, i *Node) {
	if o == nil {
		return
	}
	Inner(o, i)
	Outer(o.Left, i)
	Outer(o.Right, i)
}

//twist:inner
func Inner(o *Node, i *Node) {
	if i == nil {
		return
	}
	work(o, i)
	Inner(o, i.Left)
	Inner(o, i.Right)
}
`

func TestParseRegularTemplate(t *testing.T) {
	tmpl := parseOK(t, regularSrc)
	if tmpl.Irregular() {
		t.Fatal("regular template classified irregular")
	}
	if tmpl.OName != "o" || tmpl.IName != "i" {
		t.Fatalf("params %s/%s", tmpl.OName, tmpl.IName)
	}
	if len(tmpl.OuterChildren) != 2 || len(tmpl.InnerChildren) != 2 {
		t.Fatalf("children %d/%d", len(tmpl.OuterChildren), len(tmpl.InnerChildren))
	}
	if len(tmpl.Work) != 1 {
		t.Fatalf("%d work statements", len(tmpl.Work))
	}
	if tmpl.SizeFn != "subtreeSize" {
		t.Fatalf("default size fn %q", tmpl.SizeFn)
	}
}

func TestIrregularClassification(t *testing.T) {
	src := strings.Replace(regularSrc, "if i == nil {", "if i == nil || prune(o, i) || i.skip {", 1)
	tmpl := parseOK(t, src)
	if !tmpl.Irregular() {
		t.Fatal("outer-dependent truncation not detected")
	}
	// The o-free conjuncts stay in TruncInner1; the o-using one moves.
	i1 := renderNoFset(tmpl.TruncInner1)
	i2 := renderNoFset(tmpl.TruncInner2)
	if !strings.Contains(i1, "i == nil") || !strings.Contains(i1, "i.skip") {
		t.Fatalf("TruncInner1 = %s", i1)
	}
	if !strings.Contains(i2, "prune(o, i)") {
		t.Fatalf("TruncInner2 = %s", i2)
	}
}

func TestParamRenaming(t *testing.T) {
	// The inner function uses different parameter names; conditions, work,
	// and children must be rewritten to the outer names.
	src := `package p

//twist:outer
func Outer(a *Node, b *Node) {
	if a == nil {
		return
	}
	Inner(a, b)
	Outer(a.Left, b)
}

//twist:inner
func Inner(x *Node, y *Node) {
	if y == nil || x.Val > y.Val {
		return
	}
	work(x, y)
	Inner(x, y.Right)
}
`
	tmpl := parseOK(t, src)
	if got := renderNoFset(tmpl.TruncInner2); got != "a.Val > b.Val" {
		t.Fatalf("TruncInner2 = %s", got)
	}
	if got := renderNoFset(tmpl.Work[0]); got != "work(a, b)" {
		t.Fatalf("work = %s", got)
	}
	if got := renderNoFset(tmpl.InnerChildren[0]); got != "b.Right" {
		t.Fatalf("inner child = %s", got)
	}
}

func TestSelectorFieldNotRenamed(t *testing.T) {
	// A field named like a parameter must not be rewritten: x.o stays .o.
	src := `package p

//twist:outer
func Outer(a *Node, b *Node) {
	if a == nil {
		return
	}
	Inner(a, b)
	Outer(a.Left, b)
}

//twist:inner
func Inner(o *Node, i *Node) {
	if i == nil {
		return
	}
	work(o.i, i)
	Inner(o, i.Left)
}
`
	tmpl := parseOK(t, src)
	if got := renderNoFset(tmpl.Work[0]); got != "work(a.i, b)" {
		t.Fatalf("work = %s (selector field renamed?)", got)
	}
}

func TestDirectiveOptions(t *testing.T) {
	src := strings.Replace(regularSrc, "//twist:outer",
		"//twist:outer size=sz trunc=tf settrunc=stf", 1)
	tmpl := parseOK(t, src)
	if tmpl.SizeFn != "sz" || tmpl.TruncFn != "tf" || tmpl.SetTruncFn != "stf" {
		t.Fatalf("options not honored: %s/%s/%s", tmpl.SizeFn, tmpl.TruncFn, tmpl.SetTruncFn)
	}
}

// The §5 sanity check: malformed templates are rejected with a clear error.
func TestSanityCheckRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"no outer", func(s string) string { return strings.Replace(s, "//twist:outer\n", "", 1) },
			"exactly one"},
		{"no inner", func(s string) string { return strings.Replace(s, "//twist:inner\n", "", 1) },
			"exactly one"},
		{"unknown role", func(s string) string { return strings.Replace(s, "//twist:inner", "//twist:sideways", 1) },
			"unknown directive"},
		{"three params", func(s string) string {
			return strings.Replace(s, "func Outer(o *Node, i *Node)", "func Outer(o *Node, i *Node, k int)", 1)
		}, "exactly two parameters"},
		{"outer truncation uses inner index", func(s string) string {
			return strings.Replace(s, "if o == nil {", "if o == nil || i == nil {", 1)
		}, "only test the outer index"},
		{"missing inner call", func(s string) string {
			return strings.Replace(s, "\tInner(o, i)\n", "", 1)
		}, "second statement must be"},
		{"wrong fixed argument", func(s string) string {
			return strings.Replace(s, "Outer(o.Left, i)", "Outer(o.Left, i.Left)", 1)
		}, "must be"},
		{"no inner-only truncation", func(s string) string {
			return strings.Replace(s, "if i == nil {", "if prune(o, i) {", 1)
		}, "inner index alone"},
		{"work calls recursion", func(s string) string {
			return strings.Replace(s, "work(o, i)", "work(o, i); Outer(o, i)", 1)
		}, "may not call"},
		{"truncation with else", func(s string) string {
			return strings.Replace(s, "if o == nil {\n\t\treturn\n\t}", "if o == nil {\n\t\treturn\n\t} else {\n\t\twork(o, i)\n\t}", 1)
		}, "first statement must be"},
		{"descend does not move", func(s string) string {
			return strings.Replace(s, "Inner(o, i.Left)", "Inner(o, other)", 1)
		}, "does not reference"},
	}
	for _, c := range cases {
		src := c.mutate(regularSrc)
		if src == regularSrc {
			t.Fatalf("%s: mutation had no effect", c.name)
		}
		_, err := ParseFile("test.go", []byte(src))
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: error %q does not contain %q", c.name, err, c.wantErr)
		}
	}
}

func TestGenerateRegular(t *testing.T) {
	tmpl := parseOK(t, regularSrc)
	out, err := Generate(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		"func OuterSwapped(o *Node, i *Node)",
		"func InnerSwapped(o *Node, i *Node)",
		"func OuterTwisted(o *Node, i *Node)",
		"func OuterSwappedTwisted(o *Node, i *Node)",
		"func OuterTwistedCutoff(o *Node, i *Node, cutoff int)",
		"func OuterSwappedTwistedCutoff(o *Node, i *Node, cutoff int)",
		"subtreeSize(o.Left) <= subtreeSize(i)",
		"subtreeSize(i) > cutoff",
		"Code generated",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("generated code missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "unTrunc") {
		t.Fatal("regular template generated flag machinery")
	}
}

func TestGenerateIrregular(t *testing.T) {
	src := strings.Replace(regularSrc, "if i == nil {", "if i == nil || prune(o, i) {", 1)
	tmpl := parseOK(t, src)
	out, err := Generate(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		"var unTrunc []*Node",
		"setTruncFlag(o, true)",
		"setTruncFlag(n, false)",
		"func InnerTwisted(o *Node, i *Node)",
		"truncFlag(o) || (prune(o, i))",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("generated code missing %q:\n%s", want, s)
		}
	}
}

// The checked-in example corpus must be exactly what the tool generates —
// this keeps examples/transform/*_twisted.go in sync.
func TestExampleCorpusInSync(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "transform")
	for _, base := range []string{"join", "prune"} {
		src, err := os.ReadFile(filepath.Join(dir, base+".go"))
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := ParseFile(base+".go", src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, base+"_twisted.go"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Generate(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s_twisted.go out of sync with cmd/twist output; regenerate with:\n  go run ./cmd/twist -in examples/transform/%s.go", base, base)
		}
	}
}

func TestGeneratedCodeStable(t *testing.T) {
	tmpl := parseOK(t, regularSrc)
	a, err := Generate(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("generation is not deterministic")
	}
}

func TestGenerateVariantsSubsets(t *testing.T) {
	regular := parseOK(t, regularSrc)
	irregular := parseOK(t, strings.Replace(regularSrc, "if i == nil {", "if i == nil || prune(o, i) {", 1))

	// The full set must be byte-identical to Generate.
	full, err := Generate(irregular)
	if err != nil {
		t.Fatal(err)
	}
	all := []nest.Variant{nest.Interchanged(), nest.Twisted(), nest.TwistedCutoff(64)}
	if got, err := GenerateWithInline(irregular, all, nil); err != nil || string(got) != string(full) {
		t.Fatalf("full variant set differs from Generate (err %v)", err)
	}

	cases := []struct {
		name     string
		tmpl     *Template
		variants []nest.Variant
		want     []string
		absent   []string
	}{
		{
			name:     "interchanged only",
			tmpl:     regular,
			variants: []nest.Variant{nest.Interchanged()},
			want:     []string{"func OuterSwapped(", "func InnerSwapped("},
			absent:   []string{"func OuterTwisted(", "func OuterTwistedCutoff("},
		},
		{
			name:     "twisted only",
			tmpl:     regular,
			variants: []nest.Variant{nest.Twisted()},
			want:     []string{"func InnerSwapped(", "func OuterTwisted(", "func OuterSwappedTwisted("},
			absent:   []string{"func OuterSwapped(o", "func OuterTwistedCutoff("},
		},
		{
			name:     "cutoff only, irregular",
			tmpl:     irregular,
			variants: []nest.Variant{nest.TwistedCutoff(16)},
			want:     []string{"func InnerSwapped(", "func InnerTwisted(", "func OuterTwistedCutoff(", "func OuterSwappedTwistedCutoff("},
			absent:   []string{"func OuterSwapped(o", "func OuterTwisted(o", "func OuterSwappedTwisted(o"},
		},
	}
	for _, c := range cases {
		out, err := GenerateWithInline(c.tmpl, c.variants, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := string(out)
		for _, w := range c.want {
			if !strings.Contains(s, w) {
				t.Fatalf("%s: missing %q:\n%s", c.name, w, s)
			}
		}
		for _, a := range c.absent {
			if strings.Contains(s, a) {
				t.Fatalf("%s: unexpectedly contains %q:\n%s", c.name, a, s)
			}
		}
	}

	if _, err := GenerateWithInline(regular, []nest.Variant{nest.Original()}, nil); err == nil {
		t.Fatal("original accepted as a generation target")
	}
}
