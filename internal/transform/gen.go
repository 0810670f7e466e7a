package transform

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"sort"
	"strings"

	"twist/internal/nest"
)

// render pretty-prints an AST node.
func render(fset *token.FileSet, n ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, n); err != nil {
		panic(err)
	}
	return b.String()
}

func renderNoFset(n ast.Node) string { return render(token.NewFileSet(), n) }

// renameIdents returns a copy of expression e with free identifiers renamed
// per the map. Copying goes through print+reparse, which keeps the
// implementation independent of the AST's many node types.
func renameIdents(e ast.Expr, rename map[string]string) ast.Expr {
	src := renderNoFset(e)
	ne, err := parser.ParseExpr(src)
	if err != nil {
		panic(fmt.Sprintf("transform: reparse %q: %v", src, err))
	}
	applyRename(ne, rename)
	return ne
}

// renameIdentsStmt is renameIdents for a statement.
func renameIdentsStmt(st ast.Stmt, rename map[string]string) ast.Stmt {
	src := "package p\nfunc _() {\n" + renderNoFset(st) + "\n}"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "stmt.go", src, 0)
	if err != nil {
		panic(fmt.Sprintf("transform: reparse stmt: %v", err))
	}
	body := f.Decls[0].(*ast.FuncDecl).Body.List
	if len(body) != 1 {
		panic("transform: statement reparse produced multiple statements")
	}
	applyRename(body[0], rename)
	return body[0]
}

// applyRename renames identifiers in place, skipping selector field names.
func applyRename(n ast.Node, rename map[string]string) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.SelectorExpr:
			applyRename(v.X, rename)
			return false
		case *ast.Ident:
			if nn, ok := rename[v.Name]; ok {
				v.Name = nn
			}
		}
		return true
	})
}

// Generate synthesizes the transformed schedules for the template: recursion
// interchange (Fig 3), parameterless recursion twisting (Fig 4a), twisting
// with a cutoff (§7.1), and — for templates with irregular truncation — the
// truncation-flag code of Fig 6(b). The result is a complete Go source file
// in the template's package.
func Generate(t *Template) ([]byte, error) {
	return generate(t, variantSet{interchanged: true, twisted: true, cutoff: true}, nil)
}

// variantSet records which schedule families to emit.
type variantSet struct {
	interchanged, twisted, cutoff bool
}

// InlineFamily names the schedule family an inlined variant is based on.
type InlineFamily int

// The four families an InlineRequest can unroll: the original schedule and
// the three transformed ones.
const (
	InlineOriginal InlineFamily = iota
	InlineInterchanged
	InlineTwisted
	InlineTwistedCutoff
)

// InlineRequest asks for one inlined variant: the family's work-executing
// inner recursion unrolled Depth levels per call (the schedule algebra's
// inline(K) transformation). Inlining is supported for regular templates
// only — unrolling through the Fig 6(b) truncation-flag protocol is not.
type InlineRequest struct {
	Family InlineFamily
	Depth  int
}

// GenerateWithInline is the schedule-driven generator entry point: it emits
// the requested schedule families followed by the requested inlined
// variants. Families are matched by kind (a TwistedCutoff's cutoff value is
// irrelevant — the generated function takes it as a parameter); Original is
// rejected, since the input template already is that schedule. With every
// family and no inline requests the output is byte-identical to Generate.
// Helpers a family needs — the swapped inner recursion, and for irregular
// templates the flag-aware inner recursion — are emitted exactly once
// regardless of how many families share them. Inlined variants use only
// their own Inline<N>-suffixed helpers, so a file holding them composes with
// a separately generated one.
func GenerateWithInline(t *Template, variants []nest.Variant, inline []InlineRequest) ([]byte, error) {
	var want variantSet
	for _, v := range variants {
		switch v.Kind {
		case nest.KindInterchanged:
			want.interchanged = true
		case nest.KindTwisted:
			want.twisted = true
		case nest.KindTwistedCutoff:
			want.cutoff = true
		case nest.KindOriginal:
			return nil, fmt.Errorf("transform: %q is the input schedule; nothing to generate", v)
		default:
			return nil, fmt.Errorf("transform: unknown variant kind %d", v.Kind)
		}
	}
	reqs, err := normalizeInline(t, inline)
	if err != nil {
		return nil, err
	}
	if !want.interchanged && !want.twisted && !want.cutoff && len(reqs) == 0 {
		return nil, fmt.Errorf("transform: nothing to generate (no families or inline requests)")
	}
	return generate(t, want, reqs)
}

// maxInlineDepth mirrors the schedule algebra's bound on inline(K).
const maxInlineDepth = 8

// normalizeInline validates, deduplicates, and sorts inline requests.
func normalizeInline(t *Template, inline []InlineRequest) ([]InlineRequest, error) {
	if len(inline) == 0 {
		return nil, nil
	}
	if t.Irregular() {
		return nil, fmt.Errorf("transform: inlining is not supported on irregular templates (unrolling through the truncation-flag protocol)")
	}
	seen := map[InlineRequest]bool{}
	var reqs []InlineRequest
	for _, r := range inline {
		if r.Family < InlineOriginal || r.Family > InlineTwistedCutoff {
			return nil, fmt.Errorf("transform: unknown inline family %d", r.Family)
		}
		if r.Depth < 1 || r.Depth > maxInlineDepth {
			return nil, fmt.Errorf("transform: inline depth %d out of range 1..%d", r.Depth, maxInlineDepth)
		}
		if !seen[r] {
			seen[r] = true
			reqs = append(reqs, r)
		}
	}
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].Family != reqs[b].Family {
			return reqs[a].Family < reqs[b].Family
		}
		return reqs[a].Depth < reqs[b].Depth
	})
	return reqs, nil
}

// generate runs the generator and the format/parse sanity gates.
func generate(t *Template, want variantSet, inline []InlineRequest) ([]byte, error) {
	g := &generator{t: t, want: want, inline: inline}
	src, err := g.file()
	if err != nil {
		return nil, err
	}
	out, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("transform: generated code does not format (tool bug): %v\n%s", err, src)
	}
	// Belt and braces: the output must parse.
	if _, err := parser.ParseFile(token.NewFileSet(), "generated.go", out, 0); err != nil {
		return nil, fmt.Errorf("transform: generated code does not parse (tool bug): %v", err)
	}
	return out, nil
}

type generator struct {
	t      *Template
	want   variantSet
	inline []InlineRequest
	b      bytes.Buffer
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

// names for the synthesized functions.
func (g *generator) outerName() string      { return g.t.Outer.Name.Name }
func (g *generator) innerName() string      { return g.t.Inner.Name.Name }
func (g *generator) outerSwName() string    { return g.t.Outer.Name.Name + "Swapped" }
func (g *generator) innerSwName() string    { return g.t.Inner.Name.Name + "Swapped" }
func (g *generator) outerTwName() string    { return g.t.Outer.Name.Name + "Twisted" }
func (g *generator) outerTwSwName() string  { return g.t.Outer.Name.Name + "SwappedTwisted" }
func (g *generator) innerTwName() string    { return g.t.Inner.Name.Name + "Twisted" }
func (g *generator) outerCutName() string   { return g.t.Outer.Name.Name + "TwistedCutoff" }
func (g *generator) outerCutSwName() string { return g.t.Outer.Name.Name + "SwappedTwistedCutoff" }

func (g *generator) expr(e ast.Expr) string { return render(g.t.Fset, e) }

// sig renders the common two-index parameter list.
func (g *generator) sig() string {
	return fmt.Sprintf("%s %s, %s %s", g.t.OName, g.expr(g.t.OType), g.t.IName, g.expr(g.t.IType))
}

func (g *generator) workBody(indent string) string {
	var sb strings.Builder
	for _, st := range g.t.Work {
		sb.WriteString(indent)
		sb.WriteString(render(g.t.Fset, st))
		sb.WriteString("\n")
	}
	return sb.String()
}

func (g *generator) file() ([]byte, error) {
	t := g.t
	g.pf("// Code generated by cmd/twist from the //twist:outer/inner template\n")
	g.pf("// (%s / %s). DO NOT EDIT.\n", g.outerName(), g.innerName())
	g.pf("//\n")
	g.pf("// Schedules synthesized per \"Locality Transformations for Nested\n")
	g.pf("// Recursive Iteration Spaces\" (ASPLOS 2017): recursion interchange\n")
	g.pf("// (Fig 3) and parameterless recursion twisting (Fig 4a)")
	if t.Irregular() {
		g.pf(",\n// with truncation flags for the irregular iteration space (Fig 6b)")
	}
	if len(g.inline) > 0 {
		g.pf(",\n// plus inlined variants (the schedule algebra's inline(K) transformation)")
	}
	g.pf(".\n\n")
	g.pf("package %s\n\n", t.File.Name.Name)

	// Decl order is fixed — outerSw, innerSw, outerTw, outerTwSw,
	// innerTw (irregular only), outerCut, outerCutSw — so that the full
	// set reproduces Generate's historical output byte for byte. The
	// swapped inner recursion is a helper of every family; the flag-aware
	// inner recursion serves both twisting families.
	if g.want.interchanged {
		g.outerSwapped()
	}
	if g.want.interchanged || g.want.twisted || g.want.cutoff {
		g.innerSwapped()
	}
	if g.want.twisted {
		g.twistedPair()
	}
	if t.Irregular() && (g.want.twisted || g.want.cutoff) {
		g.innerTwisted()
	}
	if g.want.cutoff {
		g.twistedCutoff()
	}
	g.inlineDecls()
	return g.b.Bytes(), nil
}

// twistedCutoff emits the §7.1 variant: twist only while the tree held by
// the inner recursion is larger than the cutoff, reverting to the standard
// recursive schedule for small subproblems to shed instruction overhead.
func (g *generator) twistedCutoff() {
	t := g.t
	o, i := t.OName, t.IName

	innerCall := g.innerName()
	if t.Irregular() {
		innerCall = g.innerTwName()
	}

	g.pf("// %s is recursion twisting with the cutoff parameter of §7.1:\n", g.outerCutName())
	g.pf("// orientation only switches while the inner recursion's tree is larger\n")
	g.pf("// than cutoff, trading a little locality for much less bookkeeping.\n")
	g.pf("func %s(%s, cutoff int) {\n", g.outerCutName(), g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	g.pf("\t%s(%s, %s)\n", innerCall, o, i)
	for _, c := range t.OuterChildren {
		ce := g.expr(c)
		g.pf("\tif %s(%s) <= %s(%s) && %s(%s) > cutoff {\n", t.SizeFn, ce, t.SizeFn, i, t.SizeFn, i)
		g.pf("\t\t%s(%s, %s, cutoff)\n", g.outerCutSwName(), ce, i)
		g.pf("\t} else {\n")
		g.pf("\t\t%s(%s, %s, cutoff)\n", g.outerCutName(), ce, i)
		g.pf("\t}\n")
	}
	g.pf("}\n\n")

	g.pf("// %s is the swapped orientation of cutoff twisting.\n", g.outerCutSwName())
	g.pf("func %s(%s, cutoff int) {\n", g.outerCutSwName(), g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncInner1))
	g.pf("\tif %s { // empty outer region: nothing to traverse\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	if t.Irregular() {
		g.pf("\tvar unTrunc []%s\n", g.expr(t.OType))
		g.pf("\t%s(%s, %s, &unTrunc)\n", g.innerSwName(), o, i)
	} else {
		g.pf("\t%s(%s, %s)\n", g.innerSwName(), o, i)
	}
	for _, c := range t.InnerChildren {
		ce := g.expr(c)
		g.pf("\tif %s(%s) <= %s(%s) {\n", t.SizeFn, ce, t.SizeFn, o)
		g.pf("\t\t%s(%s, %s, cutoff)\n", g.outerCutName(), o, ce)
		g.pf("\t} else {\n")
		g.pf("\t\t%s(%s, %s, cutoff)\n", g.outerCutSwName(), o, ce)
		g.pf("\t}\n")
	}
	if t.Irregular() {
		g.pf("\tfor _, n := range unTrunc {\n\t\t%s(n, false)\n\t}\n", t.SetTruncFn)
	}
	g.pf("}\n")
}

// outerSwapped emits the interchanged outer recursion (Fig 3 / Fig 6b).
func (g *generator) outerSwapped() {
	t := g.t
	o, i := t.OName, t.IName

	g.pf("// %s is %s under recursion interchange: the outer recursion\n", g.outerSwName(), g.outerName())
	g.pf("// traverses the inner tree and vice versa (row-by-row order).\n")
	g.pf("func %s(%s) {\n", g.outerSwName(), g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncInner1))
	g.pf("\tif %s { // empty outer region: nothing to traverse\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	if t.Irregular() {
		g.pf("\tvar unTrunc []%s\n", g.expr(t.OType))
		g.pf("\t%s(%s, %s, &unTrunc)\n", g.innerSwName(), o, i)
	} else {
		g.pf("\t%s(%s, %s)\n", g.innerSwName(), o, i)
	}
	for _, c := range t.InnerChildren {
		g.pf("\t%s(%s, %s)\n", g.outerSwName(), o, g.expr(c))
	}
	if t.Irregular() {
		g.pf("\tfor _, n := range unTrunc {\n\t\t%s(n, false)\n\t}\n", t.SetTruncFn)
	}
	g.pf("}\n\n")
}

// innerSwapped emits the interchanged inner recursion, the helper every
// transformed schedule traverses rows with.
func (g *generator) innerSwapped() {
	t := g.t
	o, i := t.OName, t.IName

	g.pf("// %s is %s under recursion interchange, traversing the\n", g.innerSwName(), g.innerName())
	g.pf("// outer tree for a fixed inner node.\n")
	if t.Irregular() {
		g.pf("func %s(%s, unTrunc *[]%s) {\n", g.innerSwName(), g.sig(), g.expr(t.OType))
	} else {
		g.pf("func %s(%s) {\n", g.innerSwName(), g.sig())
	}
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	if t.Irregular() {
		// Fig 6(b): record fresh truncations; skip work while flagged. An
		// already-flagged node is not re-evaluated (nested truncating
		// regions are contained in the flagging region).
		g.pf("\tif !%s(%s) && (%s) {\n", t.TruncFn, o, g.expr(t.TruncInner2))
		g.pf("\t\t%s(%s, true)\n", t.SetTruncFn, o)
		g.pf("\t\t*unTrunc = append(*unTrunc, %s)\n", o)
		g.pf("\t}\n")
		g.pf("\tif !%s(%s) {\n", t.TruncFn, o)
		g.b.WriteString(g.workBody("		"))
		g.pf("\t}\n")
		for _, c := range t.OuterChildren {
			g.pf("\t%s(%s, %s, unTrunc)\n", g.innerSwName(), g.expr(c), i)
		}
	} else {
		g.b.WriteString(g.workBody("	"))
		for _, c := range t.OuterChildren {
			g.pf("\t%s(%s, %s)\n", g.innerSwName(), g.expr(c), i)
		}
	}
	g.pf("}\n\n")
}

// twistedPair emits the twisting pair (Fig 4a).
func (g *generator) twistedPair() {
	t := g.t
	o, i := t.OName, t.IName

	innerCall := g.innerName()
	if t.Irregular() {
		innerCall = g.innerTwName()
	}

	g.pf("// %s is the entry point of parameterless recursion twisting\n", g.outerTwName())
	g.pf("// (Fig 4a): it follows the original orientation but switches the two\n")
	g.pf("// recursions whenever the remaining outer subtree is no larger than the\n")
	g.pf("// tree held by the inner recursion.\n")
	g.pf("func %s(%s) {\n", g.outerTwName(), g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	g.pf("\t%s(%s, %s)\n", innerCall, o, i)
	for _, c := range t.OuterChildren {
		ce := g.expr(c)
		g.pf("\tif %s(%s) <= %s(%s) {\n", t.SizeFn, ce, t.SizeFn, i)
		g.pf("\t\t%s(%s, %s)\n", g.outerTwSwName(), ce, i)
		g.pf("\t} else {\n")
		g.pf("\t\t%s(%s, %s)\n", g.outerTwName(), ce, i)
		g.pf("\t}\n")
	}
	g.pf("}\n\n")

	g.pf("// %s is the swapped orientation of recursion twisting.\n", g.outerTwSwName())
	g.pf("func %s(%s) {\n", g.outerTwSwName(), g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncInner1))
	g.pf("\tif %s { // empty outer region: nothing to traverse\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	if t.Irregular() {
		g.pf("\tvar unTrunc []%s\n", g.expr(t.OType))
		g.pf("\t%s(%s, %s, &unTrunc)\n", g.innerSwName(), o, i)
	} else {
		g.pf("\t%s(%s, %s)\n", g.innerSwName(), o, i)
	}
	for _, c := range t.InnerChildren {
		ce := g.expr(c)
		g.pf("\tif %s(%s) <= %s(%s) {\n", t.SizeFn, ce, t.SizeFn, o)
		g.pf("\t\t%s(%s, %s)\n", g.outerTwName(), o, ce)
		g.pf("\t} else {\n")
		g.pf("\t\t%s(%s, %s)\n", g.outerTwSwName(), o, ce)
		g.pf("\t}\n")
	}
	if t.Irregular() {
		g.pf("\tfor _, n := range unTrunc {\n\t\t%s(n, false)\n\t}\n", t.SetTruncFn)
	}
	g.pf("}\n\n")
}

// innerTwisted emits the flag-aware variant of the original-orientation
// inner recursion that both twisting families call on irregular templates.
func (g *generator) innerTwisted() {
	t := g.t
	o := t.OName

	g.pf("// %s is %s for use inside the twisted schedule: in the\n", g.innerTwName(), g.innerName())
	g.pf("// original orientation the truncation flag must be consulted in\n")
	g.pf("// addition to the truncation condition (§4.1).\n")
	g.pf("func %s(%s) {\n", g.innerTwName(), g.sig())
	g.pf("\tif %s || %s(%s) || (%s) {\n\t\treturn\n\t}\n",
		g.expr(t.TruncInner1), t.TruncFn, o, g.expr(t.TruncInner2))
	g.b.WriteString(g.workBody("	"))
	for _, c := range t.InnerChildren {
		g.pf("\t%s(%s, %s)\n", g.innerTwName(), o, g.expr(c))
	}
	g.pf("}\n")
}

// --- inlined variants (schedule algebra inline(K)) ----------------------
//
// Unrolling uses shadowed index rebinding — `i := i.Left` inside a nested
// block — so the template's work, truncation, and child expressions are
// reused verbatim at every unrolled level, with no identifier substitution.
// The unrolled frontier recurses into the inlined function itself, keeping
// the visit order exactly that of the un-inlined family.

// inlineName suffixes a generated function name for an inline depth.
func inlineName(base string, depth int) string {
	return fmt.Sprintf("%sInline%d", base, depth)
}

// inlineDecls emits the requested inlined variants: first the shared
// inlined inner recursions (one per orientation and depth), then one driver
// set per requested family.
func (g *generator) inlineDecls() {
	if len(g.inline) == 0 {
		return
	}
	needInner := map[int]bool{}   // original-orientation inlined inner
	needInnerSw := map[int]bool{} // swapped-orientation inlined inner
	for _, r := range g.inline {
		switch r.Family {
		case InlineOriginal:
			needInner[r.Depth] = true
		case InlineInterchanged:
			needInnerSw[r.Depth] = true
		default: // twisting families visit both orientations
			needInner[r.Depth] = true
			needInnerSw[r.Depth] = true
		}
	}
	g.pf("\n")
	for _, d := range sortedKeys(needInner) {
		g.innerInlined(d, false)
	}
	for _, d := range sortedKeys(needInnerSw) {
		g.innerInlined(d, true)
	}
	for _, r := range g.inline {
		switch r.Family {
		case InlineOriginal:
			g.originalInlined(r.Depth)
		case InlineInterchanged:
			g.interchangedInlined(r.Depth)
		case InlineTwisted:
			g.twistedInlined(r.Depth, false)
		case InlineTwistedCutoff:
			g.twistedInlined(r.Depth, true)
		}
	}
}

func sortedKeys(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// innerInlined emits the work-executing recursion of one orientation with
// depth levels unrolled per call. swapped selects the interchanged
// orientation (fixed inner node, outer tree descent).
func (g *generator) innerInlined(depth int, swapped bool) {
	t := g.t
	base, moving, guard, children := g.innerName(), t.IName, t.TruncInner1, t.InnerChildren
	orient := "original"
	if swapped {
		base, moving, guard, children = g.innerSwName(), t.OName, t.TruncOuter, t.OuterChildren
		orient = "interchanged"
	}
	name := inlineName(base, depth)
	g.pf("// %s runs the %s-orientation work recursion with %d level(s)\n", name, orient, depth)
	g.pf("// unrolled per call (inline(%d)): each unrolled level rebinds the moving\n", depth)
	g.pf("// index in a nested scope, so call and truncation-test overhead is paid\n")
	g.pf("// once per unrolled subtree. The visit order is unchanged.\n")
	g.pf("func %s(%s) {\n", name, g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(guard))
	g.b.WriteString(g.workBody("\t"))
	g.inlineLevel(name, moving, guard, children, swapped, depth, 1)
	g.pf("}\n\n")
}

// inlineLevel emits one unrolled descent level: a nested scope per child
// that rebinds the moving index, re-tests truncation, runs the work, and
// either unrolls further or falls back to the recursive call.
func (g *generator) inlineLevel(self, moving string, guard ast.Expr, children []ast.Expr, swapped bool, remaining, depth int) {
	t := g.t
	ind := strings.Repeat("\t", depth)
	for _, c := range children {
		ce := g.expr(c)
		if remaining == 0 {
			if swapped {
				g.pf("%s%s(%s, %s)\n", ind, self, ce, t.IName)
			} else {
				g.pf("%s%s(%s, %s)\n", ind, self, t.OName, ce)
			}
			continue
		}
		g.pf("%s{\n", ind)
		g.pf("%s\t%s := %s\n", ind, moving, ce)
		g.pf("%s\tif !(%s) {\n", ind, g.expr(guard))
		g.b.WriteString(g.workBody(strings.Repeat("\t", depth+2)))
		g.inlineLevel(self, moving, guard, children, swapped, remaining-1, depth+2)
		g.pf("%s\t}\n", ind)
		g.pf("%s}\n", ind)
	}
}

// originalInlined emits the original schedule driving the inlined inner
// recursion.
func (g *generator) originalInlined(depth int) {
	t := g.t
	o, i := t.OName, t.IName
	name := inlineName(g.outerName(), depth)
	g.pf("// %s is the original schedule with the inner recursion\n", name)
	g.pf("// unrolled %d level(s) (inline(%d)∘identity).\n", depth, depth)
	g.pf("func %s(%s) {\n", name, g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	g.pf("\t%s(%s, %s)\n", inlineName(g.innerName(), depth), o, i)
	for _, c := range t.OuterChildren {
		g.pf("\t%s(%s, %s)\n", name, g.expr(c), i)
	}
	g.pf("}\n\n")
}

// interchangedInlined emits the interchanged schedule driving the inlined
// swapped inner recursion.
func (g *generator) interchangedInlined(depth int) {
	t := g.t
	o, i := t.OName, t.IName
	name := inlineName(g.outerSwName(), depth)
	g.pf("// %s is recursion interchange with the swapped inner recursion\n", name)
	g.pf("// unrolled %d level(s) (inline(%d)∘interchange).\n", depth, depth)
	g.pf("func %s(%s) {\n", name, g.sig())
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncInner1))
	g.pf("\tif %s { // empty outer region: nothing to traverse\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	g.pf("\t%s(%s, %s)\n", inlineName(g.innerSwName(), depth), o, i)
	for _, c := range t.InnerChildren {
		g.pf("\t%s(%s, %s)\n", name, o, g.expr(c))
	}
	g.pf("}\n\n")
}

// twistedInlined emits the twisting pair (optionally cutoff-bounded)
// driving the inlined inner recursions of both orientations.
func (g *generator) twistedInlined(depth int, cutoff bool) {
	t := g.t
	o, i := t.OName, t.IName
	fwdBase, swBase, comp := g.outerTwName(), g.outerTwSwName(), "twist"
	param, arg := "", ""
	if cutoff {
		fwdBase, swBase, comp = g.outerCutName(), g.outerCutSwName(), "stripmine(N)∘twist"
		param, arg = ", cutoff int", ", cutoff"
	}
	fwd, sw := inlineName(fwdBase, depth), inlineName(swBase, depth)

	g.pf("// %s is recursion twisting (%s) with the work recursions\n", fwd, comp)
	g.pf("// of both orientations unrolled %d level(s) (inline(%d)).\n", depth, depth)
	g.pf("func %s(%s%s) {\n", fwd, g.sig(), param)
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	g.pf("\t%s(%s, %s)\n", inlineName(g.innerName(), depth), o, i)
	for _, c := range t.OuterChildren {
		ce := g.expr(c)
		if cutoff {
			g.pf("\tif %s(%s) <= %s(%s) && %s(%s) > cutoff {\n", t.SizeFn, ce, t.SizeFn, i, t.SizeFn, i)
		} else {
			g.pf("\tif %s(%s) <= %s(%s) {\n", t.SizeFn, ce, t.SizeFn, i)
		}
		g.pf("\t\t%s(%s, %s%s)\n", sw, ce, i, arg)
		g.pf("\t} else {\n")
		g.pf("\t\t%s(%s, %s%s)\n", fwd, ce, i, arg)
		g.pf("\t}\n")
	}
	g.pf("}\n\n")

	g.pf("// %s is the swapped orientation of %s.\n", sw, fwd)
	g.pf("func %s(%s%s) {\n", sw, g.sig(), param)
	g.pf("\tif %s {\n\t\treturn\n\t}\n", g.expr(t.TruncInner1))
	g.pf("\tif %s { // empty outer region: nothing to traverse\n\t\treturn\n\t}\n", g.expr(t.TruncOuter))
	g.pf("\t%s(%s, %s)\n", inlineName(g.innerSwName(), depth), o, i)
	for _, c := range t.InnerChildren {
		ce := g.expr(c)
		g.pf("\tif %s(%s) <= %s(%s) {\n", t.SizeFn, ce, t.SizeFn, o)
		g.pf("\t\t%s(%s, %s%s)\n", fwd, o, ce, arg)
		g.pf("\t} else {\n")
		g.pf("\t\t%s(%s, %s%s)\n", sw, o, ce, arg)
		g.pf("\t}\n")
	}
	g.pf("}\n\n")
}
