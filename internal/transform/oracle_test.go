package transform

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"twist/internal/nest"
	"twist/internal/oracle"
	"twist/internal/tree"
)

// The source-to-source path must satisfy the same oracle as the engine:
// each Generate output is compiled together with a tiny pointer-tree
// harness, every schedule is executed out of process, and the printed visit
// sequences are checked for permutation equivalence against the template's
// own (original-schedule) output. The harness builds its trees with the same
// preorder id assignment as tree.NewBalanced, so the original sequence is
// additionally cross-checked against the in-repo engine's golden trace —
// tying the generated code, the engine, and the oracle to one semantics.

const (
	harnessOuterN = 13
	harnessInnerN = 9
)

// harnessSupport is the runtime the generated code needs: the Node struct,
// the default helper names (subtreeSize/truncFlag/setTruncFlag), a pure
// prune predicate over ids, work printing visits, and a balanced builder
// mirroring tree.NewBalanced's preorder ids.
const harnessSupport = `
type Node struct {
	id          int
	size        int
	trunc       bool
	Left, Right *Node
}

func subtreeSize(n *Node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func truncFlag(o *Node) bool       { return o.trunc }
func setTruncFlag(o *Node, v bool) { o.trunc = v }

func prune(o, i *Node) bool {
	return (uint32(o.id)*2654435761+uint32(i.id)*2246822519)%5 == 0
}

func work(o, i *Node) { fmt.Printf("v %d %d\n", o.id, i.id) }

func build(count int, next *int, all *[]*Node) *Node {
	if count == 0 {
		return nil
	}
	n := &Node{id: *next}
	*next++
	*all = append(*all, n)
	lc := (count - 1) / 2
	n.Left = build(lc, next, all)
	n.Right = build(count-1-lc, next, all)
	n.size = 1 + subtreeSize(n.Left) + subtreeSize(n.Right)
	return n
}

func main() {
	var no, ni int
	var outerNodes, innerNodes []*Node
	outer := build(NO, &no, &outerNodes)
	inner := build(NI, &ni, &innerNodes)
	_ = innerNodes
	section := func(name string, f func()) {
		fmt.Println("==", name)
		for _, n := range outerNodes {
			n.trunc = false
		}
		f()
	}
	section("original", func() { Outer(outer, inner) })
	section("interchanged", func() { OuterSwapped(outer, inner) })
	section("twisted", func() { OuterTwisted(outer, inner) })
	section("cutoff", func() { OuterTwistedCutoff(outer, inner, 3) })
}
`

// harnessPrune mirrors the harness's prune over engine NodeIDs (ids match by
// construction).
func harnessPrune(o, i tree.NodeID) bool {
	return (uint32(o)*2654435761+uint32(i)*2246822519)%5 == 0
}

// runHarness writes a temp module holding the template, the generated
// variants, and the support runtime, executes it, and parses the printed
// visit sections.
func runHarness(t *testing.T, templateSrc string) map[string][]oracle.Visit {
	t.Helper()
	tmpl, err := ParseFile("template.go", []byte(templateSrc))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(tmpl)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	support := strings.NewReplacer(
		"NO", strconv.Itoa(harnessOuterN),
		"NI", strconv.Itoa(harnessInnerN),
	).Replace(harnessSupport)
	mainSrc := "package main\n\nimport \"fmt\"\n\n" +
		strings.TrimPrefix(templateSrc, "package main\n") + support
	for name, data := range map[string]string{
		"go.mod":  "module oracleharness\n\ngo 1.22\n",
		"main.go": mainSrc,
		"gen.go":  string(gen),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run: %v\n%s", err, out)
	}

	sections := make(map[string][]oracle.Visit)
	var cur string
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 2 && fields[0] == "==":
			cur = fields[1]
			sections[cur] = nil
		case len(fields) == 3 && fields[0] == "v":
			o, err1 := strconv.Atoi(fields[1])
			i, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || cur == "" {
				t.Fatalf("malformed harness output line %q", line)
			}
			sections[cur] = append(sections[cur], oracle.Visit{O: tree.NodeID(o), I: tree.NodeID(i)})
		case len(fields) != 0:
			t.Fatalf("unexpected harness output line %q", line)
		}
	}
	return sections
}

func TestGeneratedVariantsPassOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a child Go program")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go binary not available")
	}
	regular := strings.Replace(regularSrc, "package p", "package main", 1)
	irregular := strings.Replace(regular, "if i == nil {", "if i == nil || prune(o, i) {", 1)
	for _, tc := range []struct {
		name, src string
		prune     func(o, i tree.NodeID) bool
	}{
		{"regular", regular, nil},
		{"irregular", irregular, harnessPrune},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sections := runHarness(t, tc.src)
			orig := sections["original"]
			if len(orig) == 0 {
				t.Fatal("empty original section")
			}
			golden := oracle.FromSequence(orig)
			for _, name := range []string{"interchanged", "twisted", "cutoff"} {
				seq, ok := sections[name]
				if !ok {
					t.Fatalf("missing harness section %q", name)
				}
				if v := golden.CheckSequence("generated "+name, seq); !v.OK {
					t.Error(v)
				}
			}

			// Cross-check: the engine on the same space must produce the same
			// golden trace (ids and shapes align by construction).
			spec := nest.Spec{
				Outer:       tree.NewBalanced(harnessOuterN),
				Inner:       tree.NewBalanced(harnessInnerN),
				TruncInner2: tc.prune,
				Work:        func(o, i tree.NodeID) {},
			}
			eg, err := oracle.Capture(spec)
			if err != nil {
				t.Fatal(err)
			}
			if eg.Digest() != golden.Digest() || eg.ColumnDigest() != golden.ColumnDigest() {
				t.Fatalf("engine golden trace (%d visits) differs from generated code's (%d visits)",
					eg.Visits(), golden.Visits())
			}
		})
	}
}
