// Package doclint is a test-only lint: it fails the build's test step when a
// package loses its godoc package comment, when one of the contract-bearing
// packages (obs, nest, memsim, sched) exports an undocumented identifier,
// when an internal package and the DESIGN.md §2 system inventory disagree,
// or when a test measures allocations while running in parallel. CI runs it
// as the doc-comment gate next to go vet.
package doclint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// strict lists the packages whose exported API must be fully documented:
// they carry the cross-package contracts (Recorder, RunConfig, Stream/Sink,
// schedule recording) that the rest of the repo programs against.
var strict = map[string]bool{
	"internal/obs":    true,
	"internal/nest":   true,
	"internal/memsim": true,
	"internal/sched":  true,
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestEveryPackageHasDocComment parses every non-test source directory under
// the module and requires at least one file to carry a package comment.
func TestEveryPackageHasDocComment(t *testing.T) {
	root := repoRoot(t)
	dirs := map[string][]string{} // dir -> non-test .go files
	walkGoFiles(t, root, func(path string) {
		if !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
	})
	for dir, files := range dirs {
		rel, _ := filepath.Rel(root, dir)
		documented := false
		for _, f := range files {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s has no package doc comment in any of its files", rel)
		}
	}
}

// TestEveryInternalPackageIsInventoried requires every internal package to
// hold a row in the DESIGN.md §2 system inventory: the section between the
// "## 2." and "## 3." headings must mention the package's module-relative
// import path. The inventory is the map readers navigate the repo by; a
// package absent from it is a subsystem the documentation does not admit
// exists. In the reverse direction, every internal path the section names
// must exist, so a row cannot outlive its package.
func TestEveryInternalPackageIsInventoried(t *testing.T) {
	root := repoRoot(t)
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(design)
	if i := strings.Index(section, "\n## 2."); i >= 0 {
		section = section[i:]
	} else {
		t.Fatal("DESIGN.md has no \"## 2.\" heading")
	}
	if i := strings.Index(section[1:], "\n## "); i >= 0 {
		section = section[:1+i]
	}
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		pkg := "internal/" + e.Name()
		if !strings.Contains(section, pkg) {
			t.Errorf("%s has no row in the DESIGN.md §2 system inventory", pkg)
		}
	}
	for _, path := range regexp.MustCompile(`internal/[\w./-]*\w`).FindAllString(section, -1) {
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(path))); err != nil {
			t.Errorf("the DESIGN.md §2 system inventory names %s, which does not exist", path)
		}
	}
}

// TestNoAllocsPerRunInParallelTests fails on any test function, closures
// included, that calls both t.Parallel() and testing.AllocsPerRun.
// AllocsPerRun counts the mallocs of the whole process, so every test that
// runs alongside a parallel one adds to its count and the assertion flakes.
func TestNoAllocsPerRunInParallelTests(t *testing.T) {
	root := repoRoot(t)
	walkGoFiles(t, root, func(path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				// A function's own check covers the closures inside it.
				if callsSelector(n, "", "Parallel") && callsSelector(n, "testing", "AllocsPerRun") {
					pos := fset.Position(n.Pos())
					pos.Filename, _ = filepath.Rel(root, pos.Filename)
					t.Errorf("%s: function calls both t.Parallel() and testing.AllocsPerRun; measure allocations in a test that is not parallel", pos)
				}
				return false
			}
			return true
		})
	})
}

// walkGoFiles calls fn on every .go file under root, skipping testdata and
// dot directories.
func walkGoFiles(t *testing.T, root string, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// callsSelector reports whether n contains a call recv.name(...), with any
// receiver when recv is empty.
func callsSelector(n ast.Node, recv, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				if id, ok := sel.X.(*ast.Ident); recv == "" || ok && id.Name == recv {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// TestStrictPackagesDocumentExports requires a doc comment on every exported
// top-level declaration of the strict packages.
func TestStrictPackagesDocumentExports(t *testing.T) {
	root := repoRoot(t)
	for rel := range strict {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			checkFileExports(t, filepath.Join(rel, name), file)
		}
	}
}

func checkFileExports(t *testing.T, path string, file *ast.File) {
	t.Helper()
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
				t.Errorf("%s: exported func %s has no doc comment", path, funcName(d))
			}
		case *ast.GenDecl:
			// A documented group (e.g. a const block with one comment)
			// covers its members.
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
						t.Errorf("%s: exported type %s has no doc comment", path, s.Name.Name)
					}
				case *ast.ValueSpec:
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							t.Errorf("%s: exported %s %s has no doc comment", path, d.Tok, n.Name)
						}
					}
				}
			}
		}
	}
}

// exportedRecv reports whether d is a plain function or a method whose
// receiver type is itself exported — methods on unexported types are not
// part of the package's godoc surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	rt := d.Recv.List[0].Type
	if st, ok := rt.(*ast.StarExpr); ok {
		rt = st.X
	}
	if idx, ok := rt.(*ast.IndexExpr); ok { // generic receiver T[P]
		rt = idx.X
	}
	id, ok := rt.(*ast.Ident)
	return !ok || id.IsExported()
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	var b strings.Builder
	switch rt := d.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := rt.X.(*ast.Ident); ok {
			b.WriteString("(*" + id.Name + ").")
		}
	case *ast.Ident:
		b.WriteString(rt.Name + ".")
	}
	b.WriteString(d.Name.Name)
	return b.String()
}
