package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestCtxflowExceptionsRatchet pins the module's ctxflow directives to
// the two that must exist: serve.New's nil-ctx guard, and
// testbench.CalibrateMultiParam, which stays ctx-less only because the
// separate perfbench module calls it. A new ctx-less entry point has to
// fail here instead of arriving with a fresh directive; retiring one of
// the two means shortening this list.
func TestCtxflowExceptionsRatchet(t *testing.T) {
	checkExceptions(t, "ctxflow", "serve.New", "testbench.CalibrateMultiParam")
}

// TestHotallocExceptionsRatchet pins the module's hotalloc directives to
// the three that must exist: the caller-owned miss buffer appended to by
// monitor.ClassifyBounded and monitor.scan, and the cold wrong-length
// error of signature.CaptureCanonicalCodes. An allocation in a new or
// changed hot path has to fail here instead of arriving with a fresh
// directive.
func TestHotallocExceptionsRatchet(t *testing.T) {
	checkExceptions(t, "hotalloc", "monitor.ClassifyBounded", "monitor.scan", "signature.CaptureCanonicalCodes")
}

// checkExceptions fails unless the analyzer's directives sit in exactly
// the want sites (listed in sorted order).
func checkExceptions(t *testing.T, analyzer string, want ...string) {
	t.Helper()
	got := exceptions(t, filepath.Join("..", ".."), analyzer)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s directives sit in %v, want exactly %v", analyzer, got, want)
	}
}

// exceptions parses every non-test Go file of the module rooted at root
// (skipping testdata and nested modules, which mclint never loads) and
// returns "package.Func" for each directive of the named analyzer,
// sorted. A directive outside any function reports as
// "package.file:line".
func exceptions(t *testing.T, root, analyzer string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := parseDirective(c); ok && d.name == analyzer {
					out = append(out, enclosingFunc(fset, f, c.Pos()))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// enclosingFunc names the top-level function containing pos.
func enclosingFunc(fset *token.FileSet, f *ast.File, pos token.Pos) string {
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Pos() <= pos && pos < fn.End() {
			return f.Name.Name + "." + fn.Name.Name
		}
	}
	p := fset.Position(pos)
	return fmt.Sprintf("%s.%s:%d", f.Name.Name, filepath.Base(p.Filename), p.Line)
}
