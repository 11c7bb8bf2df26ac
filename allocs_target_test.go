package mix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllocsTargetRunsEveryAllocationRatchet: `make allocs` selects the
// ratchets by one convention, `-run Alloc`. So that a new one cannot escape
// the target by its name, every test function in the tree that calls
// testing.AllocsPerRun must say "Alloc" in its name.
func TestAllocsTargetRunsEveryAllocationRatchet(t *testing.T) {
	ratchets := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			counts := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
					counts = true
				}
				return !counts
			})
			if !counts {
				continue
			}
			ratchets++
			if name := fn.Name.Name; !strings.HasPrefix(name, "Test") {
				t.Errorf("%s: %s counts allocations outside a test function; the guard cannot tell which tests reach it", path, name)
			} else if !strings.Contains(name, "Alloc") {
				t.Errorf("%s: %s calls testing.AllocsPerRun but `make allocs` (-run Alloc) does not select it", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ratchets < 43 {
		t.Errorf("found %d allocation ratchets, want the tree's 43 or more: the walk missed some", ratchets)
	}
}
