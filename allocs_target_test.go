package mix_test

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

// TestAllocsTargetRunsEveryAllocationRatchet: `make allocs` selects the
// ratchets by name, and not every one of them says "Alloc". So that a new
// one cannot escape the target by its name, every test function in the tree
// that calls testing.AllocsPerRun must match the target's -run pattern —
// add a name to the Makefile, or put "Alloc" in the test's.
func TestAllocsTargetRunsEveryAllocationRatchet(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, _ := strings.Cut(string(makefile), "\nallocs:\n")
	m := regexp.MustCompile(`^\tgo test [^\n]*-run '([^']+)'`).FindStringSubmatch(recipe)
	if m == nil {
		t.Fatal("Makefile: no `allocs:` target running go test -run '…'")
	}
	selected := regexp.MustCompile(m[1])

	ratchets := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			} else if !selected.MatchString(name) {
				t.Errorf("%s: %s calls testing.AllocsPerRun but `make allocs` (-run '%s') does not select it", path, name, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ratchets < 15 {
		t.Errorf("found %d allocation ratchets, want the tree's 15 or more: the walk missed some", ratchets)
	}
}
