package mix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestBudgetIsInTheSignatureNotInTheName: in the packages that build and walk
// automata, every question has one function, the budget is its last
// parameter, and nil means unlimited (DESIGN §5b). A second name for the
// unlimited case is how a serving path came to compile outside the operator's
// limits, so none may come back: no function or method of the three packages
// is called …Budget, and nothing exported by automata takes a content model
// without taking a budget. A check of names and signatures, nothing
// transitive.
func TestBudgetIsInTheSignatureNotInTheName(t *testing.T) {
	// AppendKeys serializes trees; it cannot compile.
	pureSyntax := map[string]bool{"AppendKeys": true}
	checked := 0
	for _, dir := range []string{"internal/automata", "internal/sdtd", "internal/tightness"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources found (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := fn.Name.Name
				if strings.HasSuffix(name, "Budget") {
					t.Errorf("%s: %s: the budget goes in the signature (nil: unlimited), not in a second name", path, name)
				}
				if dir != "internal/automata" || !fn.Name.IsExported() || pureSyntax[name] ||
					(fn.Recv != nil && !isSelectorOrIdent(fn.Recv.List[0].Type, "", "Compiler")) {
					continue
				}
				takesModel, takesBudget := false, false
				for _, p := range fn.Type.Params.List {
					takesModel = takesModel || isSelectorOrIdent(p.Type, "regex", "Expr")
					takesBudget = takesBudget || isSelectorOrIdent(p.Type, "budget", "Budget")
				}
				if takesModel {
					checked++
					if !takesBudget {
						t.Errorf("%s: %s takes a regex.Expr and no *budget.Budget: it can compile, so its caller must say under what", path, name)
					}
				}
			}
		}
	}
	if checked < 15 {
		t.Errorf("checked %d exported automata functions taking a content model, want the package's 15 or more: the walk missed some", checked)
	}
}

// isSelectorOrIdent reports that the type expression is pkg.name (or, with
// pkg empty, name), possibly behind a pointer or a variadic ellipsis.
func isSelectorOrIdent(e ast.Expr, pkg, name string) bool {
	switch v := e.(type) {
	case *ast.StarExpr:
		return isSelectorOrIdent(v.X, pkg, name)
	case *ast.Ellipsis:
		return isSelectorOrIdent(v.Elt, pkg, name)
	case *ast.SelectorExpr:
		x, ok := v.X.(*ast.Ident)
		return ok && x.Name == pkg && v.Sel.Name == name
	case *ast.Ident:
		return pkg == "" && v.Name == name
	}
	return false
}
