package mix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneReadPath: a view's document and a query's answer come from one read
// of the mediator (DESIGN §5m). Read is it for a caller that sends the
// answer; Materialize, MaterializeInfo and Query are it for a caller that
// wants a tree (Answer.Document); QueryUnsimplified and QueryComposed are the
// baselines the experiments compare it with. No other method of *Mediator
// hands out an answer or a document, and one unexported method, read, makes
// every Answer a *Mediator makes. A check of signatures, nothing transitive.
func TestOneReadPath(t *testing.T) {
	want := []string{"Materialize", "MaterializeInfo", "Query", "QueryComposed", "QueryUnsimplified", "Read"}
	var exported, unexported []string
	files, err := filepath.Glob(filepath.Join("internal", "mediator", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("internal/mediator: no sources found (%v)", err)
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
			if !ok || fn.Recv == nil || !isSelectorOrIdent(fn.Recv.List[0].Type, "", "Mediator") || fn.Type.Results == nil {
				continue
			}
			answer, document := false, false
			for _, r := range fn.Type.Results.List {
				answer = answer || isSelectorOrIdent(r.Type, "", "Answer")
				document = document || isSelectorOrIdent(r.Type, "xmlmodel", "Document")
			}
			switch {
			case fn.Name.IsExported() && (answer || document):
				exported = append(exported, fn.Name.Name)
			case !fn.Name.IsExported() && answer:
				unexported = append(unexported, fn.Name.Name)
			}
		}
	}
	slices.Sort(exported)
	if !slices.Equal(exported, want) {
		t.Errorf("the *Mediator methods that return an Answer or a document are %v, want %v: a read is a Request to Read "+
			"(or read, with Answer.Document for a tree), not another method. Materialize, MaterializeInfo and Query stay "+
			"only because benchmark/ calls them", exported, want)
	}
	if !slices.Equal(unexported, []string{"read"}) {
		t.Errorf("the unexported *Mediator methods that return an Answer are %v, want [read]: one read serves every read", unexported)
	}
}
