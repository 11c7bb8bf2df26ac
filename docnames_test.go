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

// declarations are the names the tree declares: per package name (an
// external test package counts as the package it tests), its top-level
// names; per type name, in whichever package, its methods and fields; per
// directory, its top-level functions.
type declarations struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	funcs   map[string]map[string]bool
}

func declare(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][name] = true
}

// receiverType is the name of a method's receiver type: T of T, *T, T[X].
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// parseTree reads every Go file of the module.
func parseTree(t *testing.T) *declarations {
	t.Helper()
	d := &declarations{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, funcs: map[string]map[string]bool{}}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata"):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(file.Name.Name, "_test")
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(d.pkgs, pkg, decl.Name.Name)
					declare(d.funcs, filepath.Dir(path), decl.Name.Name)
				} else {
					declare(d.members, receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(d.pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						declare(d.pkgs, pkg, spec.Name.Name)
						d.typeMembers(spec)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeMembers records a struct's fields and an interface's methods.
func (d *declarations) typeMembers(spec *ast.TypeSpec) {
	var fields *ast.FieldList
	switch ty := spec.Type.(type) {
	case *ast.StructType:
		fields = ty.Fields
	case *ast.InterfaceType:
		fields = ty.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			declare(d.members, spec.Name.Name, n.Name)
		}
		if len(f.Names) == 0 { // embedded: named by its type
			if n := receiverType(f.Type); n != "" {
				declare(d.members, spec.Name.Name, n)
			} else if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				declare(d.members, spec.Name.Name, sel.Sel.Name)
			}
		}
	}
}

// resolves reports whether a backticked name declares something in the tree,
// and whether it is a name this test checks at all: pkg.Name and
// pkg.Type.Member of a package the module declares, Type.Member of a type it
// declares (Name and Type exported: lower-case, both are spans' and metrics'
// names, mediator.refetch and source.fetch), and Test*, Benchmark* and Fuzz*
// functions. Anything else — a standard library name, a path, a command
// line — is not checked.
func (d *declarations) resolves(name string) (ok, checked bool) {
	parts := strings.Split(strings.TrimSuffix(name, "()"), ".")
	for _, p := range parts {
		if !identifier.MatchString(p) {
			return false, false
		}
	}
	switch {
	case len(parts) == 1 && testFunc.MatchString(parts[0]):
		for _, names := range d.pkgs {
			if names[parts[0]] {
				return true, true
			}
		}
		return false, true
	case len(parts) >= 2 && d.pkgs[parts[0]] != nil:
		if len(parts) > 3 || !ast.IsExported(parts[1]) {
			return false, false
		}
		return d.pkgs[parts[0]][parts[1]] && (len(parts) == 2 || d.members[parts[1]][parts[2]]), true
	case len(parts) == 2 && ast.IsExported(parts[0]) && d.members[parts[0]] != nil:
		return d.members[parts[0]][parts[1]], true
	}
	return false, false
}

var (
	identifier = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	testFunc   = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9_]`)
	backticked = regexp.MustCompile("`([^`\n]+)`")
)

// TestDocumentedNamesExist: every Go name README.md and PAPER_MAP.md put in
// backticks — mix.ErrBodyTooLarge, oracle.Subject, Tally.Vacuous,
// TestOracle — and every Test*, Benchmark* and Fuzz* name DESIGN.md and the
// verify skill put in backticks names a declaration of the tree as it is, so
// a rename or a deletion that leaves the documents behind fails here.
func TestDocumentedNamesExist(t *testing.T) {
	d := parseTree(t)
	checked := 0
	for _, doc := range []struct {
		path      string
		testsOnly bool
	}{{"README.md", false}, {"PAPER_MAP.md", false}, {"DESIGN.md", true}, {".claude/skills/verify/SKILL.md", true}} {
		text, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backticked.FindAllStringSubmatch(string(text), -1) {
			if doc.testsOnly && !testFunc.MatchString(m[1]) {
				continue
			}
			ok, counted := d.resolves(m[1])
			if counted {
				checked++
			}
			if counted && !ok {
				t.Errorf("%s names `%s`, which the tree does not declare", doc.path, m[1])
			}
		}
	}
	t.Logf("%d names checked", checked)
	if checked < 50 {
		t.Errorf("vacuous: only %d names checked", checked)
	}
}

// runPattern is a -run or -skip flag's pattern in a Makefile recipe or a
// workflow step, quoted or not.
var runPattern = regexp.MustCompile(`-(?:run|skip) +(?:'([^']*)'|"([^"]*)"|([^ \t\n]+))`)

// TestTestSelectorsSelect: every Test*, Benchmark* or Fuzz* alternative of
// a -run or -skip pattern in the Makefile and the CI workflow is the prefix
// of a test the tree declares, so deleting or renaming a test cannot
// silently empty a line of make race or make fault.
func TestTestSelectorsSelect(t *testing.T) {
	d := parseTree(t)
	checked := 0
	for _, path := range []string{"Makefile", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range runPattern.FindAllStringSubmatch(string(text), -1) {
			for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
				alt = strings.TrimRight(strings.TrimLeft(alt, "^("), "$)")
				if !testFunc.MatchString(alt) {
					continue
				}
				checked++
				if !d.declaresPrefix(alt) {
					t.Errorf("%s selects %q, which no declared test starts with", path, alt)
				}
			}
		}
	}
	t.Logf("%d selectors checked", checked)
	if checked < 30 {
		t.Errorf("vacuous: only %d selectors checked", checked)
	}
}

// declaresPrefix reports whether some top-level function of the tree is
// named prefix or starts with it.
func (d *declarations) declaresPrefix(prefix string) bool {
	for _, names := range d.pkgs {
		for name := range names {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
	}
	return false
}
