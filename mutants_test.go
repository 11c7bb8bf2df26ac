package mix_test

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mutantsFile is the table of mutants: code changes that each break a
// promise of the tree — a view document valid against its view DTD, an
// answer bit-identical to the naive mediator's, a lease that ends before
// its owner's record — and the tests that must each fail on it. A test that
// no row names as the last killer of some mutant can go; one that is, stays
// (README, "Testing").
const mutantsFile = "testdata/mutants.txt"

// A mutant is one row of mutantsFile: in File, the one occurrence of Old
// replaced by New, after which every test of Tests, in Pkgs, fails.
type mutant struct {
	ID, What, File, Old, New string
	Pkgs, Tests              []string
	line                     int
}

// readMutants reads mutantsFile. A row starts at a "mutant <id>" line and
// its other lines are "what <one line>", "file <path>", "old <text>" and
// "new <text>" (repeated, they are the snippet's lines in order; a bare
// "new" is an empty line), "pkg <package>..." and "test <name>...". Blank
// lines and lines starting with "#" are left out.
func readMutants(t *testing.T) []mutant {
	t.Helper()
	f, err := os.Open(mutantsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []mutant
	var oldLines, newLines []string
	flush := func() {
		if len(rows) > 0 {
			m := &rows[len(rows)-1]
			m.Old, m.New = strings.Join(oldLines, "\n"), strings.Join(newLines, "\n")
		}
		oldLines, newLines = nil, nil
	}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		if key != "mutant" && len(rows) == 0 {
			t.Fatalf("%s:%d: %q before the first mutant line", mutantsFile, n, line)
		}
		switch key {
		case "mutant":
			flush()
			rows = append(rows, mutant{ID: val, line: n})
			continue
		case "old":
			oldLines = append(oldLines, val)
			continue
		case "new":
			newLines = append(newLines, val)
			continue
		}
		m := &rows[len(rows)-1]
		switch key {
		case "what":
			m.What = val
		case "file":
			m.File = val
		case "pkg":
			m.Pkgs = append(m.Pkgs, strings.Fields(val)...)
		case "test":
			m.Tests = append(m.Tests, strings.Fields(val)...)
		default:
			t.Fatalf("%s:%d: unknown key %q", mutantsFile, n, key)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestMutantsTableMatchesTheTree checks the table without running it (that
// is make mutants): each row's old snippet occurs exactly once in its file,
// and each test it names is declared in one of its packages — so a change
// to the code or a deleted test that leaves a row behind fails here, not
// only when the mutants next run.
func TestMutantsTableMatchesTheTree(t *testing.T) {
	rows := readMutants(t)
	d := parseTree(t)
	ids := map[string]bool{}
	for _, m := range rows {
		at := mutantsFile + ":" + strconv.Itoa(m.line) + " " + m.ID
		switch {
		case m.ID == "" || strings.ContainsAny(m.ID, " /"):
			t.Errorf("%s: an id is one word with no slash", at)
		case ids[m.ID]:
			t.Errorf("%s: the id is taken", at)
		case m.What == "" || m.File == "" || m.Old == "" || len(m.Pkgs) == 0 || len(m.Tests) == 0:
			t.Errorf("%s: a row has what, file, old, pkg and test", at)
		case m.Old == m.New:
			t.Errorf("%s: new is old", at)
		}
		ids[m.ID] = true
		if src, err := os.ReadFile(m.File); err != nil {
			t.Errorf("%s: %v", at, err)
		} else if n := strings.Count(string(src), m.Old); n != 1 {
			t.Errorf("%s: the old snippet occurs %d times in %s, want once", at, n, m.File)
		}
		for _, name := range m.Tests {
			declared := false
			for _, pkg := range m.Pkgs {
				declared = declared || d.funcs[filepath.Clean(pkg)][name]
			}
			if !testFunc.MatchString(name) || !declared {
				t.Errorf("%s: no package of %v declares the test %s", at, m.Pkgs, name)
			}
		}
	}
	if len(rows) < 30 {
		t.Errorf("only %d mutants in %s", len(rows), mutantsFile)
	}
}
