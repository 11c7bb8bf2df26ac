//go:build mutants

package mix_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMutantsAreKilled runs every row of mutantsFile (make mutants): the
// row's file is mutated in a temporary directory and laid over the tree with
// go test -overlay, so the tree itself is never edited, and the row's tests
// run on its packages. A row passes only if every test it names reports
// fail. A mutant that does not build or vet, or a named test that never
// ran, is a broken row, not a kill.
func TestMutantsAreKilled(t *testing.T) {
	for _, m := range readMutants(t) {
		t.Run(m.ID, func(t *testing.T) {
			src, err := os.ReadFile(m.File)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(string(src), m.Old) != 1 {
				t.Fatalf("the old snippet does not occur once in %s", m.File)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.File))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(m.File)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"test", "-overlay", overlayPath, "-json", "-count=1", "-timeout", "60s",
				"-run", "^(" + strings.Join(m.Tests, "|") + ")$"}, m.Pkgs...)
			start := time.Now()
			out, _ := exec.Command("go", args...).Output() // the mutant's tests fail: a non-zero exit is the point
			got := testActions(out)
			for _, name := range m.Tests {
				switch got[name] {
				case "fail":
				case "":
					t.Errorf("%s never ran: a broken row (the mutant does not build or vet?)\n%s", name, buildOutput(out))
				default:
					t.Errorf("the mutant survives %s (%s): %s", name, got[name], m.What)
				}
			}
			t.Logf("%s in %v", m.ID, time.Since(start).Round(time.Millisecond))
		})
	}
}

// testActions is the last outcome (pass, fail or skip) go test -json reports
// for each top-level test.
func testActions(out []byte) map[string]string {
	got := map[string]string{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		var e struct{ Action, Test string }
		if json.Unmarshal(line, &e) != nil || e.Test == "" || strings.Contains(e.Test, "/") {
			continue
		}
		switch e.Action {
		case "pass", "fail", "skip":
			got[e.Test] = e.Action
		}
	}
	return got
}

// buildOutput is what go test -json said outside any test: a build or vet
// failure, a panic outside a test.
func buildOutput(out []byte) string {
	var b strings.Builder
	for _, line := range bytes.Split(out, []byte("\n")) {
		var e struct{ Action, Test, Output string }
		if json.Unmarshal(line, &e) == nil && e.Test == "" && (e.Action == "output" || e.Action == "build-output") {
			b.WriteString(e.Output)
		}
	}
	return b.String()
}
