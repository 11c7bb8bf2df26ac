package load

import (
	"context"
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// updateReportGolden rewrites testdata/reports.golden. The file pins what
// the three archived reports (BENCH_serve.json, CHAOS_report.json,
// CLUSTER_report.json) are made of — every JSON key path and every check
// name — so "the reports did not change" is a test and not a promise.
// Regenerate it only from a commit whose reports are the reference, and
// review the diff like an API change.
var updateReportGolden = flag.Bool("update", false, "rewrite testdata/reports.golden from the current report types and campaigns")

// jsonPaths lists the key paths encoding/json gives a value of type t,
// with "*" for a map's keys and "[]" for a slice's elements.
func jsonPaths(t reflect.Type, prefix string, out *[]string) {
	switch t.Kind() {
	case reflect.Pointer:
		jsonPaths(t.Elem(), prefix, out)
	case reflect.Map:
		jsonPaths(t.Elem(), prefix+".*", out)
	case reflect.Slice, reflect.Array:
		jsonPaths(t.Elem(), prefix+"[]", out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || name == "-" {
				continue
			}
			if name == "" {
				name = f.Name
			}
			jsonPaths(f.Type, prefix+"."+name, out)
		}
	default:
		*out = append(*out, prefix)
	}
}

func checkNames(cs []SLOCheck) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return out
}

// TestReportShapeGolden compares the reports' key paths and the campaigns'
// check names against testdata/reports.golden. The campaigns run with
// phases too short to judge anything: a check's name does not depend on
// whether it passed.
func TestReportShapeGolden(t *testing.T) {
	ctx := context.Background()

	// Every op kind ran and the comparison twin was asked for, so Evaluate
	// states every check it has.
	serve := &Report{Planned: 1, Ops: map[string]OpStats{}, PruneCompare: &PruneCompare{}}
	for _, k := range OpKinds() {
		serve.Ops[string(k)] = OpStats{Count: 1}
	}
	serve.Evaluate(SLO{})
	chaos, err := RunChaos(ctx, ChaosOptions{Seed: 1, RPS: 40, Phase: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := RunCluster(ctx, ClusterOptions{Seed: 1, RPS: 40, Phase: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, r := range []struct {
		name   string
		typ    reflect.Type
		checks []SLOCheck
	}{
		{"Report", reflect.TypeOf(Report{}), serve.SLO},
		{"ChaosReport", reflect.TypeOf(ChaosReport{}), chaos.Checks},
		{"ClusterReport", reflect.TypeOf(ClusterReport{}), cluster.Checks},
	} {
		var paths []string
		jsonPaths(r.typ, "", &paths)
		sort.Strings(paths)
		b.WriteString("# " + r.name + " keys\n" + strings.Join(paths, "\n") + "\n")
		b.WriteString("# " + r.name + " checks\n" + strings.Join(checkNames(r.checks), "\n") + "\n")
	}
	got := b.String()

	const path = "testdata/reports.golden"
	if *updateReportGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report shape differs from %s (regenerate with -update only if the change is meant):\n%s",
			path, firstDiff(got, string(want)))
	}
}
