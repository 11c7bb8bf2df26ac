package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

var leValue = regexp.MustCompile(`le="[^"]*"`)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current /metrics output")

// promSurface reduces a Prometheus exposition to what a scraper's
// configuration depends on: the sorted # HELP / # TYPE lines and the sorted
// series (name and labels), values masked; the buckets of one histogram
// series collapse to a single le="*" line.
func promSurface(t *testing.T, text string) string {
	t.Helper()
	var meta, series []string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			meta = append(meta, line)
		default:
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				t.Fatalf("malformed exposition line: %q", line)
			}
			series = append(series, leValue.ReplaceAllString(line[:cut], `le="*"`))
		}
	}
	sort.Strings(meta)
	sort.Strings(series)
	series = slices.Compact(series)
	return strings.Join(meta, "\n") + "\n" + strings.Join(series, "\n") + "\n"
}

// jsonSurface reduces a JSON snapshot to its sorted set of key paths
// (array elements collapse to "[]"), values masked.
func jsonSurface(t *testing.T, text string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(text), &v); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, text)
	}
	paths := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				walk(prefix+"."+k, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		default:
			paths[prefix] = true
		}
	}
	walk("", v)
	keys := make([]string, 0, len(paths))
	for p := range paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

// TestMetricsGolden pins the metrics surface — every family's name, help
// text and type, every series' labels, every key of the JSON snapshot — for
// a fixed single-node scenario (a static source, a replica set, both hit by
// views and a query) and for a cluster-mode forwarder. Dashboards, alert
// rules, load.Harness.Run's scrape and mixserve's expvar read these names; a change
// to how metrics are declared must leave the file untouched. Regenerate
// deliberately with `make metrics-golden`.
func TestMetricsGolden(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := mediator.NewReplicaSet("dept-rs", []mediator.Wrapper{
		&flakyWrapper{name: "r0", doc: doc, schema: d},
		&flakyWrapper{name: "r1", doc: doc, schema: d},
	}, mediator.ReplicaSetOptions{HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	single, m := newServerAndMediator(t)
	if err := m.AddSource(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineUnionView("profs", []mediator.ViewPart{{
		Source: "dept-rs",
		Query:  xmas.MustParse(`SELECT X WHERE <department> X:<professor/> </department>`),
	}}); err != nil {
		t.Fatal(err)
	}
	forwarder := forwarderFor(t, single.URL, "members")

	for _, url := range []string{single.URL + "/views/members", single.URL + "/views/profs", forwarder.URL + "/views/members"} {
		if code, body, _ := get(t, url); code != 200 {
			t.Fatalf("GET %s: %d %s", url, code, body)
		}
	}
	if code, body := postBody(t, single.URL+"/views/members/query",
		`r = SELECT P WHERE <members> P:<professor/> </members>`); code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}

	var got strings.Builder
	for _, node := range []struct{ name, url string }{{"single-node", single.URL}, {"cluster forwarder", forwarder.URL}} {
		// The first scrape of each format puts the /metrics route itself
		// into the HTTP families; the second one is the surface.
		for _, format := range []string{"prometheus", "json"} {
			get(t, node.url+"/metrics?format="+format)
			code, body, _ := get(t, node.url+"/metrics?format="+format)
			if code != 200 {
				t.Fatalf("%s /metrics?format=%s: %d %s", node.name, format, code, body)
			}
			fmt.Fprintf(&got, "== %s, format=%s\n", node.name, format)
			if format == "json" {
				got.WriteString(jsonSurface(t, body))
			} else {
				got.WriteString(promSurface(t, body))
			}
		}
	}

	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("metrics surface differs from %s at line %d (regenerate with `make metrics-golden` if intended):\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
