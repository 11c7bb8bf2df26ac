package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseExposition is a minimal Prometheus text-format parser used by the
// tests: it checks line shapes and returns samples keyed by
// "name{labels}". HELP/TYPE headers are returned per family.
func parseExposition(t *testing.T, text string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = map[string]float64{}
	types = map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = val
	}
	return samples, types
}

func TestMetricWriterCountersAndGauges(t *testing.T) {
	var b strings.Builder
	mw := NewMetricWriter(&b)
	mw.Counter("mix_cache_hits_total", "materialization cache hits", 42)
	mw.Counter("mix_view_queries_total", "per-view queries", 3, Label{"view", "members"})
	mw.Counter("mix_view_queries_total", "per-view queries", 5, Label{"view", `we"ird\v`})
	mw.Gauge("mix_cache_size", "entries", 7)
	if mw.Err() != nil {
		t.Fatal(mw.Err())
	}
	out := b.String()
	samples, types := parseExposition(t, out)
	if samples["mix_cache_hits_total"] != 42 {
		t.Errorf("counter sample missing: %v", samples)
	}
	if samples[`mix_view_queries_total{view="members"}`] != 3 {
		t.Errorf("labeled sample missing: %v", samples)
	}
	if samples[`mix_view_queries_total{view="we\"ird\\v"}`] != 5 {
		t.Errorf("label escaping wrong: %v", samples)
	}
	if types["mix_view_queries_total"] != "counter" || types["mix_cache_size"] != "gauge" {
		t.Errorf("types = %v", types)
	}
	// One header per family even with two series.
	if n := strings.Count(out, "# TYPE mix_view_queries_total"); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

func TestMetricWriterHistogramCumulative(t *testing.T) {
	h := NewHistogramBuckets([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second) // +Inf bucket
	var b strings.Builder
	mw := NewMetricWriter(&b)
	mw.Histogram("mix_view_query_duration_seconds", "query latency", h.Snapshot(), Label{"view", "v"})
	if mw.Err() != nil {
		t.Fatal(mw.Err())
	}
	samples, types := parseExposition(t, b.String())
	if types["mix_view_query_duration_seconds"] != "histogram" {
		t.Fatalf("types = %v", types)
	}
	want := map[string]float64{
		`mix_view_query_duration_seconds_bucket{view="v",le="0.001"}`: 1,
		`mix_view_query_duration_seconds_bucket{view="v",le="0.01"}`:  3,
		`mix_view_query_duration_seconds_bucket{view="v",le="0.1"}`:   3,
		`mix_view_query_duration_seconds_bucket{view="v",le="+Inf"}`:  4,
		`mix_view_query_duration_seconds_count{view="v"}`:             4,
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("%s = %v, want %v", k, samples[k], v)
		}
	}
	if sum := samples[`mix_view_query_duration_seconds_sum{view="v"}`]; sum < 2.01 || sum > 2.02 {
		t.Errorf("sum = %v, want ≈2.0105", sum)
	}
}

// TestMetricWriterStruct: a series is declared by its field's tags — kind
// from the name, nested structs descended into, untagged fields skipped.
func TestMetricWriterStruct(t *testing.T) {
	type inner struct {
		Size int `json:"size" metric:"m_size" help:"Entries."`
	}
	var b strings.Builder
	mw := NewMetricWriter(&b)
	mw.Struct(struct {
		Self   string
		Hits   int64   `metric:"m_hits_total" help:"Hits."`
		Share  float64 `metric:"m_share" help:"Share."`
		Inner  inner
		ByView map[string]int64
		hidden inner
	}{Self: "n", Hits: 3, Share: 0.5, Inner: inner{Size: 7}}, Label{"node", "n"})
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP m_hits_total Hits.
# TYPE m_hits_total counter
m_hits_total{node="n"} 3
# HELP m_share Share.
# TYPE m_share gauge
m_share{node="n"} 0.5
# HELP m_size Entries.
# TYPE m_size gauge
m_size{node="n"} 7
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}
