package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, b.String()
}

func TestInvalidateEmptyBodyIsGlobal(t *testing.T) {
	srv, m := newServerAndMediator(t)
	code, body := postBody(t, srv.URL+"/invalidate", "")
	if code != http.StatusNoContent {
		t.Fatalf("empty body: %d %s, want 204", code, body)
	}
	if st := m.Stats(); st.Invalidations != 1 || st.SourceInvalidations != 0 {
		t.Errorf("Invalidations=%d SourceInvalidations=%d, want 1/0", st.Invalidations, st.SourceInvalidations)
	}
}

func TestInvalidateSourceEndpoint(t *testing.T) {
	srv, m := newServerAndMediator(t)
	code, body := postBody(t, srv.URL+"/invalidate", `{"source": "cs-dept"}`)
	if code != http.StatusOK {
		t.Fatalf("scoped invalidate: %d %s, want 200", code, body)
	}
	var got struct {
		Source           string   `json:"source"`
		InvalidatedViews []string `json:"invalidated_views"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("unparseable response %q: %v", body, err)
	}
	if got.Source != "cs-dept" {
		t.Errorf("source = %q", got.Source)
	}
	if len(got.InvalidatedViews) != 1 || got.InvalidatedViews[0] != "members" {
		t.Errorf("invalidated_views = %v, want [members]", got.InvalidatedViews)
	}
	if st := m.Stats(); st.SourceInvalidations != 1 || st.Invalidations != 0 {
		t.Errorf("SourceInvalidations=%d Invalidations=%d, want 1/0", st.SourceInvalidations, st.Invalidations)
	}
}

func TestInvalidateBadBodies(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"source": ""}`, http.StatusBadRequest},
		{`{"other": "x"}`, http.StatusBadRequest},
		{`{"source": "nosuch"}`, http.StatusNotFound},
	}
	for _, c := range cases {
		code, body := postBody(t, srv.URL+"/invalidate", c.body)
		if code != c.want {
			t.Errorf("body %q: %d %s, want %d", c.body, code, body, c.want)
		}
	}
}

// TestMetricsCarryDeltaCounters: the scoped invalidation and the delta
// materialization counters reach both exposition formats.
func TestMetricsCarryDeltaCounters(t *testing.T) {
	srv, _ := newServerAndMediator(t)
	if code, body := postBody(t, srv.URL+"/invalidate", `{"source": "cs-dept"}`); code != 200 {
		t.Fatalf("invalidate: %d %s", code, body)
	}
	code, body, _ := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	var js map[string]any
	if err := json.Unmarshal([]byte(body), &js); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	for _, key := range []string{"source_invalidations", "parts_recomputed", "parts_reused", "stream_validation"} {
		if _, ok := js[key]; !ok {
			t.Errorf("metrics JSON lacks %q", key)
		}
	}
	if js["source_invalidations"].(float64) != 1 {
		t.Errorf("source_invalidations = %v, want 1", js["source_invalidations"])
	}
	code, body, _ = get(t, srv.URL+"/metrics?format=prometheus")
	if code != 200 {
		t.Fatalf("prometheus metrics: %d", code)
	}
	for _, name := range []string{
		"mix_source_invalidations_total 1",
		"mix_parts_recomputed_total",
		"mix_parts_reused_total",
		"mix_stream_validated_documents_total",
		"mix_stream_validated_events_total",
		"mix_stream_validated_bytes_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("prometheus exposition lacks %q", name)
		}
	}
}

// TestInvalidateSourceAllocs is the ratchet on a scoped invalidation through
// the handler, httptest's request in the count: the body is read into one
// buffer and decoded, the view list is the one slice InvalidateSource
// allocates, and the reply is written by hand. Measured 24 (26 while the
// body was copied to be trimmed, the Content-Type value was a slice of its
// own and the reply a boxed struct through a json.Encoder); ceiling + 2.
func TestInvalidateSourceAllocs(t *testing.T) {
	h := New(benchmarkSizedNode(t))
	const body = `{"source": "b3"}`
	const want = `{"source":"b3","invalidated_views":["w"]}` + "\n"
	w := &discard{h: http.Header{}}
	do := func() {
		w.n = 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/invalidate", strings.NewReader(body)))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate", strings.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Body.String() != want || rec.Header().Get("Content-Type") != "application/json; charset=utf-8" {
		t.Fatalf("POST /invalidate: %d %q %v", rec.Code, rec.Body, rec.Header())
	}
	allocs := testing.AllocsPerRun(50, do)
	t.Logf("POST /invalidate %s: %v allocs", body, allocs)
	if w.n != len(want) {
		t.Fatalf("POST /invalidate wrote %d bytes, want %d", w.n, len(want))
	}
	if allocs > 26 {
		t.Errorf("POST /invalidate: %v allocs, want ≤ 26", allocs)
	}
}

// TestRefetchReadAllocs is the ratchet on a read that refetches one of its
// parts: an invalidation of one of six sources, then a query of the view.
// The one part it leads runs on the reading goroutine (no goroutine, cancel
// context or WaitGroup), the fetch's stale note is its context, and the
// trace that outgrows its record spills into one block; a StaticSource hands
// back the document it holds, so nothing is evaluated. Measured 53 (72 with a
// goroutine per part and a trace overflow that grew a slice at a time);
// ceiling + 3.
func TestRefetchReadAllocs(t *testing.T) {
	m := benchmarkSizedNode(t)
	h := New(m)
	w := &discard{h: http.Header{}}
	do := func() {
		w.n = 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/invalidate", strings.NewReader(`{"source": "b3"}`)))
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/views/w/query", strings.NewReader(benchmarkSizedQuery)))
	}
	for i := 0; i < 3; i++ {
		do() // evaluates, finds, renders: every part brings its bytes from here on
	}
	before := m.Stats()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, do)
	after := m.Stats()
	t.Logf("an invalidation and a read that refetches one part: %v allocs", allocs)
	if got := after.PartsRevalidated - before.PartsRevalidated; got != runs+1 {
		t.Fatalf("%d parts revalidated over %d reads, want one a read", got, runs+1)
	}
	if w.n < 6*20<<10 {
		t.Fatalf("the answer is %d bytes", w.n)
	}
	if allocs > 56 {
		t.Errorf("an invalidation and a read that refetches one part: %v allocs, want ≤ 56", allocs)
	}
}

// checkInvalidateReply fails t unless writeInvalidateReply writes what
// json.NewEncoder(w).Encode wrote of the reply before it was written by hand.
func checkInvalidateReply(t *testing.T, source string, views []string) {
	t.Helper()
	var want, got bytes.Buffer
	if err := json.NewEncoder(&want).Encode(struct {
		Source           string   `json:"source"`
		InvalidatedViews []string `json:"invalidated_views"`
	}{Source: source, InvalidatedViews: views}); err != nil {
		t.Fatal(err)
	}
	if err := writeInvalidateReply(&got, source, views); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("reply to %q %q:\n got %q\nwant %q", source, views, got.Bytes(), want.Bytes())
	}
}

// TestInvalidateReplyIsEncodingJSONs: the reply is byte for byte what
// encoding/json writes, for names it writes as they are and for names it
// escapes.
func TestInvalidateReplyIsEncodingJSONs(t *testing.T) {
	for _, c := range []struct {
		source string
		views  []string
	}{
		{"cs-dept", []string{"members"}},
		{"b3", []string{"u", "w", "x.y_z~"}},
		{"lonely", []string{}},
		{"lonely", nil},
		{"", []string{""}},
		{`say "hi"`, []string{`a"b`}},
		{`C:\dir`, []string{`\`, `\\n`}},
		{"a<b", []string{"x>y", "&amp;"}},
		{"tab\there", []string{"nl\n", "nul\x00", "esc\x1b", "del\x7f"}},
		{"Zürich", []string{"東京", "emoji 🙂"}},
		{"bad\xffutf8", []string{"\xc3", "ok"}},
		{"sep\u2028", []string{"para\u2029"}},
		{"http://127.0.0.1:8080/views/v", []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"}},
	} {
		checkInvalidateReply(t, c.source, c.views)
	}
}

// FuzzInvalidateReply: whatever the names, the hand-written reply is
// encoding/json's.
func FuzzInvalidateReply(f *testing.F) {
	f.Add("cs-dept", "members", "", uint8(1))
	f.Add(`q"uote`, "back\\slash", "<&>", uint8(2))
	f.Add("ctl\x01", "\xff\xfe", "\u2028", uint8(2))
	f.Add("none", "", "", uint8(0))
	f.Fuzz(func(t *testing.T, source, a, b string, n uint8) {
		checkInvalidateReply(t, source, []string{a, b}[:n%3])
	})
}
