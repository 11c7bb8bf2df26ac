package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// from concurrent requests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// getWithTrace issues a GET with an X-Mix-Trace-Id request header and
// returns status, body, and response headers.
func getWithTrace(t *testing.T, url, traceID string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set(TraceHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, b.String(), resp.Header
}

// parseProm parses Prometheus text exposition into metric values keyed by
// "name{labels}" exactly as rendered (comment lines are skipped).
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

// TestTraceHeaderEcho: a well-formed incoming X-Mix-Trace-Id is honored
// and echoed; absent or malformed IDs get a freshly minted one. The header
// is present on every response, including 404s.
func TestTraceHeaderEcho(t *testing.T) {
	srv := newServer(t)

	_, _, hdr := getWithTrace(t, srv.URL+"/views", "caller-trace-42")
	if got := hdr.Get(TraceHeader); got != "caller-trace-42" {
		t.Errorf("valid incoming ID: echoed %q, want caller-trace-42", got)
	}

	_, _, hdr = getWithTrace(t, srv.URL+"/views", "")
	if got := hdr.Get(TraceHeader); got == "" || !obs.ValidTraceID(got) {
		t.Errorf("no incoming ID: minted %q, want a valid fresh ID", got)
	}

	_, _, hdr = getWithTrace(t, srv.URL+"/views", "not a valid id!!")
	if got := hdr.Get(TraceHeader); got == "not a valid id!!" || !obs.ValidTraceID(got) {
		t.Errorf("malformed incoming ID: echoed %q, want a fresh valid ID", got)
	}

	code, _, hdr := getWithTrace(t, srv.URL+"/views/nosuch", "lost-404")
	if code != http.StatusNotFound {
		t.Fatalf("unknown view: %d, want 404", code)
	}
	if got := hdr.Get(TraceHeader); got != "lost-404" {
		t.Errorf("404 response: trace header %q, want lost-404", got)
	}
}

// TestTraceHeaderOnDegraded: budget-degraded view responses carry the
// trace header next to X-Mix-Degraded, so a degraded response can be
// looked up in /debug/trace by the ID the client already holds.
func TestTraceHeaderOnDegraded(t *testing.T) {
	srv, _ := newDegradedServer(t)
	code, _, hdr := getWithTrace(t, srv.URL+"/views/blow", "degraded-trace-1")
	if code != 200 {
		t.Fatalf("degraded view: %d", code)
	}
	if hdr.Get("X-Mix-Degraded") != "true" {
		t.Fatal("response must be degraded for this test to mean anything")
	}
	if got := hdr.Get(TraceHeader); got != "degraded-trace-1" {
		t.Errorf("degraded response: trace header %q, want degraded-trace-1", got)
	}
}

// TestTraceHeaderOnBreakerOpen: with a breaker open, both the failing
// response (breaker still closed) and the degraded-but-served response
// (breaker open) echo the caller's trace ID.
func TestTraceHeaderOnBreakerOpen(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	m := mediator.New("campus")
	healthy, err := mediator.NewStaticSource("cs-dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(healthy); err != nil {
		t.Fatal(err)
	}
	remote, err := mediator.NewStaticSource("remote-dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	// Every scripted fetch fails, so the breaker (threshold 1) trips on
	// the first materialization and rejects from the second on.
	down := errors.New("site unreachable")
	faulty := mediator.NewFaultSource(remote,
		mediator.Fault{Err: down}, mediator.Fault{Err: down}, mediator.Fault{Err: down})
	bs := mediator.NewBreakerSource(faulty, mediator.BreakerOptions{Threshold: 1, Cooldown: time.Hour})
	if err := m.AddSource(bs); err != nil {
		t.Fatal(err)
	}
	profQ := `v = SELECT X WHERE <department> X:<professor/> </department>`
	if _, err := m.DefineUnionView("allProfs", []mediator.ViewPart{
		{Source: "cs-dept", Query: xmas.MustParse(profQ)},
		{Source: "remote-dept", Query: xmas.MustParse(profQ)},
	}); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(8)
	srv := httptest.NewServer(New(m, WithTracer(tracer)))
	t.Cleanup(srv.Close)

	// Breaker closed: the injected failure propagates as a 500 — which
	// must still carry the caller's trace ID.
	code, _, hdr := getWithTrace(t, srv.URL+"/views/allProfs", "breaker-trace-fail")
	if code != http.StatusInternalServerError {
		t.Fatalf("first materialization: %d, want 500 (breaker not yet open)", code)
	}
	if got := hdr.Get(TraceHeader); got != "breaker-trace-fail" {
		t.Errorf("failing response: trace header %q, want breaker-trace-fail", got)
	}

	// Breaker open: degraded 200, same trace plumbing.
	code, _, hdr = getWithTrace(t, srv.URL+"/views/allProfs", "breaker-trace-open")
	if code != 200 {
		t.Fatalf("open-breaker materialization: %d, want degraded 200", code)
	}
	if hdr.Get("X-Mix-Degraded") != "true" {
		t.Error("open-breaker response must advertise X-Mix-Degraded")
	}
	if got := hdr.Get(TraceHeader); got != "breaker-trace-open" {
		t.Errorf("degraded response: trace header %q, want breaker-trace-open", got)
	}

	// The degraded request's trace records the breaker drop.
	var found *obs.TraceSnapshot
	for _, ts := range tracer.Traces(0) {
		if ts.TraceID == "breaker-trace-open" {
			found = ts
		}
	}
	if found == nil {
		t.Fatal("trace breaker-trace-open not recorded")
	}
	mat := found.Span("materialize")
	if mat == nil {
		t.Fatalf("trace has no materialize span: %+v", found.Spans)
	}
	dropped := false
	for i := range found.Spans {
		for _, ev := range found.Spans[i].Events {
			if ev.Name == "breaker.open_drop" || ev.Name == "materialize.degraded" {
				dropped = true
			}
		}
	}
	if !dropped {
		t.Errorf("trace must record the breaker drop or degradation event: %+v", found.Spans)
	}
}

// TestMetricsPrometheusExposition: ?format=prometheus renders the serving
// counters and latency histograms in text exposition format; the default
// stays JSON for existing consumers, and scraper-style Accept headers
// negotiate the text format.
func TestMetricsPrometheusExposition(t *testing.T) {
	srv := newServer(t)

	// Two view fetches: one miss (materialization), one hit.
	for i := 0; i < 2; i++ {
		if code, body, _ := get(t, srv.URL+"/views/members"); code != 200 {
			t.Fatalf("view: %d %s", code, body)
		}
	}

	code, body, hdr := get(t, srv.URL+"/metrics?format=prometheus")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	metrics := parseProm(t, body)
	if got := metrics["mix_cache_misses_total"]; got != 1 {
		t.Errorf("mix_cache_misses_total = %v, want 1", got)
	}
	if got := metrics["mix_cache_hits_total"]; got != 1 {
		t.Errorf("mix_cache_hits_total = %v, want 1", got)
	}
	if got := metrics[`mix_view_materializations_total{view="members"}`]; got != 1 {
		t.Errorf("per-view materializations = %v, want 1", got)
	}
	// Histogram: the +Inf bucket and _count must agree with one observed
	// materialization, and _sum must be positive.
	if got := metrics[`mix_view_materialize_duration_seconds_bucket{view="members",le="+Inf"}`]; got != 1 {
		t.Errorf("materialize +Inf bucket = %v, want 1", got)
	}
	if got := metrics[`mix_view_materialize_duration_seconds_count{view="members"}`]; got != 1 {
		t.Errorf("materialize histogram count = %v, want 1", got)
	}
	if got := metrics[`mix_view_materialize_duration_seconds_sum{view="members"}`]; got <= 0 {
		t.Errorf("materialize histogram sum = %v, want > 0", got)
	}
	// HTTP-layer histogram for the route the two requests hit.
	if got := metrics[`mix_http_request_duration_seconds_count{pattern="GET /views/{name}"}`]; got != 2 {
		t.Errorf("http histogram count = %v, want 2", got)
	}
	if got := metrics[`mix_http_requests_total{pattern="GET /views/{name}",status="200"}`]; got != 2 {
		t.Errorf("http requests counter = %v, want 2", got)
	}
	// Pruning counters are always exposed (values depend on global verdict
	//-cache state shared across tests, so only presence is asserted).
	for _, name := range []string{
		"mix_parts_pruned_total",
		"mix_prune_verdict_hits_total",
		"mix_prune_verdict_misses_total",
		"mix_prune_verdict_cache_size",
	} {
		if _, ok := metrics[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	// Cumulative buckets: each le bucket count must be <= the next.
	var prev float64
	for _, b := range obs.DefaultLatencyBuckets {
		key := fmt.Sprintf(`mix_view_materialize_duration_seconds_bucket{view="members",le="%g"}`, b)
		v, ok := metrics[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Errorf("bucket %s = %v < previous %v; buckets must be cumulative", key, v, prev)
		}
		prev = v
	}

	// Accept-based negotiation, as a Prometheus scraper sends it.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Accept negotiation: Content-Type = %q, want text exposition", ct)
	}

	// The default response is still the JSON snapshot (back-compat).
	_, body, hdr = get(t, srv.URL+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default Content-Type = %q, want JSON", ct)
	}
	var st mediator.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("default /metrics not JSON: %v", err)
	}
}

// debugTracePayload mirrors the GET /debug/trace response shape.
type debugTracePayload struct {
	Capacity int                  `json:"capacity"`
	Recorded int64                `json:"recorded"`
	Traces   []*obs.TraceSnapshot `json:"traces"`
}

func getDebugTraces(t *testing.T, base, query string) debugTracePayload {
	t.Helper()
	code, body, _ := get(t, base+"/debug/trace"+query)
	if code != 200 {
		t.Fatalf("debug/trace: %d %s", code, body)
	}
	var p debugTracePayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("debug/trace not JSON: %v\n%s", err, body)
	}
	return p
}

// TestDebugTraceRingConcurrent hammers the handler from many goroutines
// and asserts the /debug/trace ring holds exactly its capacity of
// distinct, most-recent traces (run under -race this doubles as the
// ring's concurrency test at the HTTP layer).
func TestDebugTraceRingConcurrent(t *testing.T) {
	m := mediator.New("campus")
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	src, err := mediator.NewStaticSource("cs-dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	const capacity = 8
	tracer := obs.NewTracer(capacity)
	srv := httptest.NewServer(New(m, WithTracer(tracer)))
	t.Cleanup(srv.Close)

	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, _, _ = getWithTrace(t, srv.URL+"/sources", fmt.Sprintf("ring-%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()

	p := getDebugTraces(t, srv.URL, "")
	if p.Capacity != capacity {
		t.Errorf("capacity = %d, want %d", p.Capacity, capacity)
	}
	if p.Recorded < workers*perWorker {
		t.Errorf("recorded = %d, want >= %d", p.Recorded, workers*perWorker)
	}
	if len(p.Traces) != capacity {
		t.Fatalf("ring holds %d traces, want exactly %d", len(p.Traces), capacity)
	}
	seen := map[string]bool{}
	for _, ts := range p.Traces {
		if seen[ts.TraceID] {
			t.Errorf("duplicate trace %s in ring", ts.TraceID)
		}
		seen[ts.TraceID] = true
	}

	if lim := getDebugTraces(t, srv.URL, "?limit=3"); len(lim.Traces) != 3 {
		t.Errorf("limit=3 returned %d traces", len(lim.Traces))
	}
	if code, _, _ := get(t, srv.URL+"/debug/trace?limit=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus limit: %d, want 400", code)
	}
}

// TestEndToEndObservability is the acceptance scenario: a mixserve-shaped
// handler with fault injection and an inference budget serves a faulted
// request, a successful request, and an inference request — and the
// trace ring, the Prometheus exposition, and the access log all tell the
// same story under the same trace IDs.
func TestEndToEndObservability(t *testing.T) {
	// The "cold compile must charge" assertions below need cold process-wide
	// caches, whatever ran before (an earlier test, or -count=2's first pass).
	automata.PurgeCache()
	infer.PurgeSatisfiabilityCache()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	m := mediator.New("campus")
	m.SetInferenceBudget(budget.Limits{MaxStates: 1 << 20})
	src, err := mediator.NewStaticSource("cs-dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	// Fault injection: the first fetch fails, later ones pass through.
	faulty := mediator.NewFaultSource(src, mediator.Fault{Err: errors.New("injected outage")})
	if err := m.AddSource(faulty); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("cs-dept", xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(16)
	logbuf := &syncBuffer{}
	srv := httptest.NewServer(New(m,
		WithTracer(tracer),
		WithLogger(obs.NewLogger(logbuf, slog.LevelInfo))))
	t.Cleanup(srv.Close)

	// 1. Faulted materialization: 500, trace records the fetch failure.
	code, _, hdr := getWithTrace(t, srv.URL+"/views/members", "e2e-fault")
	if code != http.StatusInternalServerError {
		t.Fatalf("faulted request: %d, want 500", code)
	}
	if hdr.Get(TraceHeader) != "e2e-fault" {
		t.Errorf("faulted response trace header = %q", hdr.Get(TraceHeader))
	}

	// 2. Healthy materialization: 200.
	if code, body, _ := getWithTrace(t, srv.URL+"/views/members", "e2e-ok"); code != 200 {
		t.Fatalf("healthy request: %d %s", code, body)
	}

	// 3. Inference-as-a-service under the budget. The posted DTD's element
	// names are unique to this test so its content models are cold in the
	// process-wide automata cache, and the two overlapping selections under
	// e2eObsItem send its validity check to the containment fallback, whose
	// compile charges the budget.
	inferBody := `<!DOCTYPE e2eObsRoot [
  <!ELEMENT e2eObsRoot (e2eObsItem*)>
  <!ELEMENT e2eObsItem (e2eObsName, e2eObsNote?)>
  <!ELEMENT e2eObsName (#PCDATA)>
  <!ELEMENT e2eObsNote (#PCDATA)>
]>
picked = SELECT X WHERE <e2eObsRoot> X:<e2eObsItem><e2eObsName id=A/><e2eObsName|e2eObsNote id=B/></> </e2eObsRoot> AND A != B`
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/infer", strings.NewReader(inferBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "e2e-infer")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("infer request: %d", resp.StatusCode)
	}
	if resp.Header.Get(TraceHeader) != "e2e-infer" {
		t.Errorf("infer response trace header = %q", resp.Header.Get(TraceHeader))
	}

	// The trace ring tells the story. Faulted request: a materialize span
	// whose source.fetch child carries the injected error.
	traces := map[string]*obs.TraceSnapshot{}
	for _, ts := range tracer.Traces(0) {
		traces[ts.TraceID] = ts
	}
	fault := traces["e2e-fault"]
	if fault == nil {
		t.Fatal("trace e2e-fault not recorded")
	}
	if fault.Span("materialize") == nil {
		t.Errorf("e2e-fault trace lacks a materialize span: %+v", fault.Spans)
	}
	fetch := fault.Span("source.fetch")
	if fetch == nil {
		t.Fatalf("e2e-fault trace lacks a source.fetch span: %+v", fault.Spans)
	}
	faultAttr := ""
	for _, a := range fetch.Attrs {
		if a.Key == "error" {
			faultAttr = a.Value
		}
	}
	if !strings.Contains(faultAttr, "injected outage") {
		t.Errorf("source.fetch error attr = %q, want the injected fault", faultAttr)
	}

	// Healthy request: materialize + source.fetch + part evaluation spans,
	// parented under the request root.
	ok := traces["e2e-ok"]
	if ok == nil {
		t.Fatal("trace e2e-ok not recorded")
	}
	if ok.Root != "http GET" {
		t.Errorf("root span = %q, want http GET", ok.Root)
	}
	for _, name := range []string{"materialize", "source.fetch", "part.eval"} {
		if ok.Span(name) == nil {
			t.Errorf("e2e-ok trace lacks span %q: %+v", name, ok.Spans)
		}
	}

	// Inference request: an infer span under the root, carrying
	// budget-charge counters from the cold automata compiles.
	inferTrace := traces["e2e-infer"]
	if inferTrace == nil {
		t.Fatal("trace e2e-infer not recorded")
	}
	infSpan := inferTrace.Span("infer")
	if infSpan == nil {
		t.Fatalf("e2e-infer trace lacks an infer span: %+v", inferTrace.Spans)
	}
	if infSpan.Counts["budget.dfa-states"] == 0 {
		t.Errorf("infer span counts = %v, want budget.dfa-states > 0 (cold compile must charge)", infSpan.Counts)
	}
	compiled := false
	for _, ev := range infSpan.Events {
		if ev.Name == "automata.compile" {
			compiled = true
		}
	}
	if !compiled {
		t.Errorf("infer span events = %+v, want an automata.compile budget event", infSpan.Events)
	}

	// The Prometheus exposition carries the view latency histogram.
	_, promBody, _ := get(t, srv.URL+"/metrics?format=prometheus")
	metrics := parseProm(t, promBody)
	if got := metrics[`mix_view_materialize_duration_seconds_count{view="members"}`]; got < 1 {
		t.Errorf("materialize histogram count = %v, want >= 1", got)
	}
	if got := metrics[`mix_http_requests_total{pattern="GET /views/{name}",status="500"}`]; got != 1 {
		t.Errorf("faulted request not counted: %v", got)
	}

	// The access log correlates by the same trace IDs.
	logs := logbuf.String()
	for _, id := range []string{"e2e-fault", "e2e-ok", "e2e-infer"} {
		if !strings.Contains(logs, `"trace_id":"`+id+`"`) {
			t.Errorf("access log lacks trace_id %s:\n%s", id, logs)
		}
	}
	// The faulted request logs at error level with its status.
	if !strings.Contains(logs, `"level":"ERROR"`) {
		t.Errorf("access log lacks an ERROR line for the 500:\n%s", logs)
	}
}

// deadlineRecorder is a ResponseWriter with one of the optional methods
// http.ResponseController looks for behind an Unwrap chain.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadline time.Time
}

func (d *deadlineRecorder) SetWriteDeadline(t time.Time) error { d.deadline = t; return nil }

// The middleware's writer must not hide the connection's optional methods
// from a handler that uses http.ResponseController.
func TestStatusWriterUnwraps(t *testing.T) {
	under := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
	sw := &statusWriter{ResponseWriter: under}
	when := time.Unix(1, 0)
	if err := http.NewResponseController(sw).SetWriteDeadline(when); err != nil {
		t.Fatalf("SetWriteDeadline through statusWriter: %v", err)
	}
	if !under.deadline.Equal(when) {
		t.Errorf("the deadline did not reach the underlying writer")
	}
}
