package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/xmlmodel"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false,
	"rewrite testdata/debug_trace.golden (run this at the parent commit, never on the change under test)")

// The only parts of /debug/trace that differ run to run, once the caller
// names its traces: wall-clock times and durations.
var traceTimes = regexp.MustCompile(`"(start|time)": "[^"]*"|"duration_nanos": \d+`)

// serveOnce sends one request straight into h, traced under traceID when set.
func serveOnce(h http.Handler, method, path, body, traceID string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	if traceID != "" {
		r.Header.Set(TraceHeader, traceID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// TestDebugTraceGolden pins the bytes of GET /debug/trace — key order,
// indentation, span order, attribute rendering, omitted-when-empty fields —
// for a scripted pair: a query that misses (plan analysis, materialization,
// fetch, evaluation) and the same query again (plan hit, cache hit), then a
// 404, then an inference and its repeat (found by its text: no infer span).
// Times are masked; everything else is what the handler wrote. The file
// is generated at the parent commit of a change to tracing, so a rewrite of
// how traces are stored has to render what the old one did.
func TestDebugTraceGolden(t *testing.T) {
	srv, m := newServerAndMediator(t)
	srv.Close()
	h := New(m, WithTracer(obs.NewTracer(8)))
	const q = `r = SELECT P WHERE <members> P:<professor/> </members>`
	for _, id := range []string{"golden-miss", "golden-hit"} {
		if rec := serveOnce(h, http.MethodPost, "/views/members/query", q, id); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", id, rec.Code, rec.Body)
		}
	}
	if rec := serveOnce(h, http.MethodGet, "/views/nosuch", "", "golden-404"); rec.Code != http.StatusNotFound {
		t.Fatalf("golden-404: %d %s", rec.Code, rec.Body)
	}
	for _, id := range []string{"golden-infer", "golden-infer-again"} {
		if rec := serveOnce(h, http.MethodPost, "/infer", d1Text+"\nv = SELECT P WHERE <department> P:<professor/> </department>", id); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", id, rec.Code, rec.Body)
		}
	}
	rec := serveOnce(h, http.MethodGet, "/debug/trace", "", "golden-read")
	got := traceTimes.ReplaceAllStringFunc(rec.Body.String(), func(m string) string {
		return m[:strings.Index(m, ": ")+2] + "0"
	})

	const path = "testdata/debug_trace.golden"
	if *updateTraceGolden {
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
		t.Errorf("/debug/trace differs from %s\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// threePartNode is a mediator serving view "u" over three in-memory
// departments, each wrapped by wrap when it is set.
func threePartNode(t testing.TB, wrap func(mediator.Wrapper) mediator.Wrapper) *mediator.Mediator {
	t.Helper()
	srcs, _ := staticDepartments(t)
	m := mediator.New("node")
	var names []string
	for _, s := range srcs {
		var w mediator.Wrapper = s
		if wrap != nil {
			w = wrap(s)
		}
		if err := m.AddSource(w); err != nil {
			t.Fatal(err)
		}
		names = append(names, s.Name())
	}
	mustDefine(t, m, "u", names, func(int) string { return professorsOf("department") })
	return m
}

// TestTracedRequestAllocations ratchets what tracing costs a request: the
// same warm reads of a three-part view through a handler with the default
// tracer and through one with none. The difference is the trace record and
// one context per child span — nothing for the root span's context, which
// lives in the response writer, nothing for a minted ID, which lives in the
// record, nothing per attribute, per event or per End; measured 2 and 1,
// ceilings 3 and 2 (4 and 3 while the root's context and a minted ID were
// allocations of their own, 24 and 14 when a trace was an object per span and
// a copy per End). The absolute ceilings are the handler's whole budget,
// httptest's request and recorder in the count: measured 27 and 27 (28 and 30
// under -race), ceilings the -race figures + 10 %: 31 and 33. They were 30 and
// 30 (ceilings 42 and 39) while every answer sent its zero-valued stat
// headers and tracing cost two more, 50 and 38 while every read parsed its
// text and serialized its answer.
func TestTracedRequestAllocations(t *testing.T) {
	m := threePartNode(t, nil)
	traced, untraced := New(m), New(m, WithTracer(nil))
	for _, c := range []struct {
		name, method, path, body string
		maxDiff, ceiling         float64
	}{
		{"query", http.MethodPost, "/views/u/query", unchangedQueries[1], 3, 31},
		{"GET", http.MethodGet, "/views/u", "", 2, 33},
	} {
		count := func(h http.Handler) float64 {
			do := func() {
				if rec := serveOnce(h, c.method, c.path, c.body, ""); rec.Code != http.StatusOK || rec.Body.Len() == 0 {
					t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
				}
			}
			do() // materializes the view, keeps the plan
			return testing.AllocsPerRun(100, do)
		}
		on, off := count(traced), count(untraced)
		t.Logf("warm %s: %v allocs traced, %v untraced", c.name, on, off)
		if on-off > c.maxDiff {
			t.Errorf("warm %s: tracing costs %v allocations (%v vs %v), want ≤ %v", c.name, on-off, on, off, c.maxDiff)
		}
		if on > c.ceiling {
			t.Errorf("warm %s: %v allocs traced, want ≤ %v", c.name, on, c.ceiling)
		}
	}
}

// TestNoTraceHeaderWithoutTracer: a handler built WithTracer(nil) has no
// trace ID, and must not send an empty X-Mix-Trace-Id for one — not on a
// 200, not on a 404, not on a degraded answer, not when the caller sent an
// ID of its own.
func TestNoTraceHeaderWithoutTracer(t *testing.T) {
	srv, m := newServerAndMediator(t)
	srv.Close()
	degraded, dm := newDegradedServer(t)
	degraded.Close()
	for _, c := range []struct {
		name, path string
		h          http.Handler
		status     int
	}{
		{"200", "/views/members", New(m, WithTracer(nil)), http.StatusOK},
		{"404", "/views/nosuch", New(m, WithTracer(nil)), http.StatusNotFound},
		{"degraded", "/views/blow", New(dm, WithTracer(nil)), http.StatusOK},
	} {
		for _, id := range []string{"", "caller-7"} {
			rec := serveOnce(c.h, http.MethodGet, c.path, "", id)
			if rec.Code != c.status {
				t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
			}
			if c.name == "degraded" && rec.Header().Get("X-Mix-Degraded") != "true" {
				t.Fatal("the degraded case must be degraded")
			}
			if vals, ok := rec.Header()[TraceHeader]; ok {
				t.Errorf("%s (caller's ID %q): untraced response carries %s: %q", c.name, id, TraceHeader, vals)
			}
		}
	}
}

// TestRootContextOutlivesItsRequest is DESIGN's hedge loser at the root: a
// goroutine started under a request's own context — the root span's, which
// lives in the request's response writer — opens and ends one span as soon as
// it runs, which may be while the handler finishes the response (writing that
// writer's other fields), and another after ServeHTTP has returned and the
// request's context ended. Both land in that request's record, under its
// root, and the race detector sees no write to what they read. `make race`
// runs it fifty times.
func TestRootContextOutlivesItsRequest(t *testing.T) {
	tracer := obs.NewTracer(4)
	h := New(mediator.New("empty"), WithTracer(tracer))
	release, done := make(chan struct{}), make(chan error, 1)
	h.mux.HandleFunc("GET /hedged", func(w http.ResponseWriter, r *http.Request) {
		go func(ctx context.Context) {
			_, sp := obs.StartSpan(ctx, "loser.during")
			sp.End()
			<-release
			if ctx.Err() == nil {
				done <- fmt.Errorf("the request's context has not ended")
				return
			}
			obs.StartLeaf(ctx, "loser.after").End()
			done <- nil
		}(r.Context())
		io.WriteString(w, "answered")
	})
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("hedged-%d", i)
		ctx, cancel := context.WithCancel(context.Background())
		r := httptest.NewRequest(http.MethodGet, "/hedged", nil).WithContext(ctx)
		r.Header.Set(TraceHeader, id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		cancel() // what net/http does once the handler returns
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		release = make(chan struct{})
		trace := tracer.Traces(1)[0]
		if trace.TraceID != id || rec.Body.String() != "answered" {
			t.Fatalf("request %d: newest trace %s, body %q", i, trace.TraceID, rec.Body)
		}
		for _, name := range []string{"loser.during", "loser.after"} {
			if sp := trace.Span(name); sp == nil || sp.ParentID != 1 {
				t.Errorf("request %d: span %s is %+v, want a child of the root", i, name, sp)
			}
		}
	}
}

// leakySource hands every Fetch's context — the source.fetch span's — to
// whoever listens, the way a hedge's losing attempt keeps it.
type leakySource struct {
	mediator.Wrapper
	leaked chan context.Context
}

func (s leakySource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	s.leaked <- ctx
	return s.Wrapper.Fetch(ctx)
}

// TestDebugTraceWhileLateSpansWrite: the obs-level hammer
// (obs.TestLateWritersStayInTheirOwnTrace) through the handler. Every request
// invalidates and reads a three-part view, so its trace overflows its record
// and its fetch contexts leak; goroutines keep writing through those contexts
// long after the requests returned, the eight-slot ring wraps dozens of times,
// and GET /debug/trace is read throughout. Every response is valid JSON, every
// trace in it is whole, and no value written for one request's trace shows up
// under another's ID.
func TestDebugTraceWhileLateSpansWrite(t *testing.T) {
	const requests = 150
	// One send per part per request: a Fetch never waits for the writers.
	leaked := make(chan context.Context, requests*unchangedSources)
	m := threePartNode(t, func(w mediator.Wrapper) mediator.Wrapper { return leakySource{w, leaked} })
	h := New(m, WithTracer(obs.NewTracer(8)))

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var p debugTracePayload
			rec := serveOnce(h, http.MethodGet, "/debug/trace", "", "reader")
			if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
				t.Errorf("/debug/trace is not JSON: %v", err)
				return
			}
			for _, ts := range p.Traces {
				for i, sp := range ts.Spans {
					if sp.SpanID != int64(i+1) || sp.ParentID >= sp.SpanID {
						t.Errorf("trace %s: span %d has id %d, parent %d", ts.TraceID, i, sp.SpanID, sp.ParentID)
					}
					attrs := sp.Attrs
					for _, ev := range sp.Events {
						attrs = append(attrs, ev.Attrs...)
					}
					for _, a := range attrs {
						if a.Key == "meant_for" && a.Value != ts.TraceID {
							t.Errorf("trace %s holds a value written for %s", ts.TraceID, a.Value)
						}
					}
				}
			}
		}
	}()
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for ctx := range leaked {
				id := obs.TraceID(ctx)
				for k := 0; k < 4; k++ {
					obs.AddEvent(ctx, "late", obs.String("meant_for", id), obs.Int("k", int64(k)))
					obs.SetAttr(ctx, obs.String("meant_for", id))
					_, sp := obs.StartSpan(ctx, "late.span", obs.String("meant_for", id))
					sp.End()
				}
			}
		}()
	}
	for i := 0; i < requests; i++ {
		if rec := serveOnce(h, http.MethodPost, "/invalidate", "", ""); rec.Code != http.StatusNoContent {
			t.Fatalf("invalidate: %d", rec.Code)
		}
		if rec := serveOnce(h, http.MethodGet, "/views/u", "", fmt.Sprintf("req-%d", i)); rec.Code != http.StatusOK {
			t.Fatalf("read %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	close(leaked)
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestTraceSaysWhatTheInferMemoDid: the root span of a POST /infer says
// whether the answer was inferred and kept, found, or inferred and not kept (it
// degraded), and a found one has no infer span under it: nothing was inferred.
func TestTraceSaysWhatTheInferMemoDid(t *testing.T) {
	_, dm := newDegradedServer(t)
	for _, c := range []struct {
		name, body string
		m          *mediator.Mediator
		memo       []string
	}{
		{"tight", d1Text + "\nv = SELECT P WHERE <department> P:<professor/> </department>", mediator.New("node"), []string{"kept", "hit", "hit"}},
		{"degraded", blowupDTDText() + "\n" + blowupQueryText, dm, []string{"not_kept", "not_kept"}},
	} {
		tracer := obs.NewTracer(8)
		h := New(c.m, WithTracer(tracer))
		for i, want := range c.memo {
			if rec := serveOnce(h, http.MethodPost, "/infer", c.body, ""); rec.Code != http.StatusOK {
				t.Fatalf("%s, post %d: %d %s", c.name, i, rec.Code, rec.Body)
			}
			trace := tracer.Traces(1)[0]
			var got string
			for _, a := range trace.Spans[0].Attrs {
				if a.Key == "infer_memo" {
					got = a.Value
				}
			}
			if got != want {
				t.Errorf("%s, post %d: root span says infer_memo=%q, want %q", c.name, i, got, want)
			}
			if inferred := trace.Span("infer") != nil; inferred != (want != "hit") {
				t.Errorf("%s, post %d (%s): an infer span was opened: %v", c.name, i, want, inferred)
			}
		}
		if n := tracer.SpanDurations()["infer"].Count; n != int64(len(c.memo))-int64(strings.Count(strings.Join(c.memo, " "), "hit")) {
			t.Errorf("%s: mix_span_duration_seconds{span=\"infer\"} counts %d runs over %v", c.name, n, c.memo)
		}
	}
}

// BenchmarkServeWarmQuery is the price of tracing, one `go test -bench` away:
// the same warm query of a three-part view through a handler with the default
// tracer and through one with none.
func BenchmarkServeWarmQuery(b *testing.B) {
	m := threePartNode(b, nil)
	for _, c := range []struct {
		name string
		h    http.Handler
	}{{"traced", New(m)}, {"untraced", New(m, WithTracer(nil))}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := serveOnce(c.h, http.MethodPost, "/views/u/query", unchangedQueries[1], ""); rec.Code != http.StatusOK {
					b.Fatalf("%d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// benchmarkSizedNode is a mediator serving view "w" over six in-memory
// departments of some 32 KiB each — the size of benchmark/'s warm-read — whose
// professors, nearly all of every document, are the view's members.
func benchmarkSizedNode(t testing.TB) *mediator.Mediator {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	m := mediator.New("node")
	var names []string
	for i := 0; i < 6; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "<department><name>d%d</name>", i)
		for p := 0; b.Len() < 25<<10; p++ { // 32 KiB when indented
			fmt.Fprintf(&b, `<professor id="p%[1]d-%[2]d"><firstName>P%[2]d</firstName><lastName>L &amp; M</lastName><publication id="x%[1]d-%[2]d"><title>t</title><author>a</author><journal>J</journal></publication><teaches>c%[2]d</teaches></professor>`, i, p)
		}
		b.WriteString(`<gradStudent><firstName>G</firstName><lastName>M</lastName><publication><title>t</title><author>a</author><conference>C</conference></publication></gradStudent></department>`)
		doc, _, err := xmlmodel.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		src, err := mediator.NewStaticSource(fmt.Sprintf("b%d", i), doc, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSource(src); err != nil {
			t.Fatal(err)
		}
		names = append(names, src.Name())
	}
	mustDefine(t, m, "w", names, func(int) string { return `w = SELECT X WHERE <department> X:<professor/> </department>` })
	return m
}

const benchmarkSizedQuery = `all = SELECT X WHERE <w> X:<professor/> </w>`

// TestWarmAnswerAllocationsNoParseNoSerializer is the ratchet on a warm repeat
// of a benchmark-sized answer — six parts of some 32 KiB — through the
// handler: its text finds the plan, so nothing is parsed; every part brings
// its bytes, so nothing is serialized; and what is allocated is a fixed
// handful whatever the size of the answer: measured 24 for the query and 23
// for the view, with the default tracer and httptest's request in the count,
// under -race too; ceilings + 2. It was 31 and 27 while every header value
// was a slice of its own and the query's stats, the materialization's info
// and the text's plan alias each an allocation; 42 and 33 when every read
// parsed its text and serialized its answer.
func TestWarmAnswerAllocationsNoParseNoSerializer(t *testing.T) {
	m := benchmarkSizedNode(t)
	h := New(m)
	for _, c := range []struct {
		name, method, path, body string
		ceiling                  float64
	}{
		{"query", http.MethodPost, "/views/w/query", benchmarkSizedQuery, 26},
		{"GET", http.MethodGet, "/views/w", "", 25},
	} {
		var size int
		do := func() {
			w := &discard{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if size = w.n; size < 6*30<<10 {
				t.Fatalf("%s: %d bytes", c.name, size)
			}
		}
		do() // evaluates
		do() // finds every part's entry
		do() // finds them again: renders
		before := m.Stats()
		const runs = 50
		allocs := testing.AllocsPerRun(runs, do)
		after := m.Stats()
		t.Logf("warm %s of %d bytes: %v allocs", c.name, size, allocs)
		if allocs > c.ceiling {
			t.Errorf("warm %s: %v allocs, want ≤ %v", c.name, allocs, c.ceiling)
		}
		if rendered := after.AnswerBytesRendered - before.AnswerBytesRendered; rendered != 0 {
			t.Errorf("warm %s: %d bytes were serialized over %d repeats, want none", c.name, rendered, runs+1)
		}
		// All of the body but the root's two tags (and for the view the DTD in
		// front) comes out of the slots.
		if copied := (after.AnswerBytesCopied - before.AnswerBytesCopied) / (runs + 1); copied < int64(size)-1<<10 || copied >= int64(size) {
			t.Errorf("warm %s: %d of %d bytes a read were copied from the slots", c.name, copied, size)
		}
		if c.body == "" {
			continue
		}
		if hits := after.PlanTextHits - before.PlanTextHits; hits != runs+1 || after.PlanMisses != before.PlanMisses {
			t.Errorf("warm %s: %d of %d repeats found their plan by their text (%d analyses ran)", c.name, hits, runs+1, after.PlanMisses-before.PlanMisses)
		}
	}
}

// TestWarmAnswerOverLoopbackAllocs is the warm repeat of
// TestWarmAnswerAllocationsNoParseNoSerializer sent over a real connection
// (httptest.NewServer) to a real client, which reads the whole body: both
// sides are in the count, so what net/http does with the answer — header
// clone, chunk framing, the client's body reader — is too. Both answers
// declare their length, which is the length of the body. Measured 87 for the
// query and 80 for the view (94 and 87 at most under -race -cpu=1,2 in four
// runs, which `make race` runs this with); the ceilings are the -race figures
// + 3 %, rounded up: 97 and 90. It was 94 and 83 (ceilings 104 and 92) while
// a request's root span had a context of its own, a minted trace ID was a
// string, the Content-Length another and a query's answer sent its
// zero-valued stat headers; 111 and 96 while warm answers went out chunked,
// each header value was a slice of its own, and the view's DTD was copied on
// its way to the connection.
func TestWarmAnswerOverLoopbackAllocs(t *testing.T) {
	srv := httptest.NewServer(New(benchmarkSizedNode(t)))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for _, c := range []struct {
		name, method, path, body string
		ceiling                  float64
	}{
		{"query", http.MethodPost, "/views/w/query", benchmarkSizedQuery, 97},
		{"GET", http.MethodGet, "/views/w", "", 90},
	} {
		var body bytes.Buffer
		var declared int64
		do := func() {
			req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body.Reset()
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %v", c.name, resp.StatusCode, err)
			}
			declared = resp.ContentLength
		}
		do() // evaluates
		do() // finds every part's entry
		do() // finds them again: renders
		want := bytes.Clone(body.Bytes())
		allocs := testing.AllocsPerRun(50, func() {
			if do(); !bytes.Equal(body.Bytes(), want) {
				t.Fatalf("%s: the body changed", c.name)
			}
		})
		t.Logf("warm %s of %d bytes over loopback: %v allocs", c.name, len(want), allocs)
		if declared != int64(len(want)) {
			t.Errorf("warm %s over loopback: Content-Length %d on a body of %d bytes", c.name, declared, len(want))
		}
		if allocs > c.ceiling {
			t.Errorf("warm %s over loopback: %v allocs, want ≤ %v", c.name, allocs, c.ceiling)
		}
	}
}

// BenchmarkServeWarmAnswer is BenchmarkServeWarmQuery at benchmark/'s size: a
// warm repeat of a six-part, 190 KiB answer and of the view itself.
func BenchmarkServeWarmAnswer(b *testing.B) {
	h := New(benchmarkSizedNode(b))
	for _, c := range []struct{ name, method, path, body string }{
		{"query", http.MethodPost, "/views/w/query", benchmarkSizedQuery},
		{"view", http.MethodGet, "/views/w", ""},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := &discard{h: http.Header{}} // not a recorder: its copy of the body would be most of the time
				h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
				if w.n < 6*30<<10 {
					b.Fatalf("%d bytes", w.n)
				}
			}
		})
	}
}

// TestTraceSaysHowAnAnswerWasSent: over four asks of one query the query span
// says whether the text found the plan and how many parts were streamed,
// rendered and copied; every answer has its serialize span, a child of the
// root like the query's, with a live histogram of its own; and the record
// still fits: a traced warm read overflows nothing (TestTracedRequestAllocations).
func TestTraceSaysHowAnAnswerWasSent(t *testing.T) {
	tracer := obs.NewTracer(8)
	h := New(threePartNode(t, nil), WithTracer(tracer))
	for i, want := range []map[string]string{
		{"plan_text_hit": "false", "answer_evaluated": "3", "answer_streamed": "3"},
		{"plan_text_hit": "true", "answer_reused": "3", "answer_streamed": "3"},
		{"plan_text_hit": "true", "answer_reused": "3", "answer_rendered": "3"},
		{"plan_text_hit": "true", "answer_reused": "3", "answer_copied": "3"},
	} {
		if rec := serveOnce(h, http.MethodPost, "/views/u/query", unchangedQueries[0], fmt.Sprintf("ask-%d", i)); rec.Code != http.StatusOK {
			t.Fatalf("ask %d: %d %s", i, rec.Code, rec.Body)
		}
		trace := tracer.Traces(1)[0]
		got := map[string]string{}
		for _, a := range trace.Span("query").Attrs {
			got[a.Key] = a.Value
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("ask %d: query span says %s=%q, want %q (all: %v)", i, k, got[k], v, got)
			}
		}
		for _, k := range []string{"answer_streamed", "answer_rendered", "answer_copied"} {
			if _, said := got[k]; said && want[k] == "" {
				t.Errorf("ask %d: query span says %s=%s, want it left out", i, k, got[k])
			}
		}
		if s := trace.Span("serialize"); s == nil || s.ParentID != 1 || len(s.Attrs)+len(s.Events) != 0 {
			t.Errorf("ask %d: serialize span %+v, want a bare child of the root", i, s)
		}
	}
	if n := tracer.SpanDurations()["serialize"].Count; n != 4 {
		t.Errorf("mix_span_duration_seconds{span=\"serialize\"} counts %d answers, want 4", n)
	}
}
