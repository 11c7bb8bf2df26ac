package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/load"
	"repro/internal/mediator"
	"repro/internal/regex"
	"repro/internal/serve"
	"repro/internal/xmas"
)

// The paper's running examples, as internal/load's infer_golden_test.go
// states them: the first four cases of infer.golden. D11 (Example 4.4) is D1
// with one publication a gradStudent and authors optional.
const paperD1 = serve.D1Text

var paperD11 = strings.NewReplacer("lastName, publication+)>", "lastName, publication)>", "author+", "author*").Replace(paperD1)

const (
	paperQ2 = `withJournals =
SELECT P
WHERE <department><name>CS</name>
        P:<professor|gradStudent>
           <publication id=Pub1><journal/></publication>
           <publication id=Pub2><journal/></publication>
        </>
      </department>
AND Pub1 != Pub2`
	paperQ3 = `publist =
SELECT P
WHERE <department><name>CS</name>
        <professor|gradStudent>
          P:<publication><journal/></publication>
        </>
      </department>`
	paperQ12 = `papers = SELECT P
WHERE <department> <gradStudent> <publication> P:<title|author/> </publication> </gradStudent> </department>`
)

// inferCase is one POST /infer body under the name infer.golden files its
// answer under.
type inferCase struct{ name, body string }

// goldenInferCases rebuilds the inputs of internal/load's infer.golden (its
// generator is a test helper of that package): the paper's examples, then
// every schema family at every Width/Depth in 6–8 with a view conditioned on
// one child of entry, as a regular child and as an existential qualifier.
// TestInferMemoDifferential checks each answer against the file's section of
// the same name, so the two generators cannot drift apart unseen.
func goldenInferCases(t testing.TB) []inferCase {
	cases := []inferCase{
		{"paper/Q2-D1", paperD1 + "\n" + paperQ2},
		{"paper/Q3-D1", paperD1 + "\n" + paperQ3},
		{"paper/Q12-D11", paperD11 + "\n" + paperQ12},
		{"paper/Q12-D1", paperD1 + "\n" + paperQ12},
	}
	k := 0
	for _, fam := range load.Families() {
		for width := 6; width <= 8; width++ {
			for depth := 6; depth <= 8; depth++ {
				d, err := load.Synthesize(load.SchemaOptions{Seed: int64(1100 + k), Family: fam, Root: "probe", Width: width, Depth: depth})
				if err != nil {
					t.Fatal(err)
				}
				children := regex.Names(d.Types["entry"].Model)
				child := children[k%len(children)].Base
				k++
				for _, cond := range []string{"<" + child + "/>", "[<" + child + "/>]"} {
					cases = append(cases, inferCase{
						name: fmt.Sprintf("%s/w%d-d%d/%s", fam, width, depth, cond),
						body: d.String() + "\nV = SELECT X WHERE <probe> X:<entry>" + cond + "</entry> </probe>",
					})
				}
			}
		}
	}
	return cases
}

// familyBodies is one body per schema family at Width/Depth 6, from 0.4 to
// 2.2 KB: the shape of benchmark/'s hot pool.
func familyBodies(t testing.TB) []string {
	var bodies []string
	for i, fam := range load.Families() {
		d, err := load.Synthesize(load.SchemaOptions{Seed: int64(7 + i), Family: fam, Root: "probe", Width: 6, Depth: 6})
		if err != nil {
			t.Fatal(err)
		}
		children := regex.Names(d.Types["entry"].Model)
		bodies = append(bodies, d.String()+"\nV00000000 = SELECT X WHERE <probe> X:<entry><"+children[i%len(children)].Base+"/></entry> </probe>")
	}
	return bodies
}

// renderInfer is the /infer response of a tight result, written from the
// result and not by the handler.
func renderInfer(res *infer.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- specialized view DTD\n%s\n-- plain view DTD\n%s\n-- classification: %s\n", res.SDTD, res.DTD, res.Class)
	for _, ev := range res.Merges {
		if ev.Distinct {
			fmt.Fprintf(&b, "-- warning: %s\n", ev)
		}
	}
	return b.String()
}

func postInfer(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(body)))
	return rec
}

// inferMemoMetrics reads the memo's four numbers where an operator would.
type inferMemoMetrics struct {
	Hits            int64 `json:"infer_memo_hits"`
	Kept            int64 `json:"infer_memo_kept"`
	NotKeptDegraded int64 `json:"infer_memo_not_kept_degraded"`
	BytesHeld       int64 `json:"infer_memo_bytes_held"`
}

func memoMetrics(t testing.TB, h http.Handler) inferMemoMetrics {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var st inferMemoMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, rec.Body)
	}
	return st
}

// TestInferMemoDifferential: every case of infer.golden, posted three times —
// the first is inferred and kept, the next two are found — answers the same
// bytes under the same headers each time, and they are what a direct
// InferContext renders and what the golden file holds for the case.
func TestInferMemoDifferential(t *testing.T) {
	file, err := os.ReadFile("../load/testdata/infer.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, section := range strings.Split(string(file), "==== ")[1:] {
		name, answer, _ := strings.Cut(section, "\n")
		golden[name] = answer
	}
	h := serve.New(mediator.New("node"))
	cases := goldenInferCases(t)
	if len(cases) != len(golden) {
		t.Errorf("%d cases rebuilt, infer.golden has %d", len(cases), len(golden))
	}
	texts := map[string]bool{} // two pairs of cases are one text
	for _, c := range cases {
		texts[c.body] = true
		src, query, err := dtd.ParsePrefix(c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := infer.InferContext(context.Background(), xmas.MustParse(query), src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := renderInfer(res)
		if want != golden[c.name] {
			t.Errorf("%s: a direct inference differs from infer.golden's section", c.name)
		}
		var first http.Header
		for i := 0; i < 3; i++ {
			rec := postInfer(h, c.body)
			if rec.Code != http.StatusOK || rec.Body.String() != want {
				t.Errorf("%s, post %d: status %d, body differs from a direct inference:\n%s\nwant:\n%s", c.name, i, rec.Code, rec.Body, want)
			}
			hdr := rec.Header().Clone()
			hdr.Del(serve.TraceHeader)
			if first == nil {
				first = hdr
			} else if !reflect.DeepEqual(hdr, first) {
				t.Errorf("%s, post %d: headers %v, the first post's were %v", c.name, i, hdr, first)
			}
		}
	}
	if st, kept := memoMetrics(t, h), int64(len(texts)); st.Kept != kept || st.Hits != 3*int64(len(cases))-kept || st.NotKeptDegraded != 0 {
		t.Errorf("over %d cases of %d texts posted three times: %+v, want each text kept once and found every time after", len(cases), kept, st)
	}
}

// hostile counts the DTDs TestInferMemoNeverKeepsDegraded has posted, so that
// a repeat of the test (-count) does not find its automaton compiled.
var hostile atomic.Int64

// TestInferMemoNeverKeepsDegraded: an answer that ran out of budget is one
// budget's opinion. It is served, flagged, counted — and recomputed on every
// repeat, so that raising the budget is answered tight at once; only that
// answer is kept.
func TestInferMemoNeverKeepsDegraded(t *testing.T) {
	// (x|y)*, x, (x|y)^6 takes 2^7 DFA states: over 16, well under no limit.
	x, y := fmt.Sprintf("x%d", hostile.Add(1)), fmt.Sprintf("y%d", hostile.Load())
	body := strings.NewReplacer("x", x, "y", y).Replace(`<!DOCTYPE site [
  <!ELEMENT site (info, m?)>
  <!ELEMENT m ((x|y)*, x` + strings.Repeat(", (x|y)", 6) + `)>
  <!ELEMENT x (x)>
  <!ELEMENT y (y)>
  <!ELEMENT info (#PCDATA)>
]>
blow = SELECT M WHERE <site> M:<m> <x id=A/> <x id=B/> </m> </site> AND A != B`)
	m := mediator.New("edge")
	m.SetInferenceBudget(budget.Limits{MaxStates: 16})
	h := serve.New(m)
	var loose string
	for i := 0; i < 3; i++ {
		rec := postInfer(h, body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Mix-Degraded") != "true" || !strings.Contains(rec.Body.String(), "-- degraded:") {
			t.Fatalf("starved post %d: status %d, X-Mix-Degraded %q, want a flagged degraded answer:\n%s", i, rec.Code, rec.Header().Get("X-Mix-Degraded"), rec.Body)
		}
		loose = rec.Body.String()
	}
	if st := memoMetrics(t, h); st.NotKeptDegraded != 3 || st.Hits+st.Kept+st.BytesHeld != 0 || h.InferMemoLen() != 0 {
		t.Errorf("after three degraded answers: %+v and %d entries, want each recomputed and none kept", st, h.InferMemoLen())
	}
	m.SetInferenceBudget(budget.Limits{})
	for i := 0; i < 2; i++ {
		rec := postInfer(h, body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Mix-Degraded") != "" || strings.Contains(rec.Body.String(), "-- degraded:") || rec.Body.String() == loose {
			t.Fatalf("post %d under no limit: status %d, X-Mix-Degraded %q, want the tight answer:\n%s", i, rec.Code, rec.Header().Get("X-Mix-Degraded"), rec.Body)
		}
	}
	if st := memoMetrics(t, h); st.NotKeptDegraded != 3 || st.Kept != 1 || st.Hits != 1 || h.InferMemoLen() != 1 {
		t.Errorf("after the budget was raised: %+v and %d entries, want the tight answer kept once and found once", st, h.InferMemoLen())
	}
}

// TestInferMemoKeepsNoFailure: a body that is refused — no DOCTYPE, no query,
// a recursive path, a request whose context has ended — leaves nothing behind,
// and a failed inference is answered by whose fault it was: 422 for the text's,
// 503 for a context that ended, 500 for a worker that panicked.
func TestInferMemoKeepsNoFailure(t *testing.T) {
	h := serve.New(mediator.New("node"))
	good := paperD1 + "\n" + paperQ3
	if rec := postInfer(h, good); rec.Code != http.StatusOK || h.InferMemoLen() != 1 {
		t.Fatalf("a good body: status %d, %d entries", rec.Code, h.InferMemoLen())
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name, body string
		ctx        context.Context
		status     int
	}{
		{"no DOCTYPE", paperQ3, context.Background(), http.StatusBadRequest},
		{"no query", paperD1 + "\nSELECT", context.Background(), http.StatusBadRequest},
		{"recursive path", paperD1 + "\nv = SELECT X WHERE <department> <professor*> X:<title/> </> </department>", context.Background(), http.StatusUnprocessableEntity},
		{"view named like an element", paperD1 + "\nprofessor = SELECT X WHERE <department> X:<course/> </department>", context.Background(), http.StatusUnprocessableEntity},
		{"cancelled", paperD1 + "\n" + paperQ2, gone, http.StatusServiceUnavailable},
	} {
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(c.body)).WithContext(c.ctx))
			if rec.Code != c.status {
				t.Errorf("%s, post %d: status %d, want %d: %s", c.name, i, rec.Code, c.status, rec.Body)
			}
		}
		if n := h.InferMemoLen(); n != 1 {
			t.Errorf("%s: the memo holds %d entries, want the one good answer", c.name, n)
		}
	}
	if st := memoMetrics(t, h); st.Hits != 0 || st.Kept != 1 {
		t.Errorf("%+v, want no hit and one answer kept", st)
	}
	// The cancelled text, asked by somebody who stays, is inferred and kept.
	if rec := postInfer(h, paperD1+"\n"+paperQ2); rec.Code != http.StatusOK || h.InferMemoLen() != 2 {
		t.Errorf("the cancelled body, posted again: status %d, %d entries", rec.Code, h.InferMemoLen())
	}

	for _, c := range []struct {
		err    error
		status int
	}{
		{fmt.Errorf("%w refining element %q: boom", infer.ErrWorkerPanic, "a"), http.StatusInternalServerError},
		{context.Canceled, http.StatusServiceUnavailable},
		{fmt.Errorf("infer: %w", context.DeadlineExceeded), http.StatusServiceUnavailable},
		{infer.ErrRecursivePath, http.StatusUnprocessableEntity},
		{fmt.Errorf("infer: inconsistent source DTD: a panic, a context canceled"), http.StatusUnprocessableEntity},
	} {
		if got := serve.InferStatusFor(c.err); got != c.status {
			t.Errorf("a failure %q is answered %d, want %d", c.err, got, c.status)
		}
	}
}

// TestInferMemoIsBounded: an answer that with its request is over
// MaxInferMemoEntry is served and not kept, and the memo holds the
// InferMemoEntries most recently used texts — one more evicts the one asked
// longest ago — so what it holds stays under their product.
func TestInferMemoIsBounded(t *testing.T) {
	h := serve.New(mediator.New("node"))
	big := paperD1 + "\n" + paperQ3 + strings.Repeat(" ", serve.MaxInferMemoEntry)
	for i := 0; i < 2; i++ {
		if rec := postInfer(h, big); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "-- classification: ") {
			t.Fatalf("a %d-byte body: status %d: %.200s", len(big), rec.Code, rec.Body)
		}
	}
	if st := memoMetrics(t, h); h.InferMemoLen() != 0 || st.Hits+st.Kept+st.BytesHeld != 0 {
		t.Fatalf("after an entry over the cap: %d entries, %+v, want nothing kept", h.InferMemoLen(), st)
	}

	body := func(i int) string {
		return fmt.Sprintf("<!DOCTYPE r [ <!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> ]>\nv%d = SELECT X WHERE <r> X:<a/> </r>", i)
	}
	var held int64
	for i := 0; i < serve.InferMemoEntries; i++ {
		rec := postInfer(h, body(i))
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: %d %s", i, rec.Code, rec.Body)
		}
		held += int64(len(body(i)) + rec.Body.Len())
	}
	if st := memoMetrics(t, h); h.InferMemoLen() != serve.InferMemoEntries || st.BytesHeld != held {
		t.Fatalf("a full memo: %d entries, %+v, want %d entries of %d bytes together", h.InferMemoLen(), st, serve.InferMemoEntries, held)
	}
	postInfer(h, body(0)) // found: body 1 is now the one asked longest ago
	postInfer(h, body(serve.InferMemoEntries))
	before := memoMetrics(t, h)
	postInfer(h, body(0))
	postInfer(h, body(1))
	after := memoMetrics(t, h)
	if h.InferMemoLen() != serve.InferMemoEntries || after.Hits-before.Hits != 1 || after.Kept-before.Kept != 1 {
		t.Errorf("after entry %d: %d entries; body 0 and body 1 posted again: %d found, %d inferred and kept; want body 1 evicted, body 0 found",
			serve.InferMemoEntries+1, h.InferMemoLen(), after.Hits-before.Hits, after.Kept-before.Kept)
	}
	if limit := int64(serve.InferMemoEntries * serve.MaxInferMemoEntry); after.BytesHeld > limit {
		t.Errorf("the memo holds %d bytes, over its bound of %d", after.BytesHeld, limit)
	}
}

// TestInferMemoConcurrentPosts: sixteen clients post four texts at once, first
// sights racing each other. Every answer to a text is the bytes a handler that
// serves nobody else gives it, and each text ends up kept once.
func TestInferMemoConcurrentPosts(t *testing.T) {
	h := serve.New(mediator.New("node"))
	bodies := familyBodies(t)[:4]
	want := make([]string, len(bodies))
	for i, body := range bodies {
		want[i] = postInfer(serve.New(mediator.New("alone")), body).Body.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(bodies); i++ {
				k := (g + i) % len(bodies)
				if rec := postInfer(h, bodies[k]); rec.Code != http.StatusOK || rec.Body.String() != want[k] {
					t.Errorf("client %d, post %d: status %d, answer differs from the one a handler of its own gives text %d", g, i, rec.Code, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := memoMetrics(t, h); h.InferMemoLen() != len(bodies) || st.Kept != int64(len(bodies)) {
		t.Errorf("%d entries, %+v, want each of the %d texts kept once", h.InferMemoLen(), st, len(bodies))
	}
}

// rewound is a request body that is read again on every use.
type rewound struct{ *bytes.Reader }

func (rewound) Close() error { return nil }

// sink is a ResponseWriter that keeps nothing but the status and a count.
type sink struct {
	h       http.Header
	code, n int
}

func (w *sink) Header() http.Header         { return w.h }
func (w *sink) WriteHeader(code int)        { w.code = code }
func (w *sink) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestInferRepeatAllocations is the ratchet on a repeated POST /infer of a
// 2 KB body: the handler reads it into one buffer, finds it as one string and
// writes the kept bytes under one header — with the request and the writer
// made once outside the count, measured 5 allocations untraced (the fourth
// and fifth are the middleware's: the request's copy with its context, and
// the status writer) and 9 with the default tracer — where the parse and the
// inference it does not run cost some 280.
func TestInferRepeatAllocations(t *testing.T) {
	body := familyBodies(t)[4] // the mixed family's is the longest
	if len(body) < 1500 || len(body) > 4<<10 {
		t.Fatalf("the body is %d bytes, want some 2 KB", len(body))
	}
	for _, c := range []struct {
		name    string
		h       *serve.Handler
		ceiling float64
	}{
		{"untraced", serve.New(mediator.New("node"), serve.WithTracer(nil)), 6},
		{"traced", serve.New(mediator.New("node")), 10},
	} {
		rd := bytes.NewReader([]byte(body))
		req := httptest.NewRequest(http.MethodPost, "/infer", rewound{rd})
		req.ContentLength = int64(len(body))
		w := &sink{h: http.Header{}}
		do := func() {
			rd.Seek(0, io.SeekStart)
			w.n = 0
			c.h.ServeHTTP(w, req)
			if w.code != 0 || w.n < len(body)/2 {
				t.Fatalf("%s: status %d, %d bytes answered", c.name, w.code, w.n)
			}
		}
		do() // inferred and kept
		const runs = 100
		before := memoMetrics(t, c.h)
		allocs := testing.AllocsPerRun(runs, do)
		after := memoMetrics(t, c.h)
		t.Logf("%s repeat of a %d-byte body: %v allocs", c.name, len(body), allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %v allocs a repeat, want ≤ %v", c.name, allocs, c.ceiling)
		}
		if hits := after.Hits - before.Hits; hits != runs+1 || after.Kept != 1 {
			t.Errorf("%s: %d of %d repeats were found, %d answers kept", c.name, hits, runs+1, after.Kept)
		}
	}
}

// BenchmarkServeInferRepeat is a POST /infer of a text the handler has seen:
// five bodies, one per schema family at Width/Depth 6, in turn.
func BenchmarkServeInferRepeat(b *testing.B) {
	h := serve.New(mediator.New("node"))
	bodies := familyBodies(b)
	for _, body := range bodies {
		postInfer(h, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &sink{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(bodies[i%len(bodies)])))
		if w.code != 0 || w.n == 0 {
			b.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
}

// BenchmarkServeInferCold is a POST /infer of a text never seen: the same five
// bodies, each time under a view name of its own, so the memo misses, keeps,
// and past its capacity evicts, while the compiled automata stay warm.
func BenchmarkServeInferCold(b *testing.B) {
	h := serve.New(mediator.New("node"))
	var bodies, digits [][]byte // digits[k] are the view name's in bodies[k]
	for _, text := range familyBodies(b) {
		postInfer(h, text)
		body := []byte(text)
		bodies, digits = append(bodies, body), append(digits, body[strings.Index(text, "V00000000")+1:][:8])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, name := bodies[i%len(bodies)], digits[i%len(bodies)]
		for k, n := len(name)-1, i+1; k >= 0; k, n = k-1, n/10 {
			name[k] = byte('0' + n%10) // the handler reads its own copy
		}
		w := &sink{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
		if w.code != 0 || w.n == 0 {
			b.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
}
