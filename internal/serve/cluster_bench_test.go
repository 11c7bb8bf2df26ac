package serve

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/pipehttp"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// benchGet performs one GET and fails the benchmark on a non-200.
func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
}

// benchForwarder builds a fresh non-owner node whose one view is pinned
// to the owner — the cold path: the first request must fetch the owner's
// DTD, build the peer transport, then fetch and validate the view.
func benchForwarder(b *testing.B, ownerURL string) *cluster.Node {
	b.Helper()
	node, err := cluster.NewNode(cluster.Config{
		Self:   "bench",
		Nodes:  map[string]string{"alpha": ownerURL, "bench": ""},
		Pinned: map[string][]string{"members": {"alpha"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return node
}

// BenchmarkForwardHopCold measures the full cost of a first forwarded
// request: transport build (owner DTD round trip) plus the materialized
// view fetch, streaming validation and re-serve. Beside
// BenchmarkForwardHopWarm it is the transport cache's speedup. The warm
// hops' allocations are pinned by TestForwardHopNotModifiedAllocs and
// TestForwardHopPartChangedAllocs.
func BenchmarkForwardHopCold(b *testing.B) {
	owner, _ := newServerAndMediator(b)
	late := &swapHandler{}
	front := httptest.NewServer(late)
	defer front.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		late.set(New(mediator.New("bench-med"), WithCluster(benchForwarder(b, owner.URL))))
		benchGet(b, front.URL+"/views/members")
	}
}

// BenchmarkForwardHopWarm measures a forwarded request once the peer
// transport is built and cached: one owner round trip, answered 304 Not
// Modified — the owner's document is unchanged, so nothing is shipped or
// parsed and the held document is served.
func BenchmarkForwardHopWarm(b *testing.B) {
	owner, _ := newServerAndMediator(b)
	front := httptest.NewServer(New(mediator.New("bench-med"), WithCluster(benchForwarder(b, owner.URL))))
	defer front.Close()
	benchGet(b, front.URL+"/views/members") // build + cache the transport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, front.URL+"/views/members")
	}
}

// BenchmarkForwardHopChanged is the other side of the warm hop: the owner's
// source alternates between two documents and is invalidated before every
// request, so the forwarder's conditional fetch finds a new tag each time and
// the owner's changed document crosses the hop and is validated — what every
// warm hop cost before the hop revalidated. Not one fetch may come back 304.
func BenchmarkForwardHopChanged(b *testing.B) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		b.Fatal(err)
	}
	src := &changingSource{dtd: d}
	med := mediator.New("campus")
	if err := med.AddSource(src); err != nil {
		b.Fatal(err)
	}
	if _, err := med.DefineView("cs-dept", xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		b.Fatal(err)
	}
	owner := httptest.NewServer(New(med))
	defer owner.Close()
	node := benchForwarder(b, owner.URL)
	front := httptest.NewServer(New(mediator.New("bench-med"), WithCluster(node)))
	defer front.Close()
	benchGet(b, front.URL+"/views/members")
	before := node.Metrics().NotModified
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.version.Store(int64((i + 1) % 2))
		if _, err := med.InvalidateSource("cs-dept"); err != nil {
			b.Fatal(err)
		}
		benchGet(b, front.URL+"/views/members")
	}
	b.StopTimer()
	if nm := node.Metrics().NotModified - before; nm != 0 {
		b.Fatalf("%d of %d fetches of a changed document came back 304", nm, b.N)
	}
}

// sixParts is an owner of view six — a union of six parts, part i over
// source s<i> (sixSource) — and a forwarder of it: the part-granular hop. The
// owner is not in cluster mode, so it grants no lease and every forwarded
// read asks it. ownerH is the owner's handler, of med. ownerSent counts the
// body bytes of its answers to GET /views/six, and sent how many of them went
// out whole (200), as a delta (226) and not at all (304); tamper, when set,
// rewrites the headers and body of every delta the owner sends.
type sixParts struct {
	sources   [6]*sixSource
	med       *mediator.Mediator
	ownerH    *Handler
	owner     *httptest.Server
	ownerSent atomic.Int64
	sent      [3]atomic.Int64 // whole, delta, not modified
	tamper    atomic.Pointer[func(h http.Header, body string) string]
	fwdNode   *cluster.Node
	fwdH      *Handler
	fwd       *httptest.Server
}

// takeSent returns the counts of sent since the last take: documents shipped
// whole, as the runs that moved, and not at all.
func (p *sixParts) takeSent() (full, delta, notModified int64) {
	return p.sent[0].Swap(0), p.sent[1].Swap(0), p.sent[2].Swap(0)
}

// sixSource is one source of the six-part view: it hands out docs[at], each
// document built once, so that switching back hands out the very document it
// handed out before, as a source that did not change does.
type sixSource struct {
	name string
	dtd  *dtd.DTD
	docs []*xmlmodel.Document
	at   atomic.Int32
}

func (s *sixSource) Name() string     { return s.name }
func (s *sixSource) Schema() *dtd.DTD { return s.dtd }
func (s *sixSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.docs[s.at.Load()], nil
}

// sixEntries is the size of a six-part source's documents: version 0 has
// this many entries, version 1 one more (other texts), version 2 none.
const sixEntries = 12

// sixDoc is source i's document of version v with n entries.
func sixDoc(i, v, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<src%d>", i)
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, `<x%[1]d id="s%[1]dv%[2]de%[3]d"><name>n%[3]d</name><note>v%[2]d</note><note>k%[3]d</note></x%[1]d>`, i, v, k)
	}
	fmt.Fprintf(&b, "</src%d>", i)
	return b.String()
}

func newSixParts(tb testing.TB) *sixParts {
	tb.Helper()
	p := &sixParts{}
	for i := range p.sources {
		d, err := dtd.Parse(fmt.Sprintf(`<!DOCTYPE src%[1]d [
  <!ELEMENT src%[1]d (x%[1]d*)> <!ELEMENT x%[1]d (name, note*)>
  <!ELEMENT name (#PCDATA)> <!ELEMENT note (#PCDATA)>
]>`, i))
		if err != nil {
			tb.Fatal(err)
		}
		s := &sixSource{name: fmt.Sprintf("s%d", i), dtd: d}
		for v, n := range []int{sixEntries, sixEntries + 1, 0} {
			doc, _, err := xmlmodel.Parse(sixDoc(i, v, n))
			if err == nil {
				err = d.Validate(doc)
			}
			if err != nil {
				tb.Fatal(err)
			}
			s.docs = append(s.docs, doc)
		}
		p.sources[i] = s
	}
	p.med = mediator.New("campus")
	var parts []mediator.ViewPart
	for i, s := range p.sources {
		if err := p.med.AddSource(s); err != nil {
			tb.Fatal(err)
		}
		parts = append(parts, mediator.ViewPart{Source: s.name,
			Query: xmas.MustParse(fmt.Sprintf(`SELECT X WHERE <src%[1]d> X:<x%[1]d/> </src%[1]d>`, i))})
	}
	if _, err := p.med.DefineUnionView("six", parts); err != nil {
		tb.Fatal(err)
	}
	p.ownerH = New(p.med)
	p.owner = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := p.ownerH
		if r.Method != http.MethodGet || r.URL.Path != "/views/six" {
			h.ServeHTTP(w, r)
			return
		}
		var sw *statusWriter
		if tamper := p.tamper.Load(); tamper == nil {
			sw = &statusWriter{ResponseWriter: w}
			h.ServeHTTP(sw, r)
		} else {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.String()
			if rec.Code == http.StatusIMUsed {
				body = (*tamper)(rec.Header(), body)
			}
			maps.Copy(w.Header(), rec.Header())
			w.Header().Del("Content-Length")
			sw = &statusWriter{ResponseWriter: w}
			sw.WriteHeader(rec.Code)
			io.WriteString(sw, body)
		}
		p.ownerSent.Add(sw.bytes)
		switch sw.status {
		case http.StatusOK:
			p.sent[0].Add(1)
		case http.StatusIMUsed:
			p.sent[1].Add(1)
		case http.StatusNotModified:
			p.sent[2].Add(1)
		}
	}))
	tb.Cleanup(p.owner.Close)
	var err error
	if p.fwdNode, err = cluster.NewNode(cluster.Config{
		Self:   "beta",
		Nodes:  map[string]string{"alpha": p.owner.URL, "beta": ""},
		Pinned: map[string][]string{"six": {"alpha"}},
	}); err != nil {
		tb.Fatal(err)
	}
	p.fwdH = New(mediator.New("beta-med"), WithCluster(p.fwdNode))
	p.fwd = httptest.NewServer(p.fwdH)
	tb.Cleanup(p.fwd.Close)
	return p
}

// set switches source i to document v and tells the owner.
func (p *sixParts) set(tb testing.TB, i, v int) {
	tb.Helper()
	p.sources[i].at.Store(int32(v))
	if _, err := p.med.InvalidateSource(p.sources[i].name); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkForwardHopPartChanged is the changed hop of a six-part view of
// which one part changed: the third source alternates between two documents
// before every request. owner-B/op is what the owner sends the forwarder.
func BenchmarkForwardHopPartChanged(b *testing.B) {
	p := newSixParts(b)
	benchGet(b, p.fwd.URL+"/views/six") // build the transport, hold the document
	before, sent := p.fwdNode.Metrics().NotModified, p.ownerSent.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.set(b, 2, (i+1)%2)
		benchGet(b, p.fwd.URL+"/views/six")
	}
	b.StopTimer()
	b.ReportMetric(float64(p.ownerSent.Load()-sent)/float64(b.N), "owner-B/op")
	if nm := p.fwdNode.Metrics().NotModified - before; nm != 0 {
		b.Fatalf("%d of %d fetches of a changed document came back 304", nm, b.N)
	}
}

// TestForwardHopNotModifiedAllocs ratchets the forwarded read of an unchanged
// owner document, counted from the forwarder's handler in: a GET and a query
// answered from the lease a cluster owner granted (no round trip), and the
// same once the lease is gone, when the forwarder asks the owner and is
// answered 304 with a new grant (the owner answers over loopback in this
// process, so its 304 and its trace are in the count too). The lease is taken
// away by a revocation before each of those reads, which costs what its end
// by expiry costs. The query finds its plan by its text and its picks beside
// the unchanged document either way. Measured 27, 29, 120 and 122 (29, 30,
// 129 and 129 at most under -race -cpu=1,2, which `make race` runs this
// with, in four runs); the ceilings are the -race figures + 3 %, rounded up:
// 30, 31, 133 and 133. It was 29, 31, 123 and 125 while a request's root span
// had a context of its own, a minted trace ID was a string and an answer's
// Content-Length another; 30, 32, 125 and 127 while a forwarded read made
// a ForwardInfo, a context.WithValue to carry it and, on a miss, a stale note
// of its own, where it now makes one note; 32, 34, 129 and 131 while the
// forwarder set its provenance
// headers and Content-Type through http.Header.Set; a warm forwarded read was
// 129 and 128 while every one asked the owner, 135 and 150 while the
// forwarder parsed and walked every query, 165 and 180 while a trace was an
// object per span and a copy per End.
func TestForwardHopNotModifiedAllocs(t *testing.T) {
	p := newLeasedPair(t)
	const q = `r = SELECT P WHERE <members> P:<professor/> </members>`
	for _, c := range []struct {
		name, method, path, body string
		leased                   bool
		ceiling                  float64
	}{
		{"leased GET", http.MethodGet, "/views/members", "", true, 30},
		{"leased query", http.MethodPost, "/views/members/query", q, true, 31},
		{"GET after the lease", http.MethodGet, "/views/members", "", false, 133},
		{"query after the lease", http.MethodPost, "/views/members/query", q, false, 133},
	} {
		do := func() {
			if !c.leased {
				p.fwdNode.Revoked("members")
			}
			rec := httptest.NewRecorder()
			p.fwdH.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
			}
		}
		do() // builds the transport, fetches the document, keeps the pair
		before, beforeHits := p.fwdNode.Metrics(), p.fwdH.m.Stats().PlanTextHits
		n := testing.AllocsPerRun(50, do)
		after, planHits := p.fwdNode.Metrics(), p.fwdH.m.Stats().PlanTextHits-beforeHits
		hits, notModified := after.LeaseHits-before.LeaseHits, after.NotModified-before.NotModified
		if c.leased && (hits != 51 || notModified != 0) || !c.leased && (hits != 0 || notModified != 51) {
			t.Fatalf("%s: %d lease hits and %d not modified in 51 reads", c.name, hits, notModified)
		}
		if c.body != "" && (planHits != 51 || after.AnswersReused-before.AnswersReused != 51) {
			t.Fatalf("%s: %d plan hits and %d reused answers in 51 reads", c.name, planHits, after.AnswersReused-before.AnswersReused)
		}
		t.Logf("forwarded %s: %v allocs", c.name, n)
		if n > c.ceiling {
			t.Errorf("forwarded %s: %v allocs, want ≤ %v", c.name, n, c.ceiling)
		}
	}
}

// TestForwardHopPartChangedAllocs ratchets the forwarded read after one part
// of six changed unannounced — the owner's mediator invalidated directly, no
// POST /invalidate, so no revocation renews anything: the path a change takes
// to a forwarder once its lease has run out (the owner here grants none, so
// every read is that one). Counted from the forwarder's handler in, the
// owner's invalidation and its answer over loopback included: a GET, and a
// query whose plan the forwarder holds. Before each read the third source
// switches to its other document, and every read is answered by a delta (226)
// of that part's run alone, spliced into the held document; the query walks
// that run and finds the other five's picks in their memos. An announced
// change is renewed with its revocation instead
// (TestForwardHopRenewedAllocs). Measured 161 and 164 (175
// and 178 at most under -race -cpu=1,2, in four runs); the ceilings are the
// -race figures + 3 %, rounded up: 181 and 184. It was 164 and 167 while a
// request's root span had a context of its own, a minted trace ID was a
// string and an answer's Content-Length another; 166 and 169 while a
// forwarded read made a ForwardInfo, a context.WithValue and a stale note
// where it now makes one note; 195 and 207 while the forwarder set
// its provenance headers through http.Header.Set, 212 and 223 while the owner
// shipped the whole document and the forwarder parsed it and walked all of it.
func TestForwardHopPartChangedAllocs(t *testing.T) {
	p := newSixParts(t)
	for _, c := range []struct {
		name, method, path, body string
		ceiling                  float64
	}{
		{"GET after a one-part change", http.MethodGet, "/views/six", "", 181},
		{"query after a one-part change", http.MethodPost, "/views/six/query", `r = SELECT X WHERE <six> X:<x2|x4/> </six>`, 184},
	} {
		v := 0
		do := func() {
			v = 1 - v
			p.set(t, 2, v)
			rec := httptest.NewRecorder()
			p.fwdH.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
			}
		}
		do() // builds the transport, fetches the document, plans the query
		before := p.fwdNode.Metrics()
		n := testing.AllocsPerRun(50, do)
		after := p.fwdNode.Metrics()
		if deltas := after.Deltas - before.Deltas; deltas != 51 || after.NotModified != before.NotModified {
			t.Fatalf("%s: %d deltas and %d not modified in 51 reads", c.name, deltas, after.NotModified-before.NotModified)
		}
		if c.body != "" && after.AnswersEvaluated-before.AnswersEvaluated != 51 {
			t.Fatalf("%s: %d of 51 answers walked the changed run", c.name, after.AnswersEvaluated-before.AnswersEvaluated)
		}
		t.Logf("forwarded %s: %v allocs", c.name, n)
		if n > c.ceiling {
			t.Errorf("forwarded %s: %v allocs, want ≤ %v", c.name, n, c.ceiling)
		}
	}
}

// TestForwardHopRenewedAllocs ratchets the renewed path: a one-part change
// announced by POST /invalidate at a cluster owner, whose revocation brings
// the forwarder the changed part's run and a lease on the new document. The
// forwarded GET and query after it, each counted in its own window of the
// process's allocations, are lease hits on the renewed document — within
// TestForwardHopNotModifiedAllocs' leased ceilings, 30 and 31, without
// -race, though the first read of a renewed document streams (GET) or walks
// (query) the run that moved where a read of an unchanged one copies it.
// Owner and holder are served in memory. Measured 28 and 30 (30.6 and 34.1
// at most under -race -cpu=1,2, in ten runs); the ceilings are the -race
// figures + 3 %, rounded up: 32 and 36. What the renewing revocation costs
// is TestRenewalFrameAllocs'.
func TestForwardHopRenewedAllocs(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	src := &changingSource{dtd: d}
	med := mediator.New("campus")
	if err := med.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView(src.Name(), xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	var ownerH, holderH *Handler
	holder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { holderH.ServeHTTP(w, r) })
	nodes, pinned := map[string]string{"alpha": "http://alpha", "beta": "http://beta"}, map[string][]string{"members": {"alpha"}}
	ownerNode, err := cluster.NewNode(cluster.Config{Self: "alpha", Nodes: nodes, Pinned: pinned,
		Client: &http.Client{Transport: pipehttp.Transport{Handler: holder}}})
	if err != nil {
		t.Fatal(err)
	}
	holderNode, err := cluster.NewNode(cluster.Config{Self: "beta", Nodes: nodes, Pinned: pinned,
		Client: &http.Client{Transport: pipehttp.Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ownerH.ServeHTTP(w, r) })}}})
	if err != nil {
		t.Fatal(err)
	}
	ownerH, holderH = New(med, WithCluster(ownerNode)), New(mediator.New("beta-med"), WithCluster(holderNode))
	const q = `r = SELECT P WHERE <members> P:<professor/> </members>`
	const runs = 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name, method, path, body string
		ceiling                  float64
	}{
		{"GET", http.MethodGet, "/views/members", "", 32},
		{"query", http.MethodPost, "/views/members/query", q, 36},
	} {
		read := func() string {
			rec := serveOnce(holderH, c.method, c.path, c.body, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("forwarded %s: %d %s", c.name, rec.Code, rec.Body)
			}
			return rec.Body.String()
		}
		// change announces the source's next version to the owner: the
		// holder is renewed on it.
		change := func() {
			src.version.Add(1)
			rec := serveOnce(ownerH, http.MethodPost, "/invalidate", `{"source": "cs-dept"}`, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /invalidate: %d %s", rec.Code, rec.Body)
			}
		}
		read() // builds the transport, holds the document, is leased
		read() // plans the query
		change()
		read()
		before := holderNode.Metrics()
		var reading uint64
		for i := 0; i < runs; i++ {
			change()
			var body string
			reading += mallocs(func() { body = read() })
			if !strings.Contains(body, fmt.Sprintf(`"v%d"`, src.version.Load())) {
				t.Fatalf("forwarded %s after renewal %d does not serve the new version", c.name, i)
			}
		}
		after := holderNode.Metrics()
		if applied, hits := after.RenewalsApplied-before.RenewalsApplied, after.LeaseHits-before.LeaseHits; applied != runs || hits != runs {
			t.Fatalf("%s: %d renewals applied and %d lease hits in %d changes", c.name, applied, hits, runs)
		}
		n := float64(reading) / runs
		t.Logf("forwarded %s after a renewal: %v allocs", c.name, n)
		if n > c.ceiling {
			t.Errorf("forwarded %s after a renewal: %v allocs, want ≤ %v", c.name, n, c.ceiling)
		}
	}
	ownerNode.Close()
}

// TestRenewalFrameAllocs ratchets one renewing revocation on a held stream,
// both sides of its frame, over loopback: the owner's Revoke of a view whose
// source changed — the protocol's decisions, the delta written, the frame
// written and its acknowledgement credited — and the holder's handling of
// the frame — read, spliced into the record it holds, the lease installed,
// acknowledged. The owner's read of the view is not in it: each run's
// answer was read before. Every run goes over the one stream opened before
// the count. Measured 34 (36 under -race -cpu=1,2, in ten runs); the
// ceiling is the -race figure + 3 %, rounded up: 38. The POST and 204 each
// revocation was before cost the holder's side alone 24, and the owner's
// sending ≈ 45 more.
func TestRenewalFrameAllocs(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	src := &changingSource{dtd: d}
	med := mediator.New("campus")
	if err := med.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView(src.Name(), xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	ownerSrv, holderSrv := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	nodes := map[string]string{"alpha": "http://" + ownerSrv.Listener.Addr().String(), "beta": "http://" + holderSrv.Listener.Addr().String()}
	pinned := map[string][]string{"members": {"alpha"}}
	ownerNode, err := cluster.NewNode(cluster.Config{Self: "alpha", Nodes: nodes, Pinned: pinned})
	if err != nil {
		t.Fatal(err)
	}
	holderNode, err := cluster.NewNode(cluster.Config{Self: "beta", Nodes: nodes, Pinned: pinned})
	if err != nil {
		t.Fatal(err)
	}
	ownerSrv.Config.Handler, holderSrv.Config.Handler = New(med, WithCluster(ownerNode)), New(mediator.New("beta-med"), WithCluster(holderNode))
	for _, srv := range []*httptest.Server{ownerSrv, holderSrv} {
		srv.Start()
		t.Cleanup(srv.Close)
	}
	t.Cleanup(ownerNode.Close)
	get := func() string {
		resp, err := http.Get(holderSrv.URL + "/views/members")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded GET: %d", resp.StatusCode)
		}
		return string(body)
	}
	ctx := context.Background()
	// versions are the document's next versions as the owner reads them,
	// one a revocation: the first opens the stream, before the count.
	const runs = 50
	type version struct {
		a   mediator.Answer
		tag string
	}
	var versions []version
	for i := 0; i < runs+2; i++ {
		src.version.Add(1)
		if _, err := med.InvalidateSource(src.Name()); err != nil {
			t.Fatal(err)
		}
		a, stats, err := med.Read(ctx, mediator.Request{View: "members"})
		if err != nil || stats.Tag == "" {
			t.Fatalf("the owner's read of version %d: %v, ETag %q", i, err, stats.Tag)
		}
		versions = append(versions, version{a, stats.Tag})
	}
	read := func(context.Context, string) (mediator.Answer, string, bool) {
		v := versions[0]
		versions = versions[1:]
		return v.a, v.tag, true
	}
	get() // leased on the version before the first
	ownerNode.Revoke(ctx, read, "members")
	before := holderNode.Metrics()
	n := testing.AllocsPerRun(runs, func() { ownerNode.Revoke(ctx, read, "members") })
	after, owner := holderNode.Metrics(), ownerNode.Metrics()
	if applied := after.RenewalsApplied - before.RenewalsApplied; applied != runs+1 || owner.StreamsOpened != 1 || owner.RevocationsWaitedOut != 0 {
		t.Fatalf("%d renewals applied in %d revocations; %d streams opened, %d revocations waited out; want every one applied over one stream",
			applied, runs+1, owner.StreamsOpened, owner.RevocationsWaitedOut)
	}
	if body := get(); !strings.Contains(body, fmt.Sprintf(`"v%d"`, src.version.Load())) || holderNode.Metrics().LeaseHits != after.LeaseHits+1 {
		t.Fatalf("the forwarded read after the last renewal is no lease hit on the last version:\n%s", body)
	}
	t.Logf("one renewing revocation, both sides of its frame: %v allocs", n)
	if n > 38 {
		t.Errorf("one renewing revocation, both sides of its frame: %v allocs, want ≤ 38", n)
	}
}

// mallocs is how many allocations the process made while f ran.
func mallocs(f func()) uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	f()
	runtime.ReadMemStats(&m)
	return m.Mallocs - before
}
