package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The hop revalidates: GET /views/{name} carries the materialization's tag
// as its ETag and answers If-None-Match with 304, on an owner and — under
// the owner's tag — on a forwarder, whose own fetch of the owner is
// conditional too.

// changingSource is the department with one more professor per version.
type changingSource struct {
	dtd     *dtd.DTD
	version atomic.Int64
}

func (s *changingSource) Name() string     { return "cs-dept" }
func (s *changingSource) Schema() *dtd.DTD { return s.dtd }
func (s *changingSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	extra := fmt.Sprintf(`<professor id="v%[1]d"><firstName>V%[1]d</firstName><lastName>L</lastName>`+
		`<publication id="vp"><title>t</title><author>a</author><journal>J</journal></publication><teaches>c</teaches></professor>`,
		s.version.Load())
	doc, _, err := xmlmodel.Parse(strings.Replace(deptDoc, "<gradStudent", extra+"<gradStudent", 1))
	return doc, err
}

// hopCounts counts an owner's answers to GET /views/members by status.
type hopCounts struct {
	mu       sync.Mutex
	byStatus map[int]int
}

func (c *hopCounts) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/views/members" {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		c.mu.Lock()
		c.byStatus[sw.status]++
		c.mu.Unlock()
	})
}

// take returns the counts since the last take: documents shipped whole, and
// not at all (304).
func (c *hopCounts) take() (full, notModified int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	full, notModified = c.byStatus[http.StatusOK], c.byStatus[http.StatusNotModified]
	c.byStatus = map[int]int{}
	return full, notModified
}

// changingOwner is an owner of view members over a changingSource, its
// answers to GET /views/members counted.
type changingOwner struct {
	src    *changingSource
	med    *mediator.Mediator
	srv    *httptest.Server
	counts *hopCounts
}

func newChangingOwner(t *testing.T) *changingOwner {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	o := &changingOwner{src: &changingSource{dtd: d}, med: mediator.New("campus"), counts: &hopCounts{byStatus: map[int]int{}}}
	if err := o.med.AddSource(o.src); err != nil {
		t.Fatal(err)
	}
	if _, err := o.med.DefineView("cs-dept", xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	o.srv = httptest.NewServer(o.counts.wrap(New(o.med)))
	t.Cleanup(o.srv.Close)
	return o
}

// condGet is a GET with an If-None-Match header ("" for none).
func condGet(t *testing.T, url, ifNoneMatch string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// answersByVersion is the owner's answer to each query at each of versions
// versions, asked before a race (a version's document depends on nothing
// else): set(v) puts the owner at url on version v. It leaves it on 0.
func answersByVersion(t *testing.T, url string, queries []string, versions int, set func(v int64)) [][]string {
	t.Helper()
	want := make([][]string, versions)
	for v := range want {
		set(int64(v))
		for _, q := range queries {
			code, body := postBody(t, url+"/views/members/query", q)
			if code != 200 {
				t.Fatalf("owner, version %d: %d %s", v, code, body)
			}
			want[v] = append(want[v], body)
		}
	}
	set(0)
	return want
}

// forwardedReader is reader g of a race: it posts the queries to url in
// turn, from the g-th on, while more(i) holds for its i-th read, and fails t
// at the first answer that is not the owner's of some version
// (answersByVersion).
func forwardedReader(t *testing.T, url string, queries []string, want [][]string, g int, more func(i int) bool) {
	for i := 0; more(i); i++ {
		qi := (g + i) % len(queries)
		resp, err := http.Post(url+"/views/members/query", "text/plain", strings.NewReader(queries[qi]))
		if err != nil {
			t.Error(err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !slices.ContainsFunc(want, func(answers []string) bool { return answers[qi] == string(body) }) {
			t.Errorf("reader %d, read %d: %d, not the owner's answer of any version:\n%s", g, i, resp.StatusCode, body)
			return
		}
	}
}

// Meaningful under -race: forwarded readers share the plan memo and the
// picks memo while the owner's document changes under them, and every answer
// is byte for byte the owner's answer of one of the versions.
func TestForwardedReadersDuringOwnerChanges(t *testing.T) {
	owner := newChangingOwner(t)
	fwd, node, h := forwarderNode(t, owner.srv.URL, "members")
	queries := []string{
		`r = SELECT P WHERE <members> P:<professor/> </members>`,
		`r = SELECT G WHERE <members> G:<gradStudent/> </members>`,
		`r = SELECT P WHERE <members> <professor> P:<publication/> </professor> </members>`,
	}
	const versions = 4
	want := answersByVersion(t, owner.srv.URL, queries, versions, func(v int64) {
		owner.src.version.Store(v)
		owner.med.Invalidate()
	})
	const readers, reads = 4, 24
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			forwardedReader(t, fwd.URL, queries, want, g, func(i int) bool { return i < reads })
		}(g)
	}
	for v := 1; v < versions; v++ {
		owner.src.version.Store(int64(v))
		if _, err := owner.med.InvalidateSource("cs-dept"); err != nil {
			t.Fatal(err)
		}
		get(t, fwd.URL+"/views/members")
	}
	wg.Wait()

	m, hits := node.Metrics(), h.m.Stats().PlanTextHits
	// Two first requests for one text may both plan it; no text is planned
	// by more than every reader.
	if m.AnswersReused+m.AnswersEvaluated != readers*reads ||
		hits < int64(readers*reads-readers*len(queries)) || hits > int64(readers*reads-len(queries)) {
		t.Errorf("%d reused + %d evaluated answers for %d reads, %d plan hits", m.AnswersReused, m.AnswersEvaluated, readers*reads, hits)
	}
	for qi, q := range queries {
		if code, body := postBody(t, fwd.URL+"/views/members/query", q); code != 200 || body != want[versions-1][qi] {
			t.Errorf("after the changes, query %d: %d, the owner's last answer: %v", qi, code, body == want[versions-1][qi])
		}
	}
}

// A client's conditional GET is answered alike by owner and forwarder: 304
// with the provenance headers and no body while the tag holds, 200 under a
// new tag once the owner's source was invalidated.
func TestConditionalGet(t *testing.T) {
	owner := newChangingOwner(t)
	fwd := forwarderFor(t, owner.srv.URL, "members")
	_, _, hdr := get(t, owner.srv.URL+"/views/members")
	tag := hdr.Get("ETag")
	if len(tag) < 3 || tag[0] != '"' || tag[len(tag)-1] != '"' {
		t.Fatalf("ETag %q is not a quoted entity tag", tag)
	}
	for name, base := range map[string]string{"owner": owner.srv.URL, "forwarder": fwd.URL} {
		for _, held := range []string{tag, "W/" + tag, `"older", ` + tag} {
			code, body, hdr := condGet(t, base+"/views/members", held)
			if code != http.StatusNotModified || body != "" || hdr.Get("ETag") != tag {
				t.Errorf("%s, If-None-Match %s: %d, %d body bytes, ETag %q", name, held, code, len(body), hdr.Get("ETag"))
			}
			if hdr.Get(TraceHeader) == "" || (name == "forwarder") != (hdr.Get(mediator.ForwardHeader) == "beta") {
				t.Errorf("%s: a 304 with trace %q and hop path %q", name, hdr.Get(TraceHeader), hdr.Get(mediator.ForwardHeader))
			}
		}
		if code, body, _ := condGet(t, base+"/views/members", `"somebody-elses"`); code != 200 || body == "" {
			t.Errorf("%s: a tag that is not the view's: %d, %d body bytes", name, code, len(body))
		}
	}
	// Queries have no validator: nothing to hold, nothing to honour.
	req, _ := http.NewRequest(http.MethodPost, owner.srv.URL+"/views/members/query",
		strings.NewReader(`r = SELECT P WHERE <members> P:<professor/> </members>`))
	req.Header.Set("If-None-Match", tag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("ETag") != "" {
		t.Errorf("a query: %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}

	owner.src.version.Add(1)
	if _, err := owner.med.InvalidateSource("cs-dept"); err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]string{"owner": owner.srv.URL, "forwarder": fwd.URL} {
		code, body, hdr := condGet(t, base+"/views/members", tag)
		if code != 200 || !strings.Contains(body, `id="v1"`) || hdr.Get("ETag") == "" || hdr.Get("ETag") == tag {
			t.Errorf("%s after the invalidation: %d, new version %v, ETag %q (was %q)",
				name, code, strings.Contains(body, `id="v1"`), hdr.Get("ETag"), tag)
		}
	}
}

// A replicated view keeps one validator per owner — each owner is asked with
// the tag it sent, never with the other's — and a last-known-good serve is
// marked stale and carries no tag for anyone to hold.
func TestReplicatedForwardKeepsAValidatorPerOwner(t *testing.T) {
	a, b := newChangingOwner(t), newChangingOwner(t)
	node, err := cluster.NewNode(cluster.Config{
		Self:   "beta",
		Nodes:  map[string]string{"a": a.srv.URL, "b": b.srv.URL, "beta": ""},
		Pinned: map[string][]string{"members": {"a", "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd := httptest.NewServer(New(mediator.New("beta-med"), WithCluster(node)))
	t.Cleanup(fwd.Close)

	read := func(step string, held string) (int, http.Header) {
		t.Helper()
		code, body, hdr := condGet(t, fwd.URL+"/views/members", held)
		if code != 200 && code != http.StatusNotModified {
			t.Fatalf("%s: %d %s", step, code, body)
		}
		return code, hdr
	}
	_, hdr := read("first", "")
	tagA := hdr.Get("ETag")
	if code, _ := read("held", tagA); code != http.StatusNotModified {
		t.Errorf("the client's tag of owner a: %d", code)
	}
	if full, notModified := a.counts.take(); full != 1 || notModified != 1 {
		t.Errorf("owner a answered %d × 200 and %d × 304, want 1 and 1", full, notModified)
	}
	if full, notModified := b.counts.take(); full+notModified != 0 {
		t.Errorf("owner b was asked %d times while a was healthy", full+notModified)
	}

	a.srv.CloseClientConnections()
	a.srv.Close()
	code, hdr := read("failover", tagA)
	tagB := hdr.Get("ETag")
	if code != 200 || tagB == "" || tagB == tagA {
		t.Errorf("failed over to b holding a's tag: %d, ETag %q (a's %q)", code, tagB, tagA)
	}
	if code, _ := read("held b", tagB); code != http.StatusNotModified {
		t.Errorf("the client's tag of owner b: %d", code)
	}
	if full, notModified := b.counts.take(); full != 1 || notModified != 1 {
		t.Errorf("owner b answered %d × 200 and %d × 304, want 1 and 1: it was asked with a tag that is not its own", full, notModified)
	}

	b.srv.CloseClientConnections()
	b.srv.Close()
	code, hdr = read("every owner down", tagB)
	if code != 200 || hdr.Get("X-Mix-Stale-Sources") == "" || hdr.Get("ETag") != "" {
		t.Errorf("last known good: %d, stale %q, ETag %q; want a full, marked, untagged answer",
			code, hdr.Get("X-Mix-Stale-Sources"), hdr.Get("ETag"))
	}
	if cm := node.Metrics(); cm.NotModified != 2 {
		t.Errorf("cluster metrics: %d forwarded reads not modified, want 2", cm.NotModified)
	}
}

// One forwarded read, one trace ID: the forwarder's request and the owner's
// answer to it are filed under the same ID in their /debug/trace rings.
func TestForwardedReadSharesItsTraceID(t *testing.T) {
	owner := newServer(t)
	fwd := forwarderFor(t, owner.URL, "members")
	get(t, fwd.URL+"/views/members") // builds the transport (the DTD round trip)
	_, _, hdr := get(t, fwd.URL+"/views/members")
	id := hdr.Get(TraceHeader)
	if id == "" {
		t.Fatal("no trace ID on the forwarded answer")
	}
	for name, base := range map[string]string{"owner": owner.URL, "forwarder": fwd.URL} {
		_, body, _ := get(t, base+"/debug/trace")
		var ring struct {
			Traces []struct {
				TraceID string `json:"trace_id"`
			} `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &ring); err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, tr := range ring.Traces {
			if tr.TraceID == id {
				found++
			}
		}
		if found != 1 {
			t.Errorf("%s: %d traces under %s, want 1", name, found, id)
		}
	}
}
