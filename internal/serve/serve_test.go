package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

const d1Text = `<!DOCTYPE department [
  <!ELEMENT department (name, professor+, gradStudent+, course*)>
  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
  <!ELEMENT gradStudent (firstName, lastName, publication+)>
  <!ELEMENT publication (title, author+, (journal|conference))>
  <!ELEMENT name (#PCDATA)> <!ELEMENT firstName (#PCDATA)>
  <!ELEMENT lastName (#PCDATA)> <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)> <!ELEMENT journal (#PCDATA)>
  <!ELEMENT conference (#PCDATA)> <!ELEMENT course (#PCDATA)>
  <!ELEMENT teaches (#PCDATA)>
]>`

const deptDoc = `<department>
  <name>CS</name>
  <professor id="ana">
    <firstName>Ana</firstName><lastName>A</lastName>
    <publication id="a1"><title>t1</title><author>Ana</author><journal>J1</journal></publication>
    <publication id="a2"><title>t2</title><author>Ana</author><journal>J2</journal></publication>
    <teaches>cse100</teaches>
  </professor>
  <gradStudent id="cyd">
    <firstName>Cyd</firstName><lastName>C</lastName>
    <publication id="c1"><title>t5</title><author>Cyd</author><journal>J1</journal></publication>
  </gradStudent>
</department>`

func newServer(t *testing.T) *httptest.Server {
	srv, _ := newServerAndMediator(t)
	return srv
}

func newServerAndMediator(t testing.TB) (*httptest.Server, *mediator.Mediator) {
	t.Helper()
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
	if _, err := m.DefineView("cs-dept", xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(m))
	t.Cleanup(srv.Close)
	return srv, m
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
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
	return resp.StatusCode, b.String(), resp.Header
}

func TestListEndpoints(t *testing.T) {
	srv := newServer(t)
	code, body, _ := get(t, srv.URL+"/views")
	if code != 200 || strings.TrimSpace(body) != "members" {
		t.Errorf("views: %d %q", code, body)
	}
	code, body, _ = get(t, srv.URL+"/sources")
	if code != 200 || strings.TrimSpace(body) != "cs-dept" {
		t.Errorf("sources: %d %q", code, body)
	}
}

func TestViewEndpointsServeValidXML(t *testing.T) {
	srv := newServer(t)
	code, body, _ := get(t, srv.URL+"/views/members")
	if code != 200 {
		t.Fatalf("view: %d %s", code, body)
	}
	doc, d, err := dtd.ParseDocument(body)
	if err != nil {
		t.Fatalf("response is not parseable XML+DTD: %v\n%s", err, body)
	}
	if d == nil {
		t.Fatal("response lacks the inline view DTD")
	}
	if err := d.Validate(doc); err != nil {
		t.Errorf("served view invalid under its own DTD: %v", err)
	}
	if len(doc.Root.Children) != 2 {
		t.Errorf("members = %d", len(doc.Root.Children))
	}
}

func TestDTDEndpoints(t *testing.T) {
	srv := newServer(t)
	code, body, _ := get(t, srv.URL+"/views/members/dtd")
	if code != 200 || !strings.Contains(body, "<!DOCTYPE members") {
		t.Errorf("dtd: %d %q", code, body)
	}
	if _, err := dtd.Parse(body); err != nil {
		t.Errorf("served DTD unparseable: %v", err)
	}
	code, body, _ = get(t, srv.URL+"/views/members/sdtd")
	if code != 200 || !strings.Contains(body, "<!DOCTYPE members") {
		t.Errorf("sdtd: %d %q", code, body)
	}
	code, body, _ = get(t, srv.URL+"/sources/cs-dept/dtd")
	if code != 200 || !strings.Contains(body, "<!DOCTYPE department") {
		t.Errorf("source dtd: %d %q", code, body)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := newServer(t)
	q := `profs = SELECT X WHERE <members> X:<professor><publication/></professor> </members>`
	resp, err := http.Post(srv.URL+"/views/members/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	e, err := xmlmodel.ParseElement(body)
	if err != nil {
		t.Fatalf("unparseable result: %v\n%s", err, body)
	}
	if len(e.Children) != 1 || e.Children[0].ID != "ana" {
		t.Errorf("result: %s", body)
	}
	if resp.Header.Get("X-Mix-Pruned") != "1" {
		t.Errorf("X-Mix-Pruned = %q, want 1", resp.Header.Get("X-Mix-Pruned"))
	}
}

func TestQueryEndpointUnsatisfiable(t *testing.T) {
	srv := newServer(t)
	q := `v = SELECT X WHERE <members> X:<course/> </members>`
	resp, err := http.Post(srv.URL+"/views/members/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Mix-Skipped") != "true" {
		t.Errorf("X-Mix-Skipped = %q", resp.Header.Get("X-Mix-Skipped"))
	}
}

func TestErrorStatuses(t *testing.T) {
	srv := newServer(t)
	for _, path := range []string{"/views/nosuch", "/views/nosuch/dtd", "/views/nosuch/sdtd", "/sources/nosuch/dtd"} {
		code, _, _ := get(t, srv.URL+path)
		if code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", path, code)
		}
	}
	resp, err := http.Post(srv.URL+"/views/members/query", "text/plain", strings.NewReader("not a query"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: %d, want 400", resp.StatusCode)
	}
}

func TestOutlineEndpoints(t *testing.T) {
	srv := newServer(t)
	code, body, _ := get(t, srv.URL+"/sources/cs-dept/outline")
	if code != 200 || !strings.Contains(body, "professor +") {
		t.Errorf("source outline: %d %q", code, body)
	}
	code, body, _ = get(t, srv.URL+"/views/members/outline")
	if code != 200 || !strings.Contains(body, "members") {
		t.Errorf("view outline: %d %q", code, body)
	}
	code, _, _ = get(t, srv.URL+"/views/nosuch/outline")
	if code != 404 {
		t.Errorf("unknown view outline: %d", code)
	}
}

func TestInferEndpoint(t *testing.T) {
	srv := newServer(t)
	body := d1Text + "\n" + `withJournals =
SELECT P
WHERE <department><name>CS</name>
        P:<professor|gradStudent>
           <publication id=Pub1><journal/></publication>
           <publication id=Pub2><journal/></publication>
        </>
      </department>
AND Pub1 != Pub2`
	resp, err := http.Post(srv.URL+"/infer", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	out := string(buf[:n])
	if resp.StatusCode != 200 {
		t.Fatalf("infer: %d %s", resp.StatusCode, out)
	}
	for _, want := range []string{"specialized view DTD", "publication^1", "classification: satisfiable", "non-tightness introduced"} {
		if !strings.Contains(out, want) {
			t.Errorf("response misses %q:\n%s", want, out)
		}
	}
	// Bad inputs.
	for _, bad := range []string{"", "no doctype here", d1Text + "\nnot a query"} {
		resp, err := http.Post(srv.URL+"/infer", "text/plain", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("bad input %q accepted", bad)
		}
	}
	// The request splits where the DOCTYPE ends, not at the first "]>": one
	// inside a comment or a skipped declaration's literal is DTD text, and
	// the answer is what the same DTD without them gets.
	plain := `<!DOCTYPE r [ <!ELEMENT r (a*, b)> <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)> ]>`
	noisy := `<!DOCTYPE r [ <!-- ]> --> <!ELEMENT r (a*, b)> <!ATTLIST r x CDATA "]>"> <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)> ]>`
	answers := map[string]string{}
	for _, d := range []string{plain, noisy} {
		resp, err := http.Post(srv.URL+"/infer", "text/plain", strings.NewReader(d+"\nv = SELECT X WHERE <r> X:<a/> </r>"))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("infer over %s: %d %s", d, resp.StatusCode, out)
		}
		answers[d] = string(out)
	}
	if answers[noisy] != answers[plain] || !strings.Contains(answers[plain], "<!ELEMENT v (a*)>") {
		t.Errorf("a \"]>\" inside the subset changed the answer:\n%s\nwithout it:\n%s", answers[noisy], answers[plain])
	}
	// Recursive views are rejected with 422.
	rec := `<!DOCTYPE s [ <!ELEMENT s (p, s*, c)> <!ELEMENT p (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>` +
		"\n" + `v = SELECT X WHERE <s*> X:<p/> </>`
	resp, err = http.Post(srv.URL+"/infer", "text/plain", strings.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("recursive view: %d, want 422", resp.StatusCode)
	}
}

// TestQueryEndpointPrunedSourcesHeader: when per-part pruning proves a
// union part irrelevant to the query, the response names the skipped
// sources in X-Mix-Pruned-Sources — and does NOT claim degradation, since
// the answer is exact.
func TestQueryEndpointPrunedSourcesHeader(t *testing.T) {
	m := mediator.New("libs")
	for _, s := range []struct{ name, dtdText, docText string }{
		{"libA", `<!DOCTYPE library [
  <!ELEMENT library (item*)> <!ELEMENT item (book)> <!ELEMENT book (#PCDATA)>
]>`, `<library><item><book>Dune</book></item></library>`},
		{"libB", `<!DOCTYPE library [
  <!ELEMENT library (item*)> <!ELEMENT item (disc)> <!ELEMENT disc (#PCDATA)>
]>`, `<library><item><disc>OK Computer</disc></item></library>`},
	} {
		d, err := dtd.Parse(s.dtdText)
		if err != nil {
			t.Fatal(err)
		}
		doc, _, err := xmlmodel.Parse(s.docText)
		if err != nil {
			t.Fatal(err)
		}
		src, err := mediator.NewStaticSource(s.name, doc, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	part := `SELECT I WHERE <library> I:<item/> </library>`
	if _, err := m.DefineUnionView("cat", []mediator.ViewPart{
		{Source: "libA", Query: xmas.MustParse(part)},
		{Source: "libB", Query: xmas.MustParse(part)},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(m))
	t.Cleanup(srv.Close)

	q := `r = SELECT X WHERE <cat> X:<item><book/></item> </cat>`
	resp, err := http.Post(srv.URL+"/views/cat/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mix-Pruned-Sources"); got != "libB" {
		t.Errorf("X-Mix-Pruned-Sources = %q, want libB", got)
	}
	if got := resp.Header.Get("X-Mix-Degraded"); got != "" {
		t.Errorf("X-Mix-Degraded = %q set on a pruned (exact) response", got)
	}
}

// The handlers stream their answers; what arrives must still be, byte for
// byte, the inferred DTD's text followed by the document's serialization.
func TestAnswersAreTheSerializersBytes(t *testing.T) {
	srv, m := newServerAndMediator(t)
	ctx := context.Background()
	v, err := m.View("members")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := m.Materialize(ctx, "members")
	if err != nil {
		t.Fatal(err)
	}
	if _, body, _ := get(t, srv.URL+"/views/members"); body != dtd.MarshalDocument(doc, v.DTD, 2) {
		t.Errorf("GET view body:\n%s\nwant:\n%s", body, dtd.MarshalDocument(doc, v.DTD, 2))
	}
	if _, body, _ := get(t, srv.URL+"/views/members/dtd"); body != v.DTD.String()+"\n" {
		t.Errorf("GET dtd body %q, want %q", body, v.DTD.String()+"\n")
	}
	q := `profs = SELECT X WHERE <members> X:<professor><publication/></professor> </members>`
	want, err := m.QueryUnsimplified(ctx, "members", xmas.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/views/members/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != dtd.MarshalDocument(want, nil, 2) {
		t.Errorf("POST query body:\n%s\nwant:\n%s", body, dtd.MarshalDocument(want, nil, 2))
	}
}

// TestWarmAnswersDeclareTheirLength: over a real connection, a query's answer
// and a view's document go out chunked while a run is streamed (the first two
// reads) and with a Content-Length once every run brings its bytes (the
// third, which renders them, and the fourth, which copies them); the bodies
// are the same bytes and the headers the same set, but for that one. A 304
// declares no length; an inference, found in the memo or not, declares its.
func TestWarmAnswersDeclareTheirLength(t *testing.T) {
	srv := httptest.NewServer(New(benchmarkSizedNode(t)))
	defer srv.Close()
	send := func(method, path, body string, header ...string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}
	// what a response says beyond its length and the values that differ per
	// response
	said := func(h http.Header) http.Header {
		h = h.Clone()
		for _, k := range []string{"Content-Length", "Date", TraceHeader} {
			delete(h, k)
		}
		return h
	}
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/views/w/query", benchmarkSizedQuery},
		{http.MethodGet, "/views/w", ""},
	} {
		first, want := send(c.method, c.path, c.body)
		for read := 1; read <= 4; read++ {
			resp, body := first, want
			if read > 1 {
				resp, body = send(c.method, c.path, c.body)
			}
			chunked := len(resp.TransferEncoding) == 1 && resp.TransferEncoding[0] == "chunked"
			switch {
			case resp.StatusCode != http.StatusOK || body != want:
				t.Fatalf("%s %s, read %d: %d, %d bytes, want the first read's %d", c.method, c.path, read, resp.StatusCode, len(body), len(want))
			case read <= 2 && (!chunked || resp.ContentLength != -1):
				t.Errorf("%s %s, read %d streams a run: Transfer-Encoding %v, Content-Length %d, want chunked", c.method, c.path, read, resp.TransferEncoding, resp.ContentLength)
			case read > 2 && (chunked || resp.ContentLength != int64(len(want))):
				t.Errorf("%s %s, read %d: Transfer-Encoding %v, Content-Length %d, want the body's length %d", c.method, c.path, read, resp.TransferEncoding, resp.ContentLength, len(want))
			}
			if got, first := said(resp.Header), said(first.Header); !reflect.DeepEqual(got, first) {
				t.Errorf("%s %s, read %d: headers %v, want the first read's %v", c.method, c.path, read, got, first)
			}
		}
		if tag := first.Header.Get("ETag"); tag != "" {
			resp, body := send(c.method, c.path, c.body, "If-None-Match", tag)
			if resp.StatusCode != http.StatusNotModified || body != "" || resp.Header["Content-Length"] != nil {
				t.Errorf("conditional GET: %d, %d bytes, Content-Length %q", resp.StatusCode, len(body), resp.Header["Content-Length"])
			}
		} else if c.method == http.MethodGet {
			t.Errorf("GET %s carries no ETag", c.path)
		}
	}
	infer := d1Text + "\nv = SELECT P WHERE <department> P:<professor/> </department>"
	for _, memo := range []string{"miss", "hit"} {
		resp, body := send(http.MethodPost, "/infer", infer)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("inference, memo %s: %d, Content-Length %q on %d bytes", memo, resp.StatusCode, resp.Header.Get("Content-Length"), len(body))
		}
	}
}
