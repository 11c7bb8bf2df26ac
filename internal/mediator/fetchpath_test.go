package mediator

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// HTTPSource.Fetch's way from the socket to a document: the body is read
// once, and the payload's own DOCTYPE subset — checked, never used — is
// parsed only when its text is not the one that last parsed cleanly.

// scriptedRemote serves d1Text as view v's DTD and whatever body returns
// as the view.
func scriptedRemote(t testing.TB, body func() string) *HTTPSource {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /views/v/dtd", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, d1Text) })
	mux.HandleFunc("GET /views/v", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body()) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	src, err := NewHTTPSource(srv.Client(), srv.URL, "v", WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// deptBody is a valid department of profs professors under the given
// DOCTYPE text ("" for none).
func deptBody(doctype string, profs int) string {
	var b strings.Builder
	b.WriteString(doctype)
	b.WriteString("\n<department>\n  <name>CS</name>\n")
	for i := 0; i < profs; i++ {
		fmt.Fprintf(&b, "  <professor id=\"p%d\">\n    <firstName>F%d</firstName>\n    <lastName>L</lastName>\n"+
			"    <publication id=\"pub%d\"><title>t</title><author>a</author><journal>J</journal></publication>\n"+
			"    <teaches>c%d</teaches>\n  </professor>\n", i, i, i, i)
	}
	b.WriteString("  <gradStudent id=\"g\"><firstName>G</firstName><lastName>M</lastName>" +
		"<publication id=\"gp\"><title>t</title><author>a</author><conference>C</conference></publication></gradStudent>\n</department>\n")
	return b.String()
}

func TestFetchParsesAnUnchangedSubsetOnce(t *testing.T) {
	const badSubset = ` <!ELEMENT department (name,, professor)> `
	_, subsetErr := dtd.ParseSubset("department", badSubset)
	if subsetErr == nil {
		t.Fatal("the malformed subset parses")
	}
	other := strings.Replace(d1Text, "<!ELEMENT teaches (#PCDATA)>", "<!ELEMENT teaches (#PCDATA)> <!ATTLIST teaches x CDATA #IMPLIED>", 1)
	var body string
	src := scriptedRemote(t, func() string { return body })
	fetch := func(doctype string) (*string, error) {
		t.Helper()
		body = deptBody(doctype, 2)
		_, err := src.Fetch(context.Background())
		return src.okSubset.Load(), err
	}
	first, err := fetch(d1Text)
	if err != nil || first == nil || !strings.Contains(d1Text, "["+*first+"]") {
		t.Fatalf("first fetch: err %v, remembered subset %v", err, first)
	}
	// Stored once, not again: the second fetch found its subset's text
	// remembered and did not parse it.
	if again, err := fetch(d1Text); err != nil || again != first {
		t.Fatalf("the same body again: err %v, subset parsed again: %v", err, again != first)
	}
	changed, err := fetch(other)
	if err != nil || changed == first || !strings.Contains(*changed, "ATTLIST") {
		t.Fatalf("a changed subset: err %v, parsed: %v", err, changed != first)
	}
	// The check the memo replaces: a malformed subset fails the fetch, with
	// the error ParseDocument gave, and is not remembered.
	after, err := fetch("<!DOCTYPE department [" + badSubset + "]>")
	if want := "mediator: remote view unparseable: " + subsetErr.Error(); err == nil || err.Error() != want {
		t.Fatalf("a malformed subset: err %v, want %q", err, want)
	}
	if after != changed {
		t.Error("the malformed subset was remembered")
	}
	if _, err := fetch("<!DOCTYPE department [" + badSubset + "]>"); err == nil {
		t.Error("the malformed subset passed the second time")
	}
	if _, err := fetch(d1Text); err != nil {
		t.Errorf("a good body after a bad one: %v", err)
	}
}

func TestFetchWithoutDoctypeRemembersNothing(t *testing.T) {
	src := scriptedRemote(t, func() string { return deptBody("", 2) })
	for i := 0; i < 2; i++ {
		doc, err := src.Fetch(context.Background())
		if err != nil || doc.DocType != "" {
			t.Fatalf("fetch %d: doc type %q, err %v", i, doc.DocType, err)
		}
	}
	if got := src.okSubset.Load(); got != nil {
		t.Errorf("a body without a DOCTYPE left the subset %q remembered", *got)
	}
}

// Meaningful under -race: fetches of bodies whose subsets differ, and of
// one whose subset is malformed, share the memo without a lock.
func TestFetchSubsetMemoConcurrently(t *testing.T) {
	other := strings.Replace(d1Text, "]>", "<!-- a comment -->]>", 1)
	bodies := []string{deptBody(d1Text, 3), deptBody(other, 3), deptBody("<!DOCTYPE department [ <!BOGUS> ]>", 3)}
	var next atomic.Int64
	src := scriptedRemote(t, func() string { return bodies[next.Add(1)%3] })
	var wg sync.WaitGroup
	var ok, failed atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := src.Fetch(context.Background()); err == nil {
					ok.Add(1)
				} else if strings.Contains(err.Error(), "unsupported declaration <!BOGUS") {
					failed.Add(1)
				} else {
					t.Errorf("fetch: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() != 40 || failed.Load() != 20 {
		t.Errorf("%d fetches passed and %d failed on the malformed subset, want 40 and 20", ok.Load(), failed.Load())
	}
}

// What a warm fetch allocates beyond the round trip does not follow the
// document's size. The round trip's own share (client, server and
// transport allocate in this process too) is the same for both sizes, so
// the difference is the body, the validation and the parse: a fourfold
// document may add a few slab chunks, not its elements.
func TestFetchAllocations(t *testing.T) {
	measure := func(profs int) (allocs float64, size int) {
		// Two bodies a byte apart, in turn: a fetch that brought back the
		// bytes it holds would skip everything measured here.
		bodies := []string{deptBody(d1Text, profs), strings.Replace(deptBody(d1Text, profs), "<name>CS", "<name>EE", 1)}
		turn := 0
		src := scriptedRemote(t, func() string { turn++; return bodies[turn%2] })
		var last *xmlmodel.Document
		fetch := func() {
			doc, err := src.Fetch(context.Background())
			if err != nil || doc == last {
				t.Fatalf("fetch of a changed body: err %v, the held document again: %v", err, doc == last)
			}
			last = doc
		}
		fetch() // warm: connection, compiled automata, the subset memo
		return testing.AllocsPerRun(30, fetch), len(bodies[0])
	}
	small, smallSize := measure(60)
	large, largeSize := measure(240)
	t.Logf("%d bytes: %v allocs; %d bytes: %v allocs", smallSize, small, largeSize, large)
	if large-small > 40 {
		t.Errorf("fetching %d bytes costs %v allocs more than fetching %d (%v, %v): the cost follows the document", largeSize, large-small, smallSize, large, small)
	}
	// Measured 100 (109 under -race): one scan validates the body and builds
	// its tree, and the triple Fetch holds on to is one more object.
	if small > 115 {
		t.Errorf("a warm fetch of %d bytes: %v allocs, want ≤ 115", smallSize, small)
	}
}

// cannedRemote answers every GET from memory, with the length declared: the
// round trip costs the same few allocations whatever the body's size.
type cannedRemote map[string]string

func (c cannedRemote) RoundTrip(r *http.Request) (*http.Response, error) {
	body := c[r.URL.Path]
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body))}, nil
}

// A body that fails costs what its valid prefix earned: one that violates
// the DTD at its first child — a name its parent's content model does not
// mention; one the model mentions elsewhere is only found out when the
// parent closes — is dropped there, and what follows that child is read
// off the socket and never scanned.
func TestFetchOfAViolatingBodyAllocationsIgnoreItsSize(t *testing.T) {
	measure := func(size int) float64 {
		var b strings.Builder
		b.WriteString(d1Text + "\n<department><title>no department has one</title>")
		for b.Len() < size {
			b.WriteString("<course>c</course>")
		}
		b.WriteString("</department>")
		client := &http.Client{Transport: cannedRemote{"/views/v/dtd": d1Text, "/views/v": b.String()}}
		src, err := NewHTTPSource(client, "http://remote", "v", WithRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(30, func() {
			if _, err := src.Fetch(context.Background()); err == nil || !strings.Contains(err.Error(), "violates its own DTD") {
				t.Fatalf("fetch of a violating body: %v", err)
			}
		})
	}
	small, large := measure(16<<10), measure(1<<20)
	t.Logf("16 KiB: %v allocs; 1 MiB: %v allocs", small, large)
	// Measured 31 and 32 or 33 (up to 6 apart under -race): the collections
	// a 1 MiB body brings on empty the pool readBody's chunk comes from. The
	// tree of the 1 MiB would be some 90 allocations.
	if large > small+10 {
		t.Errorf("a violating body of 1 MiB costs %v allocs, one of 16 KiB %v: the cost follows the body", large, small)
	}
}

// The body costs its own bytes when the peer declared its length: one
// buffer, sized up front, handed back as the string. A declared length
// beyond the limit sizes nothing (the limit-plus-one read finds out).
func TestReadBodyAllocatesTheDeclaredLength(t *testing.T) {
	body := strings.Repeat("x", 1<<20)
	for _, c := range []struct {
		name     string
		declared int64
		ceiling  float64
	}{
		{"declared", int64(len(body)), 3}, // the buffer, the test's reader, a pool refill after a GC
		{"undeclared", -1, 40},            // grows by doubling, as ever
	} {
		var got string
		n := testing.AllocsPerRun(10, func() {
			var err error
			if got, err = readBody(strings.NewReader(body), c.declared); err != nil {
				t.Fatal(err)
			}
		})
		if got != body {
			t.Errorf("%s: the body read is not the body sent", c.name)
		}
		if n > c.ceiling {
			t.Errorf("%s: %v allocs, want ≤ %v", c.name, n, c.ceiling)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := readBody(strings.NewReader("tiny"), maxResponseBytes+1)
	runtime.ReadMemStats(&after)
	if err != nil || got != "tiny" {
		t.Fatalf("readBody = %q, %v", got, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("a declared length past the limit made a 4-byte body allocate %d bytes", grew)
	}
}

// deptBodyOfSize is deptBody grown to at least size bytes; salt tells two
// bodies of one size apart.
func deptBodyOfSize(size int, salt string) string {
	per := len(deptBody("", 1)) - len(deptBody("", 0))
	return strings.Replace(deptBody(d1Text, size/per+1), "<name>CS</name>", "<name>CS"+salt+"</name>", 1)
}

// cannedSource is an HTTPSource over a cannedRemote serving body as view v.
func cannedSource(t *testing.T, body string) (*HTTPSource, cannedRemote) {
	t.Helper()
	remote := cannedRemote{"/views/v/dtd": d1Text, "/views/v": body}
	src, err := NewHTTPSource(&http.Client{Transport: remote}, "http://remote", "v", WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	return src, remote
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// leastBytesPerRun is bytesPerRun taken run by run, the cheapest reported: what
// a call of f has to allocate. The mean also pays for what a sync.Pool lost —
// HTTPSource's 32 KiB read chunk, which a collection empties and a -race
// build drops on one Put in four — and that is not the code's to answer for.
func leastBytesPerRun(runs int, f func()) float64 {
	f()
	least := math.MaxFloat64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// A fetch that brings back the bytes already held costs the round trip and
// the body it had to read to find that out: the same allocations whatever
// the size, and no bytes beyond the body — no scan, no tree.
func TestRefetchOfUnchangedBytesAllocations(t *testing.T) {
	measure := func(size int) (allocs, extra float64) {
		body := deptBodyOfSize(size, "")
		src, _ := cannedSource(t, body)
		first := mustFetch(t, src)
		fetch := func() {
			if doc, err := src.Fetch(context.Background()); err != nil || doc != first {
				t.Fatalf("refetch of the held bytes: same document %v, err %v", doc == first, err)
			}
		}
		return testing.AllocsPerRun(30, fetch), bytesPerRun(30, fetch) - float64(len(body))
	}
	small, smallExtra := measure(16 << 10)
	large, largeExtra := measure(1 << 20)
	t.Logf("16 KiB: %v allocs, %.0f bytes beyond the body; 1 MiB: %v allocs, %.0f bytes beyond the body", small, smallExtra, large, largeExtra)
	// Measured 11 and 11; a collection the 1 MiB bodies bring on may empty
	// the pool readBody's chunk comes from.
	if large > small+3 {
		t.Errorf("refetching 1 MiB of held bytes costs %v allocs, 16 KiB %v: the cost follows the body", large, small)
	}
	// The tree of the 16 KiB body alone is some 55 kB, of the 1 MiB some 3.5 MB.
	for _, extra := range []float64{smallExtra, largeExtra} {
		if extra > 40<<10 {
			t.Errorf("a refetch of held bytes allocated %.0f bytes beyond the body, want the round trip's few (and a pooled 32 KiB chunk at most)", extra)
		}
	}
}

// refreshedView is a mediator with one view, "people", over one canned
// remote whose body is body.
func refreshedView(t *testing.T, body string) (*Mediator, *HTTPSource, cannedRemote) {
	t.Helper()
	src, remote := cannedSource(t, body)
	m := New("portal")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView(src.Name(), xmas.MustParse(`people = SELECT P WHERE <department> P:<professor/> </department>`)); err != nil {
		t.Fatal(err)
	}
	return m, src, remote
}

// A part whose source changed costs one tree: the body, and the scan that
// validates it and builds the document the slot then picks from. The picks
// are that document's elements — a second tree (the copy engine.Eval makes)
// would put the materialization near twice the parse.
func TestRefreshedPartAllocatesOneTree(t *testing.T) {
	ctx := context.Background()
	bodies := []string{deptBodyOfSize(16<<10, "a"), deptBodyOfSize(16<<10, "b")}
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	parse := bytesPerRun(30, func() {
		if _, _, err := d.ParseValid(bodies[0]); err != nil {
			t.Fatal(err)
		}
	})
	m, src, remote := refreshedView(t, bodies[0])
	turn := 0
	refresh := leastBytesPerRun(30, func() {
		turn++
		remote["/views/v"] = bodies[turn%2]
		if _, err := m.InvalidateSource(src.Name()); err != nil {
			t.Fatal(err)
		}
		doc, err := m.Materialize(ctx, "people")
		if err != nil || !strings.Contains(doc.Root.Children[0].Children[0].Text, "F0") {
			t.Fatalf("materialization of the changed source: %v", err)
		}
	})
	st := m.Stats()
	if st.PartsRevalidated != 0 || st.UnchangedBodies != 0 || st.PartsRecomputed != 31 {
		t.Fatalf("every refresh was to change the source: %d recomputed, %d revalidated, %d unchanged bodies",
			st.PartsRecomputed, st.PartsRevalidated, st.UnchangedBodies)
	}
	budget := 1.25 * (parse + float64(len(bodies[0])))
	t.Logf("ParseValid %.0f bytes, body %d; a refreshed part %.0f bytes (budget %.0f)", parse, len(bodies[0]), refresh, budget)
	if refresh > budget {
		t.Errorf("a refreshed part allocates %.0f bytes, want ≤ %.0f = 1.25 × (ParseValid's %.0f + the body's %d): there is a second tree",
			refresh, budget, parse, len(bodies[0]))
	}
}

// An invalidation that changed nothing costs the question: one round trip
// and one body per source, compared and dropped. Nothing is scanned,
// evaluated or copied, so the allocation count is the same for a view over
// 16 KiB and over 1 MiB.
func TestNoOpInvalidationAllocations(t *testing.T) {
	ctx := context.Background()
	measure := func(size int) float64 {
		m, _, _ := refreshedView(t, deptBodyOfSize(size, ""))
		first, info, err := m.MaterializeInfo(ctx, "people")
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		allocs := testing.AllocsPerRun(runs, func() {
			m.Invalidate()
			doc, again, err := m.MaterializeInfo(ctx, "people")
			if err != nil || again.Tag != info.Tag || doc.Root.Children[0] != first.Root.Children[0] {
				t.Fatalf("after a no-op invalidation: err %v, tag %s (was %s), same elements %v",
					err, again.Tag, info.Tag, err == nil && doc.Root.Children[0] == first.Root.Children[0])
			}
		})
		st := m.Stats()
		if st.PartsRevalidated != runs+1 || st.PartsRecomputed != runs+2 || st.UnchangedBodies != runs+1 {
			t.Errorf("%d bytes: %d parts revalidated, %d recomputed, %d unchanged bodies; want %d, %d, %d",
				size, st.PartsRevalidated, st.PartsRecomputed, st.UnchangedBodies, runs+1, runs+2, runs+1)
		}
		return allocs
	}
	small, large := measure(16<<10), measure(1<<20)
	t.Logf("16 KiB: %v allocs; 1 MiB: %v allocs", small, large)
	if large > small+3 {
		t.Errorf("a no-op invalidation over 1 MiB costs %v allocs, over 16 KiB %v: the cost follows the document", large, small)
	}
}
