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
	"time"
	"unsafe"

	"repro/internal/dtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// HTTPSource.Fetch's way from the socket to a document: the body is read
// once, and the payload's own DOCTYPE subset — checked, never used — is
// parsed only when its text is not the held body's.

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
	fetch := func(doctype string, profs int) (string, error) {
		t.Helper()
		body = deptBody(doctype, profs)
		_, err := src.Fetch(context.Background())
		return src.kept.Load().subset, err
	}
	first, err := fetch(d1Text, 2)
	if err != nil || !strings.Contains(d1Text, "["+first+"]") {
		t.Fatalf("first fetch: err %v, held subset %q", err, first)
	}
	// A changed body under the same subset is held with it (and, as
	// TestFetchOfAnUnchangedSubsetAllocs counts, the subset is not parsed).
	if again, err := fetch(d1Text, 3); err != nil || again != first {
		t.Fatalf("a changed body under the same subset: err %v, held subset %q", err, again)
	}
	changed, err := fetch(other, 3)
	if err != nil || changed == first || !strings.Contains(changed, "ATTLIST") {
		t.Fatalf("a changed subset: err %v, held %q", err, changed)
	}
	// What the held subset spares: a malformed subset fails the fetch, with
	// the error ParseDocument gave, and is not held.
	after, err := fetch("<!DOCTYPE department ["+badSubset+"]>", 3)
	if want := "mediator: remote view unparseable: " + subsetErr.Error(); err == nil || err.Error() != want {
		t.Fatalf("a malformed subset: err %v, want %q", err, want)
	}
	if after != changed {
		t.Error("the malformed subset was held")
	}
	if _, err := fetch("<!DOCTYPE department ["+badSubset+"]>", 2); err == nil {
		t.Error("the malformed subset passed the second time")
	}
	if _, err := fetch(d1Text, 2); err != nil {
		t.Errorf("a good body after a bad one: %v", err)
	}
}

// A changed body under the DOCTYPE subset the source holds does not parse the
// subset again: fetching bodies that differ under one subset costs at least
// half a subset parse less than fetching bodies whose subsets differ too.
func TestFetchOfAnUnchangedSubsetAllocs(t *testing.T) {
	other := strings.Replace(d1Text, "]>", "<!-- another subset -->]>", 1)
	subset := d1Text[strings.IndexByte(d1Text, '[')+1 : strings.LastIndexByte(d1Text, ']')]
	parse := testing.AllocsPerRun(30, func() {
		if _, err := dtd.ParseSubset("department", subset); err != nil {
			t.Fatal(err)
		}
	})
	measure := func(second string) float64 {
		bodies := []string{deptBody(d1Text, 2), deptBody(second, 3)}
		turn := 0
		src := scriptedRemote(t, func() string { turn++; return bodies[turn%2] })
		fetch := func() {
			if _, err := src.Fetch(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		fetch()
		allocs := math.MaxFloat64
		for i := 0; i < 3; i++ { // the cheapest of three, as in TestFetchAllocations
			allocs = min(allocs, testing.AllocsPerRun(30, fetch))
		}
		return allocs
	}
	same, differing := measure(d1Text), measure(other)
	t.Logf("a subset parse: %v allocs; fetches under one subset %v, under two %v", parse, same, differing)
	if parse < 10 || differing-same < parse/2 {
		t.Errorf("fetches under one subset cost %v allocs, under two %v, a parse %v: the held subset was parsed again", same, differing, parse)
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
	if got := src.kept.Load().subset; got != "" {
		t.Errorf("a body without a DOCTYPE left the subset %q held", got)
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
		fetch() // warm: connection, compiled automata, the held subset
		// The cheapest of three: under -race sync.Pool drops Puts at random,
		// and a lost read chunk is not the fetch's to answer for.
		allocs = math.MaxFloat64
		for i := 0; i < 3; i++ {
			allocs = min(allocs, testing.AllocsPerRun(30, fetch))
		}
		return allocs, len(bodies[0])
	}
	small, smallSize := measure(60)
	large, largeSize := measure(240)
	t.Logf("%d bytes: %v allocs; %d bytes: %v allocs", smallSize, small, largeSize, large)
	if large-small > 40 {
		t.Errorf("fetching %d bytes costs %v allocs more than fetching %d (%v, %v): the cost follows the document", largeSize, large-small, smallSize, large, small)
	}
	// Measured 78 (88 to 91 under -race): one scan validates the body and
	// builds its tree in two arrays, sized by the held document's count, and
	// the record Fetch holds on to is one more object — runs and memos it
	// holds for a cluster member alone (TestOnlyAMembersFetchHoldsRuns).
	if small > 97 {
		t.Errorf("a warm fetch of %d bytes: %v allocs, want ≤ 97", smallSize, small)
	}
}

// BenchmarkFetchChanged is a refetch of a body that changed, as the refresh
// workload's sources make one: an HTTPSource over a loopback server, its
// client bounded by a Timeout as the benchmark's is (net/http then arms a
// timer per request), fetching two 16 KiB bodies in turn — the round trip,
// the body, the one scan that validates it and builds its tree, and the
// record the source keeps.
func BenchmarkFetchChanged(b *testing.B) {
	bodies := []string{deptBodyOfSize(16<<10, "a"), deptBodyOfSize(16<<10, "b")}
	var turn atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /views/v/dtd", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, d1Text) })
	mux.HandleFunc("GET /views/v", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, bodies[turn.Add(1)%2]) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	src, err := NewHTTPSource(&http.Client{Timeout: 30 * time.Second}, srv.URL, "v", WithRetries(0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	last, err := src.Fetch(ctx) // warm: connection, compiled automata, the held subset and count
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := src.Fetch(ctx)
		if err != nil || doc == last {
			b.Fatalf("fetch of a changed body: err %v, the held document again: %v", err, doc == last)
		}
		last = doc
	}
}

// Only a cluster member's fetch holds its document as runs with memos: a
// fetch without a forward's note — a leaf source, a refresh, a stacked mediator
// — holds none, and its record is no larger than the 240 bytes it was when it
// kept four runs' counts inline. The member's next fetch of the same bytes
// holds them: one run, as the remote cut nothing, with a memo.
func TestOnlyAMembersFetchHoldsRuns(t *testing.T) {
	src := scriptedRemote(t, func() string { return deptBody(d1Text, 3) })
	if _, err := src.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if k := src.kept.Load(); k.runs != nil {
		t.Errorf("a leaf fetch holds %d runs", len(k.runs))
	}
	if size := unsafe.Sizeof(keptDocument{}); size > 240 {
		t.Errorf("a leaf's record is %d bytes, more than 240", size)
	}
	member := NewForwardNote(context.Background(), []string{"m"})
	doc, err := src.Fetch(member)
	if err != nil {
		t.Fatal(err)
	}
	k := src.kept.Load()
	if k.doc != doc || len(k.runs) != 1 || k.runs[0].answers == nil || len(k.runs[0].root.Children) != len(doc.Root.Children) {
		t.Errorf("a member's fetch of the held bytes holds the held document %v, %d runs", k.doc == doc, len(k.runs))
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

// violatingBody is a body of about size bytes that violates the DTD at its
// first child: a name its parent's content model does not mention (one the
// model mentions elsewhere is only found out when the parent closes).
func violatingBody(size int) string {
	var b strings.Builder
	b.WriteString(d1Text + "\n<department><title>no department has one</title>")
	for b.Len() < size {
		b.WriteString("<course>c</course>")
	}
	b.WriteString("</department>")
	return b.String()
}

// A body that fails costs what its valid prefix earned: one that violates
// the DTD at its first child is dropped there, and what follows that child
// is read off the socket and never scanned.
//
// After a valid body of n elements the source sizes the next tree by it
// (dtd.ParseValid), so a failing body may also have carved that tree before
// it failed, and no more: 16 MiB of '<', and a body that fails at its first
// child, each allocate beyond their own bytes at most n × (80 + 8) bytes —
// an element and its place in a child list — and a page more than at a
// source that holds nothing, whatever their length.
func TestFetchOfAViolatingBodyAllocationsIgnoreItsSize(t *testing.T) {
	measure := func(size int) float64 {
		src, _ := cannedSource(t, violatingBody(size))
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

	beyondBody := func(body string, held bool) (bytes float64, elems int) {
		src, remote := cannedSource(t, deptBodyOfSize(16<<10, "a"))
		if held {
			mustFetch(t, src)
			elems = src.kept.Load().elems
		}
		remote["/views/v"] = body
		bytes = leastBytesPerRun(10, func() {
			if _, err := src.Fetch(context.Background()); err == nil {
				t.Fatal("a hostile body was fetched")
			}
		})
		return bytes - float64(len(body)), elems
	}
	for _, c := range []struct{ name, body string }{
		{"<<<<", strings.Repeat("<", maxResponseBytes)},
		{"fails at its first child, 16 KiB", violatingBody(16 << 10)},
		{"fails at its first child, 1 MiB", violatingBody(1 << 20)},
	} {
		unsized, _ := beyondBody(c.body, false)
		sized, n := beyondBody(c.body, true)
		t.Logf("%s: %.0f bytes beyond the body's; %.0f after %d elements", c.name, unsized, sized, n)
		if n == 0 {
			t.Fatal("the valid body's element count was not kept")
		}
		// The allocator rounds an array past 32 KiB up to whole 8 KiB pages.
		if ceiling := unsized + float64(n*(80+8)+8<<10); sized > ceiling {
			t.Errorf("%s after a body of %d elements: %.0f bytes beyond the body's, want ≤ %.0f", c.name, n, sized, ceiling)
		}
		// Measured 2.7 kB to 12 kB: the round trip, the scan, the error, and
		// a large body's array rounded up to a page.
		if unsized > 16<<10 {
			t.Errorf("%s: %.0f bytes beyond the body's, want ≤ %d", c.name, unsized, 16<<10)
		}
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
			if got, err = readBody(strings.NewReader(body), c.declared, ""); err != nil {
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
	got, err := readBody(strings.NewReader("tiny"), maxResponseBytes+1, "")
	runtime.ReadMemStats(&after)
	if err != nil || got != "tiny" {
		t.Fatalf("readBody = %q, %v", got, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("a declared length past the limit made a 4-byte body allocate %d bytes", grew)
	}
}

// A body is compared with the held one as it arrives: one equal to it is the
// held string itself and costs nothing, any other is the bytes sent — copied
// from the first byte that differs, never aliasing what is held — whether
// the peer declared its length or not.
func TestReadBodyOfTheHeldBodyAllocs(t *testing.T) {
	held := strings.Repeat("<p>abc</p>", 10<<10) // 100 KiB: four reads of the pooled chunk
	flip := func(i int) string {
		b := []byte(held)
		b[i] ^= 1
		return string(b)
	}
	for _, c := range []struct{ name, body string }{
		{"equal", held},
		{"differs at the first byte", flip(0)},
		{"differs at the last byte", flip(len(held) - 1)},
		{"shorter", held[:len(held)-1]},
		{"longer", held + "<p/>"},
	} {
		for _, declared := range []bool{true, false} {
			name := c.name
			length := int64(len(c.body))
			if !declared {
				name += ", unknown length"
				length = -1
			}
			body := strings.Clone(c.body) // what the wire brings is never the held string
			r := strings.NewReader(body)
			var got string
			allocs := testing.AllocsPerRun(10, func() {
				r.Reset(body)
				var err error
				if got, err = readBody(r, length, held); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
			if got != c.body {
				t.Errorf("%s: %d bytes read, not the %d sent", name, len(got), len(c.body))
			}
			heldItself := unsafe.StringData(got) == unsafe.StringData(held)
			if equal := c.body == held; heldItself != equal {
				t.Errorf("%s: the held string returned: %v", name, heldItself)
			}
			if c.body == held && allocs != 0 {
				t.Errorf("%s: %v allocs, want none", name, allocs)
			}
		}
	}
}

// chunkedReader hands out its body n bytes a Read, as a chunked response
// arrives.
type chunkedReader struct {
	strings.Reader
	n int
}

func (r *chunkedReader) Read(p []byte) (int, error) { return r.Reader.Read(p[:min(len(p), r.n)]) }

// A changed body of unknown length is copied into one buffer the held body's
// length, not grown from its first chunk: a 17 KiB body that arrives in
// 2 KiB chunks and differs from the held one in its first costs that buffer
// alone (seven allocations while it grew from the first chunk's size).
func TestReadBodyOfAChangedChunkedBodyAllocs(t *testing.T) {
	held := deptBodyOfSize(16<<10, "a")
	body := deptBodyOfSize(16<<10, "b")
	if len(body) != len(held) || body == held {
		t.Fatal("the two bodies are to differ at one length")
	}
	r := &chunkedReader{n: 2 << 10}
	var got string
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		var err error
		if got, err = readBody(r, -1, held); err != nil {
			t.Fatal(err)
		}
	})
	if got != body {
		t.Fatalf("%d bytes read, not the %d sent", len(got), len(body))
	}
	if allocs != 1 {
		t.Errorf("a changed chunked body of %d bytes: %v allocs, want 1 (one buffer)", len(body), allocs)
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

// A fetch that brings back the bytes already held costs the round trip: the
// same allocations whatever the size, and not even the body — it is compared
// with the held one as it is read, not copied — let alone a scan or a tree.
func TestRefetchOfUnchangedBytesAllocations(t *testing.T) {
	measure := func(size int) (allocs, bytes float64) {
		body := deptBodyOfSize(size, "")
		src, _ := cannedSource(t, body)
		first := mustFetch(t, src)
		fetch := func() {
			if doc, err := src.Fetch(context.Background()); err != nil || doc != first {
				t.Fatalf("refetch of the held bytes: same document %v, err %v", doc == first, err)
			}
		}
		return testing.AllocsPerRun(30, fetch), leastBytesPerRun(30, fetch)
	}
	small, smallBytes := measure(16 << 10)
	large, largeBytes := measure(1 << 20)
	t.Logf("16 KiB: %v allocs, %.0f bytes; 1 MiB: %v allocs, %.0f bytes", small, smallBytes, large, largeBytes)
	// Measured 9 and 9; a collection the 1 MiB bodies bring on may empty
	// the pool readBody's chunk comes from.
	if large > small+3 {
		t.Errorf("refetching 1 MiB of held bytes costs %v allocs, 16 KiB %v: the cost follows the body", large, small)
	}
	// The copy of the 16 KiB body alone is 16 kB, its tree some 55 kB; of the
	// 1 MiB, 1 MB and some 3.5 MB.
	for _, bytes := range []float64{smallBytes, largeBytes} {
		if bytes > 8<<10 {
			t.Errorf("a refetch of held bytes allocated %.0f bytes, want the round trip's few: the body was copied", bytes)
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
		if _, _, _, err := d.ParseValid(bodies[0], 0); err != nil {
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
