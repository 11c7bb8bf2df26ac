package mediator

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dtd"
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
		body := deptBody(d1Text, profs)
		src := scriptedRemote(t, func() string { return body })
		fetch := func() {
			if _, err := src.Fetch(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		fetch() // warm: connection, compiled automata, the subset memo
		return testing.AllocsPerRun(30, fetch), len(body)
	}
	small, smallSize := measure(60)
	large, largeSize := measure(240)
	t.Logf("%d bytes: %v allocs; %d bytes: %v allocs", smallSize, small, largeSize, large)
	if large-small > 40 {
		t.Errorf("fetching %d bytes costs %v allocs more than fetching %d (%v, %v): the cost follows the document", largeSize, large-small, smallSize, large, small)
	}
	// Measured 99 (108 under -race): one scan validates the body and builds
	// its tree.
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
