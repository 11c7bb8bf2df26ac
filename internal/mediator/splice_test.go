package mediator

import (
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/dtd"
)

// spliceDTDText is the document type of the splice tests: a view of three
// parts, whose runs are a's, b's and c's, one after another.
const spliceDTDText = `<!DOCTYPE u [
  <!ELEMENT u (a*, b*, c*)>
  <!ELEMENT a (#PCDATA)>
  <!ELEMENT b (a, a*)>
  <!ELEMENT c (a?)>
]>`

// spliceRuns is the text of each run of the held document of the splice
// tests, as its owner writes it (runs "2,1,1").
var spliceRuns = [3]string{`<a>x</a><a>y</a>`, `<b><a>z</a></b>`, `<c/>`}

// spliceTag is a tag of view u of one mediator, with these part versions.
func spliceTag(versions string) string { return `"0123456789abcdef-u-` + versions + `"` }

// spliceHeld is a source of view u and the document it holds, fetched whole
// under spliceTag("1.1.1") with its runs, padded by pad bytes of whitespace.
func spliceHeld(tb testing.TB, pad int) (*HTTPSource, *keptDocument) {
	tb.Helper()
	d, err := dtd.Parse(spliceDTDText)
	if err != nil {
		tb.Fatal(err)
	}
	s := &HTTPSource{schema: d, rawDTD: spliceDTDText}
	body := spliceDTDText + "\n<u>" + strings.Repeat(" ", pad) + strings.Join(spliceRuns[:], "") + "</u>\n"
	doc, subset, err := s.check(body, nil)
	if err != nil {
		tb.Fatal(err)
	}
	held := &keptDocument{tag: spliceTag("1.1.1"), body: body, subset: subset, doc: doc}
	if held.cutRuns("2,1,1"); held.counts == nil {
		tb.Fatal("the held document has no runs")
	}
	return s, held
}

// delta is a 226 against held: its body, runs header and new part versions.
func delta(held *keptDocument, body, runs, versions string) response {
	return response{status: http.StatusIMUsed, body: body, etag: spliceTag(versions), base: held.tag, im: RunsIM, runs: runs}
}

// FuzzSpliceRuns applies an arbitrary delta — body and runs header, the
// parts from first to last moved — to a held document. What splice accepts
// is valid against the DTD, is the document the equivalent full text parses
// to, and shares the held document's elements in the runs that did not move.
func FuzzSpliceRuns(f *testing.F) {
	for _, seed := range []struct {
		body, runs string
		first, n   uint8
	}{
		{`<b><a>q</a><a>r</a></b>`, "2,1,1", 1, 0},
		{`<a>q</a>`, "1,1,1", 0, 0},
		{` `, "2,0,1", 1, 0},
		{`<c><a>w</a></c><c/>`, "2,1,2", 2, 0},
		{`<a>1</a> <b><a>2</a></b> <c/>`, "1,1,1", 0, 2},
		{`<b><a>z</a></b>`, "2,1,1", 1, 0},         // the held run again
		{`<c/><b><a>z</a></b>`, "2,1,1", 1, 1},     // an order the root rejects
		{`<b/>`, "2,1,1", 1, 0},                    // a b needs an a
		{`<b><a>q</a></b>`, "2,2,1", 1, 0},         // runs that lie
		{`<b><a>q</a></b><!-- -->`, "2,1,1", 1, 0}, // nothing but whitespace between runs
		{`<a>&amp;&#65;</a>`, "1,1,1", 0, 0},
	} {
		f.Add(seed.body, seed.runs, seed.first, seed.n)
	}
	s, held := spliceHeld(f, 0)
	f.Fuzz(func(t *testing.T, body, runs string, first8, n8 uint8) {
		first := int(first8 % 3)
		last := first + int(n8)%(3-first)
		versions := []string{"1", "1", "1"}
		for i := first; i <= last; i++ {
			versions[i] = "2"
		}
		got, err := s.splice(held, delta(held, body, runs, strings.Join(versions, ".")))
		if err != nil {
			return
		}
		full := spliceDTDText + "\n<u>" + strings.Join(spliceRuns[:first], "") + body + strings.Join(spliceRuns[last+1:], "") + "</u>\n"
		want, _, err := s.schema.ParseValid(full)
		if err != nil {
			t.Fatalf("spliced %q (runs %q, parts %d to %d), whose full text does not validate: %v", body, runs, first, last, err)
		}
		if err := s.schema.Validate(got.doc); err != nil {
			t.Fatalf("spliced %q (runs %q) into an invalid document: %v", body, runs, err)
		}
		if !got.doc.Root.Equal(want.Root) || got.doc.DocType != want.DocType {
			t.Fatalf("spliced %q (runs %q, parts %d to %d): not the document of its full text %q", body, runs, first, last, full)
		}
		at, heldAt := 0, 0
		for i, n := range got.counts {
			if (i < first || i > last) && !slices.Equal(got.doc.Root.Children[at:at+n], held.doc.Root.Children[heldAt:heldAt+n]) {
				t.Fatalf("spliced %q: run %d did not move, but its elements are not the held ones", body, i)
			}
			at, heldAt = at+n, heldAt+held.counts[i]
		}
		if at != len(got.doc.Root.Children) {
			t.Fatalf("spliced %q: runs of %d elements for %d children", body, at, len(got.doc.Root.Children))
		}
	})
}

// A spliced document keeps alive every body one of its runs arrived in. A
// delta that would make that more than twice what the whole document's body
// would be now is refused — the fetch of the whole body that follows keeps
// only itself — and one within the bound is spliced, however many came
// before it.
func TestSpliceKeepsAtMostTwiceTheDocumentAlive(t *testing.T) {
	s, held := spliceHeld(t, 0)
	for i, v := range []string{"2", "3", "4", "5"} {
		next, err := s.splice(held, delta(held, `<c><a>`+v+`</a></c>`, "2,1,1", "1.1."+v))
		if err != nil {
			t.Fatalf("delta %d of the last run: %v", i+1, err)
		}
		if next.deltas != i+1 || next.body != "" {
			t.Fatalf("delta %d: %d deltas since a body of %d bytes", i+1, next.deltas, len(next.body))
		}
		held = next
	}
	// A held body mostly padding keeps more alive than its document is worth
	// as soon as a delta would leave part of it in the document.
	s, held = spliceHeld(t, 4*len(spliceDTDText))
	if _, err := s.splice(held, delta(held, `<c><a>w</a></c>`, "2,1,1", "1.1.2")); err == nil || !strings.Contains(err.Error(), "alive") {
		t.Fatalf("a delta into a padded body: %v", err)
	}
	// One that replaces every run leaves nothing of it.
	if _, err := s.splice(held, delta(held, `<a>q</a><b><a>r</a></b><c><a>s</a></c>`, "1,1,1", "2.2.2")); err != nil {
		t.Fatalf("a delta of every run into a padded body: %v", err)
	}
}
