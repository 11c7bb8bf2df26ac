package mediator

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
	doc, subset, elems, err := s.check(body, nil)
	if err != nil {
		tb.Fatal(err)
	}
	held := s.hold(keptDocument{tag: spliceTag("1.1.1"), body: body, subset: subset, doc: doc, elems: elems}, response{runs: "2,1,1", member: true}, nil)
	if len(held.runs) != 3 {
		tb.Fatalf("the held document has %d runs, not 3", len(held.runs))
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
		want, _, _, err := s.schema.ParseValid(full, 0)
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
		for i := range got.runs {
			n := len(got.runs[i].root.Children)
			if (i < first || i > last) && !slices.Equal(got.doc.Root.Children[at:at+n], held.doc.Root.Children[heldAt:heldAt+n]) {
				t.Fatalf("spliced %q: run %d did not move, but its elements are not the held ones", body, i)
			}
			at, heldAt = at+n, heldAt+len(held.runs[i].root.Children)
		}
		if at != len(got.doc.Root.Children) {
			t.Fatalf("spliced %q: runs of %d elements for %d children", body, at, len(got.doc.Root.Children))
		}
		for i := range got.runs {
			if (i < first || i > last) && (got.runs[i].answers != held.runs[i].answers || &got.runs[i].root == &held.runs[i].root) {
				t.Fatalf("spliced %q: run %d did not move, but it is not the held run's memo under a root of the new record's", body, i)
			}
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

// A record carries its runs' memos itself. splice hands the new record an
// unmoved run, and a moved one whose elements are Equal to the held ones,
// with the held run's own memo, and a run that changed with a new, empty
// one; a 304, and the held body again under a new tag, keep every memo. A
// carried run is the new record's own: its root is not the held run's, and
// its elements are a slice of the new record's document, ending where the
// record's ends say.
func TestRecordsCarryTheirRunsMemos(t *testing.T) {
	plan := &Plan{}
	remember := func(k *keptDocument) {
		for i := range k.runs {
			k.runs[i].answers.keep(plan, &plannedPart{slot: -1})
		}
	}
	spliced := func(body, runs, versions string) func(*testing.T) (*keptDocument, *keptDocument) {
		return func(t *testing.T) (*keptDocument, *keptDocument) {
			s, held := spliceHeld(t, 0)
			remember(held)
			next, err := s.splice(held, delta(held, body, runs, versions))
			if err != nil {
				t.Fatal(err)
			}
			return held, next
		}
	}
	// fetched is a member's record of a remote's two-run document, and the
	// record after the remote answers again — with the tag it held (a 304),
	// or with the same bytes under tag.
	fetched := func(tag string) func(*testing.T) (*keptDocument, *keptDocument) {
		return func(t *testing.T) (*keptDocument, *keptDocument) {
			rm, src := newTaggingRemote(t, WithRetries(0))
			rm.mu.Lock()
			rm.tag, rm.body = `"v1"`, membersBody("ana", "bob")
			rm.before = func(w http.ResponseWriter, r *http.Request) bool {
				w.Header().Set(RunsHeader, "1,1")
				return false
			}
			rm.mu.Unlock()
			member := NewForwardNote(context.Background(), []string{"m"})
			if _, err := src.Fetch(member); err != nil {
				t.Fatal(err)
			}
			held := src.kept.Load()
			remember(held)
			rm.set(tag, membersBody("ana", "bob"))
			if _, err := src.Fetch(member); err != nil {
				t.Fatal(err)
			}
			if rm.notModified.Load()+rm.full.Load() != 2 {
				t.Fatalf("the remote answered %d times, not twice", rm.notModified.Load()+rm.full.Load())
			}
			return held, src.kept.Load()
		}
	}
	for _, c := range []struct {
		name    string
		records func(*testing.T) (held, next *keptDocument)
		changed []bool // per run: the run changed, and starts an empty memo
	}{
		{"the last run changed", spliced(`<c><a>w</a></c>`, "2,1,1", "1.1.2"), []bool{false, false, true}},
		{"the first run changed", spliced(`<a>q</a>`, "1,1,1", "2.1.1"), []bool{true, false, false}},
		{"the middle run emptied", spliced(``, "2,0,1", "1.2.1"), []bool{false, true, false}},
		{"every run changed", spliced(`<a>q</a><b><a>r</a></b><c><a>s</a></c>`, "1,1,1", "2.2.2"), []bool{true, true, true}},
		{"a moved run Equal to the held one", spliced(`<b><a>z</a></b>`, "2,1,1", "1.2.1"), []bool{false, false, false}},
		{"two moved, one of them Equal", spliced(`<a>x</a><a>y</a><b><a>q</a></b>`, "2,1,1", "2.2.1"), []bool{false, true, false}},
		{"a 304", fetched(`"v1"`), []bool{false, false}},
		{"the held body under a new tag", fetched(`"v2"`), []bool{false, false}},
	} {
		t.Run(c.name, func(t *testing.T) {
			held, next := c.records(t)
			if len(next.runs) != len(c.changed) {
				t.Fatalf("%d runs, want %d", len(next.runs), len(c.changed))
			}
			at := 0
			for i, changed := range c.changed {
				got, was := &next.runs[i], &held.runs[i]
				switch {
				case changed && (got.answers == was.answers || got.answers.plans != [answerMemoPlans]*Plan{}):
					t.Errorf("run %d changed, but its memo is not a new, empty one", i)
				case !changed && got.answers != was.answers:
					t.Errorf("run %d did not change, but its memo is not the held run's", i)
				}
				n := len(got.root.Children)
				if next != held && &got.root == &was.root || n > 0 && &got.root.Children[0] != &next.doc.Root.Children[at] {
					t.Errorf("run %d's root is not the new record's, under its document's elements", i)
				}
				if at += n; next.ends[i] != at {
					t.Errorf("run %d ends at child %d, not %d", i, next.ends[i], at)
				}
			}
			if at != len(next.doc.Root.Children) {
				t.Errorf("runs of %d elements for %d children", at, len(next.doc.Root.Children))
			}
		})
	}
}

// No record keeps the one it replaced alive. After deltas of one run each,
// the first and the last run in turn, the first record and the body of every
// delta whose run has moved since are garbage: a carried run is copied into
// the new record, its elements a slice of the new document's, so only the
// bodies its runs arrived in stay — the first full body (the middle run's)
// and the last two deltas.
func TestSplicedRecordsLetTheirPredecessorsGo(t *testing.T) {
	const deltas = 5
	var collected atomic.Int32
	last := func() *keptDocument { // its own frame: nothing of the deltas is left on the test's stack
		s, held := spliceHeld(t, 0)
		runtime.SetFinalizer(held, func(*keptDocument) { collected.Add(1) })
		versions, runs := [3]any{1, 1, 1}, [3]any{2, 1, 1}
		for i := 0; i < deltas; i++ {
			part, text := 2, fmt.Sprintf(`<c><a>%d</a></c>`, i)
			if i%2 == 1 {
				part, text, runs[0] = 0, fmt.Sprintf(`<a>%d</a>`, i), 1
			}
			versions[part] = i + 2
			buf := new([32]byte) // the delta's body, whose going a finalizer sees
			n := copy(buf[:], text)
			if i < deltas-2 { // delta i+2 replaces its run
				runtime.SetFinalizer(buf, func(*[32]byte) { collected.Add(1) })
			}
			next, err := s.splice(held, delta(held, unsafe.String(&buf[0], n), fmt.Sprintf("%d,%d,%d", runs[:]...), fmt.Sprintf("%d.%d.%d", versions[:]...)))
			if err != nil {
				t.Fatalf("delta %d: %v", i+1, err)
			}
			held = next
		}
		return held
	}()
	want := int32(1 + deltas - 2)
	for i := 0; i < 100 && collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Errorf("%d of the first record and the %d replaced delta bodies were collected", got, deltas-2)
	}
	if a, c := last.runs[0].root.Children[0].Text, last.runs[2].root.Children[0].Children[0].Text; a != fmt.Sprint(deltas-2) || c != fmt.Sprint(deltas-1) {
		t.Errorf("the last record's runs hold %q and %q", a, c)
	}
	runtime.KeepAlive(last)
}
