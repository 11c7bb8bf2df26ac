package xmlmodel

import (
	"strings"
	"testing"
)

// drain runs the scanner to EOF (or error) and returns the events seen.
func drain(t *testing.T, input string) ([]Event, error) {
	t.Helper()
	sc := NewScanner(input)
	var evs []Event
	for {
		ev, err := sc.Next()
		if err != nil {
			return evs, err
		}
		if ev.Kind == EventEOF {
			return evs, nil
		}
		evs = append(evs, ev)
	}
}

// Events carry what the document says, not how it spells it: entities are
// resolved in Text and ID, as Parse resolves them.
func TestScannerEventStream(t *testing.T) {
	input := `<?xml version="1.0"?>
<!DOCTYPE dept [ <!ELEMENT dept (name)> ]>
<dept id="d&amp;1">
  <!-- comment -->
  <name>C&amp;S <!-- splits the text -->&#32;<!-- a blank chunk is not reported -->&lt;dept&gt; </name>
  <empty/>
</dept>`
	sc := NewScanner(input)
	want := []Event{
		{Kind: EventStart, Name: "dept", ID: "d&1"},
		{Kind: EventStart, Name: "name"},
		{Kind: EventText, Name: "name", Text: "C&S "},
		{Kind: EventText, Name: "name", Text: "<dept> "},
		{Kind: EventEnd, Name: "name"},
		{Kind: EventStart, Name: "empty"},
		{Kind: EventEnd, Name: "empty"},
		{Kind: EventEnd, Name: "dept"},
	}
	for i, w := range want {
		ev, err := sc.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev != w {
			t.Errorf("event %d = %+v, want %+v", i, ev, w)
		}
	}
	if sc.Doctype() == nil || sc.Doctype().Root != "dept" {
		t.Errorf("Doctype = %+v, want root dept", sc.Doctype())
	}
	// EOF is sticky.
	for i := 0; i < 3; i++ {
		ev, err := sc.Next()
		if err != nil || ev.Kind != EventEOF {
			t.Fatalf("post-EOF Next = %+v, %v", ev, err)
		}
	}
}

func TestScannerDepthGuard(t *testing.T) {
	deep := strings.Repeat("<a>", maxParseDepth+1) + strings.Repeat("</a>", maxParseDepth+1)
	_, err := drain(t, deep)
	if err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Fatalf("deep document: err = %v, want nesting guard", err)
	}
	if _, _, perr := Parse(deep); perr == nil || perr.Error() != err.Error() {
		t.Fatalf("Parse of a document beyond the depth guard: %v, the scanner: %v", perr, err)
	}
	ok := strings.Repeat("<a>", 100) + "x" + strings.Repeat("</a>", 100)
	if _, err := drain(t, ok); err != nil {
		t.Fatalf("100-deep document: %v", err)
	}
}

func TestScannerErrorIsSticky(t *testing.T) {
	sc := NewScanner(`<a><b>x</wrong></a>`)
	var first error
	for i := 0; i < 5; i++ {
		_, err := sc.Next()
		if err != nil {
			first = err
			break
		}
	}
	if first == nil {
		t.Fatal("no error from a mismatched end tag")
	}
	if _, err := sc.Next(); err != first {
		t.Fatalf("second error %v is not the first %v", err, first)
	}
}

func TestScannerSteadyStateAllocations(t *testing.T) {
	// Steady-state scanning must not allocate: without '&' in them, events
	// slice the input.
	input := "<r>" + strings.Repeat("<e>text</e>", 200) + "</r>"
	sc := NewScanner(input)
	if _, err := sc.Next(); err != nil { // open <r>
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 6; i++ { // two <e>text</e> groups
			if _, err := sc.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Next allocates %.1f per 6 events, want 0", allocs)
	}
}
