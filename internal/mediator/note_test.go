package mediator

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// A fetch's note is found under its context and any context made under it,
// and a note made under another fetch's context — a part fetch a forward's
// owner makes in the same process — hides the outer one: its fetches carry no
// hop path and record nothing into the forward's note. A part fetch's note is
// one allocation, no larger than a context and one word.
func TestForwardInfoContextRoundTrip(t *testing.T) {
	if NoteFrom(context.Background()) != nil {
		t.Error("empty context should carry no note")
	}
	fwd := NewForwardNote(context.Background(), []string{"a", "b"})
	type key struct{}
	if got := NoteFrom(context.WithValue(fwd, key{}, 1)); got != fwd || fmt.Sprint(got.Path()) != "[a b]" {
		t.Errorf("round trip lost the forward's note: %v", got)
	}
	part := NewFetchNote(fwd)
	if NoteFrom(part) != part || part.Path() != nil || part.forward() != nil {
		t.Error("a part fetch's note does not hide the forward's")
	}
	part.Fetched(`"leaf"`, time.Second)
	part.markStale()
	if !part.Stale() || fwd.Stale() || fwd.Tag() != "" || part.Tag() != "" {
		t.Errorf("a part fetch's note reached the forward's: stale %v, tag %q", fwd.Stale(), fwd.Tag())
	}
	var none *FetchNote
	none.Fetched(`"x"`, time.Second) // a fetch no one noted
	none.markStale()
}

// A part fetch makes its note in one allocation, no larger than a context and
// one word: the forward's record is behind a pointer only a forward fills.
func TestPartFetchNoteAllocs(t *testing.T) {
	if size := unsafe.Sizeof(FetchNote{}); size > 24 {
		t.Errorf("a part fetch's note is %d bytes, more than 24", size)
	}
	ctx := context.Background()
	var sink *FetchNote
	if n := testing.AllocsPerRun(100, func() { sink = NewFetchNote(ctx) }); n != 1 {
		t.Errorf("a part fetch's note: %v allocs, want 1", n)
	}
	_ = sink
}

// TestForwardInfoRecord: taxonomy headers from peer responses accumulate
// as duplicate-free unions, the degraded flag is sticky, and the peer's
// echoed hop path replaces (not merges) the previous one.
func TestForwardInfoRecord(t *testing.T) {
	note := NewForwardNote(context.Background(), []string{"me"})

	h := http.Header{}
	h.Set("X-Mix-Degraded", "true")
	h.Set("X-Mix-Degraded-Sources", "s1, s2")
	h.Set("X-Mix-Pruned-Sources", "p1")
	h.Set("X-Mix-Stale-Sources", "st1")
	h.Set(ForwardHeader, "a,b")
	note.forward().record(h)

	h2 := http.Header{}
	h2.Set("X-Mix-Degraded-Sources", "s2,s3") // s2 already recorded
	h2.Set(ForwardHeader, " a , b , c ")
	note.forward().record(h2)

	p := note.Provenance()
	if !p.Degraded {
		t.Error("degraded flag should be sticky after the first response")
	}
	if got := fmt.Sprint(p.DegradedSources); got != "[s1 s2 s3]" {
		t.Errorf("degraded sources = %s, want [s1 s2 s3]", got)
	}
	if got := fmt.Sprint(p.PrunedSources); got != "[p1]" {
		t.Errorf("pruned sources = %s", got)
	}
	if got := fmt.Sprint(p.StaleSources); got != "[st1]" {
		t.Errorf("stale sources = %s", got)
	}
	if got := fmt.Sprint(note.Path()); got != "[a b c]" {
		t.Errorf("via = %s, want the latest echoed path [a b c]", got)
	}
}

// TestForwardInfoRecordConcurrent: hedged reads record two responses at
// once; the capture must be race-free (run under -race).
func TestForwardInfoRecordConcurrent(t *testing.T) {
	note := NewForwardNote(context.Background(), []string{"me"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := http.Header{}
			h.Set("X-Mix-Degraded", "true")
			h.Set("X-Mix-Stale-Sources", fmt.Sprintf("r%d", i%2))
			note.forward().record(h)
			_ = note.Provenance()
			if i%4 == 0 {
				note.markStale()
			}
		}(i)
	}
	wg.Wait()
	if got := len(note.Provenance().StaleSources); got != 2 || !note.Stale() {
		t.Errorf("stale union has %d entries, want 2 (r0, r1); stale %v", got, note.Stale())
	}
}

func TestSplitAndMergeCSV(t *testing.T) {
	if got := splitCSV(" , a ,, b ,"); fmt.Sprint(got) != "[a b]" {
		t.Errorf("splitCSV = %v", got)
	}
	if got := splitCSV(""); got != nil {
		t.Errorf("splitCSV(\"\") = %v, want nil", got)
	}
	if got := mergeCSV([]string{"a"}, ""); fmt.Sprint(got) != "[a]" {
		t.Errorf("mergeCSV with empty csv = %v", got)
	}
	if got := mergeCSV([]string{"a", "b"}, "b,c,a,d"); fmt.Sprint(got) != "[a b c d]" {
		t.Errorf("mergeCSV = %v, want insertion-ordered dedupe [a b c d]", got)
	}
}

// A response without provenance headers — every forwarded fetch of a
// complete, live owner answer — merges nothing and allocates nothing.
func TestFromHeadersOfAbsentHeadersAllocs(t *testing.T) {
	h := http.Header{"Content-Type": {"application/xml"}}
	p := Provenance{StaleSources: []string{"kept"}}
	if n := testing.AllocsPerRun(100, func() { p.FromHeaders(h) }); n != 0 {
		t.Errorf("FromHeaders of absent headers: %v allocs, want 0", n)
	}
	if p.Degraded || len(p.DegradedSources)+len(p.PrunedSources) != 0 || fmt.Sprint(p.StaleSources) != "[kept]" {
		t.Errorf("absent headers changed the provenance: %+v", p)
	}
}
