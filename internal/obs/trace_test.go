package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestStartRequestHonorsValidTraceID(t *testing.T) {
	tr := NewTracer(4)
	ctx, sp := tr.StartRequest(context.Background(), new(RequestContext), "req", "client-id_1.x")
	if got := TraceID(ctx); got != "client-id_1.x" {
		t.Errorf("TraceID = %q, want the honored client id", got)
	}
	sp.End()
	traces := tr.Traces(0)
	if len(traces) != 1 || traces[0].TraceID != "client-id_1.x" {
		t.Fatalf("traces = %+v", traces)
	}
}

func TestStartRequestRejectsInvalidTraceID(t *testing.T) {
	tr := NewTracer(4)
	for _, bad := range []string{"", "has space", "new\nline", "quote\"x", string(make([]byte, 65))} {
		ctx, sp := tr.StartRequest(context.Background(), new(RequestContext), "req", bad)
		id := TraceID(ctx)
		if id == bad || !ValidTraceID(id) {
			t.Errorf("invalid id %q must be replaced by a fresh valid one, got %q", bad, id)
		}
		sp.End()
	}
}

func TestSpanNestingAndSnapshot(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartRequest(context.Background(), new(RequestContext), "req", "")
	ctx2, child := StartSpan(ctx, "child", String("source", "cs"))
	_, grand := StartSpan(ctx2, "grandchild")
	grand.AddCount("budget.dfa-states", 7)
	grand.AddCount("budget.dfa-states", 3)
	grand.Event("compile", Int("states", 10))
	grand.End()
	child.End()
	root.SetAttr(Int("status", 200))
	root.End()

	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	snap := traces[0]
	if snap.Root != "req" || len(snap.Spans) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	cs := snap.Span("child")
	gs := snap.Span("grandchild")
	if cs == nil || gs == nil {
		t.Fatal("missing spans")
	}
	if cs.ParentID != snap.Span("req").SpanID || gs.ParentID != cs.SpanID {
		t.Errorf("parent links wrong: child.parent=%d grand.parent=%d", cs.ParentID, gs.ParentID)
	}
	if gs.Counts["budget.dfa-states"] != 10 {
		t.Errorf("coalesced count = %d, want 10", gs.Counts["budget.dfa-states"])
	}
	if len(gs.Events) != 1 || gs.Events[0].Name != "compile" {
		t.Errorf("events = %+v", gs.Events)
	}
	if gs.DurationNanos <= 0 || snap.DurationNanos <= 0 {
		t.Errorf("durations must be positive: span=%d trace=%d", gs.DurationNanos, snap.DurationNanos)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot must be JSON-marshalable: %v", err)
	}
}

func TestNilSpanAndUntracedContextAreNoops(t *testing.T) {
	var sp *Span
	sp.End()
	sp.SetAttr(String("k", "v"))
	sp.Event("e")
	sp.AddCount("c", 1)
	sp.BudgetCharge("dfa-states", 1)
	sp.BudgetEvent("exhausted", 1)
	if sp.TraceID() != "" || sp.SpanID() != 0 {
		t.Error("nil span must have empty identity")
	}
	ctx := context.Background()
	if c2, s2 := StartSpan(ctx, "x"); s2 != nil || c2 != ctx {
		t.Error("StartSpan without a trace must be inert")
	}
	AddEvent(ctx, "e")
	AddCount(ctx, "c", 1)
	var tr *Tracer
	if c2, s2 := tr.StartRequest(ctx, new(RequestContext), "r", ""); s2 != nil || c2 != ctx {
		t.Error("nil tracer StartRequest must be inert")
	}
	if tr.Traces(0) != nil || tr.Recorded() != 0 || tr.Capacity() != 0 {
		t.Error("nil tracer accessors must be inert")
	}
}

func TestEventCap(t *testing.T) {
	tr := NewTracer(1)
	_, sp := tr.StartRequest(context.Background(), new(RequestContext), "req", "")
	for i := 0; i < maxEventsPerSpan+25; i++ {
		sp.Event("e")
	}
	sp.End()
	snap := tr.Traces(0)[0].Span("req")
	if len(snap.Events) != maxEventsPerSpan {
		t.Errorf("events = %d, want cap %d", len(snap.Events), maxEventsPerSpan)
	}
	if snap.DroppedEvents != 25 {
		t.Errorf("dropped = %d, want 25", snap.DroppedEvents)
	}
}

// TestRingEvictionConcurrent hammers the ring from many goroutines and
// asserts the retained window is exactly the capacity, newest first —
// the /debug/trace eviction contract — while -race checks the locking.
func TestRingEvictionConcurrent(t *testing.T) {
	const capacity, workers, perWorker = 8, 8, 50
	tr := NewTracer(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, root := tr.StartRequest(context.Background(), new(RequestContext), "req", fmt.Sprintf("w%d-i%d", w, i))
				_, c := StartSpan(ctx, "child")
				c.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Recorded(); got != workers*perWorker {
		t.Errorf("recorded = %d, want %d", got, workers*perWorker)
	}
	traces := tr.Traces(0)
	if len(traces) != capacity {
		t.Fatalf("retained = %d, want capacity %d", len(traces), capacity)
	}
	seen := map[string]bool{}
	for _, tc := range traces {
		if seen[tc.TraceID] {
			t.Errorf("duplicate trace %s in ring", tc.TraceID)
		}
		seen[tc.TraceID] = true
		if len(tc.Spans) != 2 {
			t.Errorf("trace %s has %d spans, want 2", tc.TraceID, len(tc.Spans))
		}
	}
	if got := tr.Traces(3); len(got) != 3 {
		t.Errorf("limited snapshot = %d traces, want 3", len(got))
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := NewTracer(4)
	_, sp := tr.StartRequest(context.Background(), new(RequestContext), "req", "")
	sp.End()
	sp.End()
	if got := tr.Recorded(); got != 1 {
		t.Errorf("recorded = %d, want 1 (second End ignored)", got)
	}
}

// TestTraceRecordSize: the record is one allocation, and which size class
// that allocation falls in is what every request pays in bytes; a field added
// to trace, Span, event or Attr that pushes it past 1 KiB costs 128 bytes a
// request (the next class), most of them never written.
func TestTraceRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(trace{}); got > 1024 {
		t.Errorf("trace record is %d bytes, want ≤ 1024: shrink a field or an inline capacity", got)
	}
	// The overflow block is paid by wide traces only, and by them once.
	if got := unsafe.Sizeof(overflow{}); got > 1024 {
		t.Errorf("overflow block is %d bytes, want ≤ 1024: shrink an inline capacity", got)
	}
}

// TestTraceWriteAllocations: a trace is its record and the caller's
// RequestContext, here one of its own (internal/serve's lives in the response
// writer it allocates anyway); a minted ID is written into the record and
// costs nothing (3 while it was a string of its own); a child span is its
// context; attributes, events, integers and Ends are written into the record
// and cost nothing while they fit.
func TestTraceWriteAllocations(t *testing.T) {
	tr := NewTracer(4)
	bg := context.Background()
	for _, c := range []struct {
		name string
		id   string
		want float64
	}{{"caller's ID", "caller-1", 2}, {"minted ID", "", 2}} {
		got := testing.AllocsPerRun(100, func() {
			ctx, root := tr.StartRequest(bg, new(RequestContext), "req", c.id)
			root.SetAttr(String("pattern", "GET /x"), Int("status", 200), Int("bytes", 123456))
			AddEvent(ctx, "hit", String("view", "v"))
			root.Event("big", Int("n", 1<<40))
			root.End()
		})
		if got != c.want {
			t.Errorf("%s: a root-only trace costs %v allocations, want %v", c.name, got, c.want)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		ctx, root := tr.StartRequest(bg, new(RequestContext), "req", "caller-1")
		ctx2, child := StartSpan(ctx, "child", String("source", "s"), Int("parts", 300))
		child.SetAttr(Bool("hit", true), Int("pruned", 1000))
		AddEvent(ctx2, "e", String("k", "v"))
		child.End()
		root.End()
	})
	if got != 3 {
		t.Errorf("a child span adds %v allocations to the trace's 2, want 1 (its context)", got-2)
	}
	// A trace wider than its record costs one overflow block, which holds the
	// first events and attributes past the record's, plus one chunk per
	// chunkSpans spans past the inline ones; only past the block's do its
	// events and attributes grow a slice of their own.
	for _, c := range []struct {
		spans, events, attrs int
		want                 float64
	}{
		{inlineSpans, inlineEvents, inlineAttrs, 2},
		{inlineSpans, inlineEvents + 1, inlineAttrs, 3},
		{inlineSpans + 1, inlineEvents + overEvents, inlineAttrs + overAttrs, 4},
		{inlineSpans + chunkSpans, inlineEvents + overEvents, inlineAttrs + overAttrs, 4},
		{inlineSpans + chunkSpans + 1, inlineEvents + overEvents, inlineAttrs + overAttrs, 5},
		{inlineSpans + 2*chunkSpans + 1, inlineEvents + overEvents, inlineAttrs + overAttrs, 6},
		{inlineSpans + 1, inlineEvents + overEvents, inlineAttrs + overAttrs + 1, 5},
	} {
		got := testing.AllocsPerRun(100, func() {
			ctx, root := tr.StartRequest(bg, new(RequestContext), "req", "caller-1")
			for i := 1; i < c.spans; i++ {
				StartLeaf(ctx, "leaf").End()
			}
			for i := 0; i < c.events; i++ {
				root.Event("e")
			}
			for i := 0; i < c.attrs; i++ {
				root.SetAttr(Int("i", int64(i)))
			}
			root.End()
		})
		if got != c.want {
			t.Errorf("%d spans, %d events, %d attributes: %v allocations, want %v", c.spans, c.events, c.attrs, got, c.want)
		}
	}
}

// TestOverflowKeepsEverything: a trace wider than its record loses nothing
// and misfiles nothing — every span keeps its own attributes and events, in
// the order they were written, whether they landed inline or in overflow.
func TestOverflowKeepsEverything(t *testing.T) {
	const spans, perSpan = 3*chunkSpans + inlineSpans + 3, 5
	tr := NewTracer(1)
	ctx, root := tr.StartRequest(context.Background(), new(RequestContext), "req", "wide")
	open := []*Span{root}
	for i := 1; i < spans; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("s%d", i), Int("i", int64(i)))
		open = append(open, sp)
	}
	// Interleaved, so that no owner's slots are contiguous.
	for k := 0; k < perSpan; k++ {
		for i, sp := range open {
			sp.SetAttr(String("a", fmt.Sprintf("%d.%d", i, k)))
			sp.Event(fmt.Sprintf("e%d.%d", i, k), Int("i", int64(i)), Int("k", int64(k)))
		}
	}
	for i := len(open) - 1; i >= 0; i-- {
		open[i].End()
	}
	snap := tr.Traces(0)[0]
	if len(snap.Spans) != spans || snap.DroppedSpans != 0 {
		t.Fatalf("%d spans (%d dropped), want %d", len(snap.Spans), snap.DroppedSpans, spans)
	}
	for i, sp := range snap.Spans {
		var want []Attr
		if i > 0 {
			want = append(want, Attr{Key: "i", Value: fmt.Sprint(i)})
			if sp.ParentID != 1 || sp.Name != fmt.Sprintf("s%d", i) {
				t.Errorf("span %d: name %q parent %d", i, sp.Name, sp.ParentID)
			}
		}
		for k := 0; k < perSpan; k++ {
			want = append(want, Attr{Key: "a", Value: fmt.Sprintf("%d.%d", i, k)})
		}
		if sp.SpanID != int64(i+1) || !reflect.DeepEqual(sp.Attrs, want) {
			t.Errorf("span %d: id %d attrs %v, want %v", i, sp.SpanID, sp.Attrs, want)
		}
		if len(sp.Events) != perSpan || sp.DurationNanos <= 0 {
			t.Fatalf("span %d: %d events, duration %d", i, len(sp.Events), sp.DurationNanos)
		}
		for k, ev := range sp.Events {
			wantAttrs := []Attr{{Key: "i", Value: fmt.Sprint(i)}, {Key: "k", Value: fmt.Sprint(k)}}
			if ev.Name != fmt.Sprintf("e%d.%d", i, k) || !reflect.DeepEqual(ev.Attrs, wantAttrs) || ev.Time.Before(sp.Start) {
				t.Errorf("span %d event %d: %+v", i, k, ev)
			}
		}
	}
}

// TestSpanCap: spans past maxSpansPerTrace are counted, not kept; they and
// everything opened under them are nil, so no span in the snapshot names a
// parent that is not there.
func TestSpanCap(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := tr.StartRequest(context.Background(), new(RequestContext), "req", "")
	const extra = 40
	var lastCtx context.Context
	var last *Span
	for i := 1; i < maxSpansPerTrace+extra; i++ {
		lastCtx, last = StartSpan(ctx, "part")
		last.End()
	}
	if last != nil || lastCtx != ctx {
		t.Fatal("a span past the cap must be nil and leave the context alone")
	}
	if _, child := StartSpan(lastCtx, "child of dropped"); child != nil {
		t.Error("a child of a dropped span must be nil")
	}
	root.End()
	snap := tr.Traces(0)[0]
	if len(snap.Spans) != maxSpansPerTrace || snap.DroppedSpans != extra+1 {
		t.Errorf("%d spans kept, %d dropped; want %d and %d", len(snap.Spans), snap.DroppedSpans, maxSpansPerTrace, extra+1)
	}
	for _, sp := range snap.Spans {
		if sp.ParentID < 0 || sp.ParentID >= sp.SpanID {
			t.Fatalf("span %d has parent %d", sp.SpanID, sp.ParentID)
		}
	}
	js, err := json.Marshal(snap)
	if err != nil || !strings.Contains(string(js), `"dropped_spans":41`) {
		t.Errorf("snapshot JSON must carry dropped_spans: %v %.200s", err, js)
	}
}

// TestLateWritersStayInTheirOwnTrace is the reason records are not reused.
// Span pointers and contexts outlive their request (a hedge's losing
// attempt, an abandoned part leader): here every finished request leaves
// both behind, goroutines keep writing through them — attributes and events
// that carry the trace ID they were meant for — while new requests wrap the
// ring many times over and a reader renders it. Whatever the reader sees, and
// whatever the leftovers' own records hold at the end, every value sits under
// the trace ID it names, and every snapshot is whole.
func TestLateWritersStayInTheirOwnTrace(t *testing.T) {
	const capacity, requests, writers = 4, 400, 4
	tr := NewTracer(capacity)
	type leftover struct {
		ctx  context.Context
		span *Span
		id   string
	}
	left := make(chan leftover, requests)
	check := func(snap *TraceSnapshot) {
		if len(snap.Spans) == 0 || snap.Root != "req" || snap.Spans[0].SpanID != 1 {
			t.Errorf("trace %s: torn snapshot %+v", snap.TraceID, snap)
			return
		}
		for i, sp := range snap.Spans {
			if sp.SpanID != int64(i+1) || sp.ParentID >= sp.SpanID {
				t.Errorf("trace %s: span %d has id %d, parent %d", snap.TraceID, i, sp.SpanID, sp.ParentID)
			}
			attrs := append([]Attr(nil), sp.Attrs...)
			for _, ev := range sp.Events {
				if len(ev.Attrs) != 2 {
					t.Errorf("trace %s: event %s has attrs %v", snap.TraceID, ev.Name, ev.Attrs)
				}
				attrs = append(attrs, ev.Attrs...)
			}
			for _, a := range attrs {
				if a.Key == "trace" && a.Value != snap.TraceID {
					t.Errorf("trace %s holds a value written for trace %s", snap.TraceID, a.Value)
				}
			}
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the reader: /debug/trace is Traces plus json
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, snap := range tr.Traces(0) {
				check(snap)
				if _, err := json.Marshal(snap); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	var late sync.WaitGroup
	for w := 0; w < writers; w++ {
		late.Add(1)
		go func() {
			defer late.Done()
			for l := range left {
				for k := 0; k < 6; k++ {
					l.span.SetAttr(String("trace", l.id), Int("k", int64(k)))
					l.span.Event("late", String("trace", l.id), Int("k", int64(k)))
					AddEvent(l.ctx, "late.ctx", String("trace", l.id), Int("k", int64(k)))
					_, sp := StartSpan(l.ctx, "late.span", String("trace", l.id))
					sp.End()
				}
				l.span.End()
			}
		}()
	}
	var kept []leftover
	for i := 0; i < requests; i++ {
		id := fmt.Sprintf("req-%d", i)
		ctx, root := tr.StartRequest(context.Background(), new(RequestContext), "req", id)
		cctx, child := StartSpan(ctx, "child", String("trace", id))
		root.End() // the request is over; child is still open, cctx still live
		l := leftover{cctx, child, id}
		left <- l
		kept = append(kept, l)
	}
	close(left)
	late.Wait()
	close(stop)
	wg.Wait()
	if got := tr.Recorded(); got != requests {
		t.Errorf("recorded %d traces, want %d", got, requests)
	}
	// Long out of the ring, each leftover's record still took its writes.
	for _, l := range kept {
		snap := l.span.tr.snapshot()
		check(snap)
		if snap.TraceID != l.id || len(snap.Spans) != 2+6 || len(snap.Span("child").Events) != 12 {
			t.Errorf("trace %s: rendered as %s with %d spans", l.id, snap.TraceID, len(snap.Spans))
		}
	}
}

// TestSpanDurationsAllocateOncePerName: every ended span is counted under
// its name, whether or not its trace is still in the ring, and a name seen
// before costs no allocation to count again.
func TestSpanDurationsAllocateOncePerName(t *testing.T) {
	tr := NewTracer(1)
	run := func() {
		ctx, root := tr.StartRequest(context.Background(), new(RequestContext), "http GET", "id")
		_, q := StartSpan(ctx, "query")
		_, open := StartSpan(ctx, "never ended")
		_ = open
		q.End()
		root.End()
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 4 {
		t.Errorf("a three-span trace costs %v allocations, want 4: counting a known span name must cost none", got)
	}
	d := tr.SpanDurations()
	if len(d) != 2 || d["http GET"].Count != 52 || d["query"].Count != 52 {
		t.Errorf("span durations = %+v, want 52 each of http GET and query", d)
	}
	for i := 0; i < 2*maxSpanNames; i++ {
		_, sp := tr.StartRequest(context.Background(), new(RequestContext), fmt.Sprintf("http M%d", i), "id")
		sp.End()
	}
	d = tr.SpanDurations()
	if len(d) != maxSpanNames+1 || d["other"].Count != maxSpanNames+2 {
		t.Errorf("%d names, %d under other; want %d and %d", len(d), d["other"].Count, maxSpanNames+1, maxSpanNames+2)
	}
	var none *Tracer
	if none.SpanDurations() != nil {
		t.Error("nil tracer must have no span durations")
	}
}
