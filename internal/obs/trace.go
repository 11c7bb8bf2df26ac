package obs

import (
	"context"
	"maps"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// maxEventsPerSpan caps the discrete event list of one span; further
// events increment DroppedEvents instead of growing memory on a hot
// path. Coalesced counters (AddCount) are unaffected by the cap.
const maxEventsPerSpan = 64

// maxSpansPerTrace caps the spans of one trace, which a view's width (one
// source.fetch and one part.eval per part) would otherwise decide. Spans
// past the cap are counted (DroppedSpans) and come back nil.
const maxSpansPerTrace = 512

// What a trace record holds inline, sized together so that the record stays
// in the allocator's 1 KiB class (TestTraceRecordSize): a warm query is 2
// spans, 1 event and 8 attributes and most requests fill less, so a larger
// record costs every request bytes it does not use.
const (
	inlineSpans  = 4
	inlineEvents = 2
	inlineAttrs  = 13
	chunkSpans   = 8  // spans per overflow chunk
	maxSpanNames = 64 // duration histograms: a fixed set but for "http <method>", which a client chooses

	// What the overflow block holds inline: a read that refetches a few parts
	// (a source.fetch and a part.eval span each) writes some events and
	// attributes past the record, and costs the block alone.
	overEvents = 4
	overAttrs  = 12
	overChunks = 4
)

// Event is a discrete timestamped occurrence within a span.
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Tracer mints request traces, keeps the finished ones in a ring buffer
// (see Traces) and folds every ended span's duration into a histogram per
// span name (see SpanDurations). The zero Tracer is unusable; use
// NewTracer. A nil *Tracer is valid and records nothing.
type Tracer struct {
	rec       *ring
	durations *HistogramSet
}

// NewTracer returns a tracer keeping the most recent `capacity` finished
// traces (minimum 1).
func NewTracer(capacity int) *Tracer {
	return &Tracer{rec: &ring{buf: make([]*trace, max(capacity, 1))}, durations: NewHistogramSet(maxSpanNames)}
}

// trace is the record of one request: one allocation, written in place by
// every span of the request under its one mutex, published to the ring by
// pointer when the root span ends, and copied only when somebody reads it
// (snapshot). Spans, events and attributes past the inline arrays go to
// over. Times are nanoseconds since start, and start is nanoseconds since
// clock. A record is never reused: a span pointer or a context may outlive
// the request (a hedge's losing attempt, an abandoned part leader), and what
// it writes late must land here. So a minted ID is written once into minted
// and id reads it there, costing no string of its own.
type trace struct {
	tracer *Tracer
	id     string
	start  int64
	minted [16]byte

	mu           sync.Mutex
	nspans       int32 // spans opened; IDs are 1..nspans, the root is 1
	nevents      int32 // events recorded: the first in events, the rest in over
	nattrs       int32 // likewise
	droppedSpans int32
	over         *overflow
	spans        [inlineSpans]Span
	events       [inlineEvents]event
	attrs        [inlineAttrs]Attr
}

// overflow is where a trace wider than its record continues: one block,
// whose slices start in its own arrays and grow onto the heap only past
// them. Spans are handed out by pointer, so theirs are chunks that never
// move.
type overflow struct {
	spans  []*[chunkSpans]Span
	events []event
	attrs  []Attr

	chunks   [overChunks]*[chunkSpans]Span
	evInline [overEvents]event
	atInline [overAttrs]Attr
}

// event is an Event as recorded; its attributes are in the trace's attrs,
// owned by -(its index + 1).
type event struct {
	name string
	at   int64
	span int32
}

// Span is one timed operation within a trace — a slot of the trace's
// record. All methods are safe for concurrent use and valid on a nil
// receiver (no-ops), so code paths can be instrumented unconditionally.
type Span struct {
	tr         *trace
	name       string
	start, end int64
	id, parent int32
	counts     map[string]int64
	dropped    int32 // events past maxEventsPerSpan
	events     uint16
	ended      bool
}

type ctxKey struct{}

// spanFromContext returns the innermost span carried by ctx, or nil.
func spanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// TraceHeader is the HTTP header that carries a trace ID: internal/serve
// reads and echoes it, and a mediator fetching from a peer (HTTPSource)
// sends its own, so the two ends of a hop share one ID.
const TraceHeader = "X-Mix-Trace-Id"

// TraceID returns the trace ID carried by the context, or "" when the
// request is untraced.
func TraceID(ctx context.Context) string { return spanFromContext(ctx).TraceID() }

// clock is the origin of every record's times: a record keeps its start as
// the monotonic nanoseconds since clock, 8 bytes where a time.Time is 24, and
// a reader gets clock plus that back — a wall time that moves with the
// monotonic clock, not with a step of the system's.
var clock = time.Now()

// elapsed returns the nanoseconds since tr started.
func (tr *trace) elapsed() int64 { return int64(time.Since(clock)) - tr.start }

// wall returns the time at ns nanoseconds into tr.
func (tr *trace) wall(ns int64) time.Time { return clock.Add(time.Duration(tr.start + ns)) }

// mintID gives tr a fresh 16-hex-digit trace ID, written into the record
// itself. It names a trace in a ring and a log, nothing more, so the
// runtime's generator will do.
func (tr *trace) mintID() {
	v := rand.Uint64()
	for i := range tr.minted {
		tr.minted[len(tr.minted)-1-i] = "0123456789abcdef"[v&15]
		v >>= 4
	}
	tr.id = unsafe.String(&tr.minted[0], len(tr.minted))
}

// ValidTraceID reports whether an externally supplied trace ID is safe to
// honor: 1–64 characters drawn from [A-Za-z0-9._-]. Anything else (header
// injection attempts, empty strings) is replaced by a fresh ID.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// RequestContext is the context of a request's root span, kept where the
// caller keeps the rest of the request (internal/serve's response writer, a
// command's stack): StartRequest fills it in, and it answers the span key
// with the root span and every other question from the context it embeds.
// It points at the record, never the other way round. One serves one
// request: a context that outlives the request (a hedge's losing attempt)
// still reads it, so it is never filled in again.
type RequestContext struct {
	context.Context
	root *Span
}

// Value implements context.Context.
func (c *RequestContext) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.root
	}
	return c.Context.Value(key)
}

// StartRequest opens the root span of a new trace, carried by into, which
// embeds ctx and is what the returned context is. traceID is honored when
// valid (propagation from an upstream mediator via X-Mix-Trace-Id);
// otherwise a fresh ID is minted. The trace is pushed to the tracer's ring
// buffer when the returned span Ends. On a nil tracer both returns are
// inert (ctx unchanged, into untouched, nil span).
func (t *Tracer) StartRequest(ctx context.Context, into *RequestContext, name, traceID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tr := &trace{tracer: t, id: traceID, start: int64(time.Since(clock))}
	if !ValidTraceID(traceID) {
		tr.mintID()
	}
	sp := tr.newSpan(name, 0, nil)
	*into = RequestContext{Context: ctx, root: sp}
	return into, sp
}

// StartSpan opens a child span of the context's current span. Without a
// traced request in ctx it returns the context unchanged and a nil span,
// so instrumented call sites cost two pointer reads when tracing is off;
// so does a span past maxSpansPerTrace, and what is opened or recorded
// under it falls to the nearest ancestor that exists.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	sp := StartLeaf(ctx, name, attrs...)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// StartLeaf is StartSpan for an operation under which nothing is opened or
// recorded through a context: the span gets none of its own, which is the one
// allocation a child span costs.
func StartLeaf(ctx context.Context, name string, attrs ...Attr) *Span {
	parent := spanFromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.tr.newSpan(name, parent.id, attrs)
}

// AddEvent records a discrete event on the context's current span; no-op
// when the request is untraced.
func AddEvent(ctx context.Context, name string, attrs ...Attr) {
	spanFromContext(ctx).Event(name, attrs...)
}

// SetAttr attaches attributes to the context's current span; no-op when
// the request is untraced.
func SetAttr(ctx context.Context, attrs ...Attr) {
	spanFromContext(ctx).SetAttr(attrs...)
}

// AddCount adds n to a coalesced counter on the context's current span.
func AddCount(ctx context.Context, key string, n int64) {
	spanFromContext(ctx).AddCount(key, n)
}

func (tr *trace) newSpan(name string, parent int32, attrs []Attr) *Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.nspans >= maxSpansPerTrace {
		tr.droppedSpans++
		return nil
	}
	if i := tr.nspans - inlineSpans; i >= 0 && i%chunkSpans == 0 {
		o := tr.overflow()
		o.spans = append(o.spans, new([chunkSpans]Span))
	}
	sp := tr.span(tr.nspans)
	tr.nspans++
	*sp = Span{tr: tr, name: name, id: tr.nspans, parent: parent, start: tr.elapsed()}
	tr.addAttrs(sp.id, attrs)
	return sp
}

// span returns the i-th span opened (ID i+1). Callers hold tr.mu.
func (tr *trace) span(i int32) *Span {
	if i < inlineSpans {
		return &tr.spans[i]
	}
	i -= inlineSpans
	return &tr.over.spans[i/chunkSpans][i%chunkSpans]
}

func (tr *trace) overflow() *overflow {
	if tr.over == nil {
		o := new(overflow)
		o.spans, o.events, o.attrs = o.chunks[:0], o.evInline[:0], o.atInline[:0]
		tr.over = o
	}
	return tr.over
}

// addAttrs copies attrs into the record for owner: a span's ID, or
// -(index + 1) of an event. The values are copied and the slice is not
// kept, so a caller's variadic list stays on its stack. Callers hold tr.mu.
func (tr *trace) addAttrs(owner int32, attrs []Attr) {
	for _, a := range attrs {
		a.owner = owner
		if tr.nattrs < inlineAttrs {
			tr.attrs[tr.nattrs] = a
		} else {
			o := tr.overflow()
			o.attrs = append(o.attrs, a)
		}
		tr.nattrs++
	}
}

// TraceID returns the span's trace ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// SpanID returns the span's ID within its trace (0 on a nil span).
func (s *Span) SpanID() int64 {
	if s == nil {
		return 0
	}
	return int64(s.id)
}

// SetAttr attaches attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.addAttrs(s.id, attrs)
	s.tr.mu.Unlock()
}

// SetNonZero is SetAttr for counts of which only the ones that are not zero
// are worth their place in the record.
func (s *Span) SetNonZero(counts ...Attr) {
	for _, a := range counts {
		if a.num != 0 {
			s.SetAttr(a)
		}
	}
}

// Event records a discrete timestamped event, subject to the per-span
// cap (overflow is counted, not stored).
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s.events >= maxEventsPerSpan {
		s.dropped++
		return
	}
	s.events++
	e := event{name: name, at: tr.elapsed(), span: s.id}
	if tr.nevents < inlineEvents {
		tr.events[tr.nevents] = e
	} else {
		o := tr.overflow()
		o.events = append(o.events, e)
	}
	tr.nevents++
	tr.addAttrs(-tr.nevents, attrs)
}

// AddCount adds n to a named coalesced counter. Unlike Event it has no
// cap: hot paths (budget charges per DFA state) fold into one number.
func (s *Span) AddCount(key string, n int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	s.counts[key] += n
	s.tr.mu.Unlock()
}

// BudgetCharge implements internal/budget's Observer by coalescing each
// successful charge into a per-resource span counter.
func (s *Span) BudgetCharge(resource string, n int64) {
	s.AddCount("budget."+resource, n)
}

// BudgetEvent implements internal/budget's Observer for discrete
// milestones (cold compile completed, budget exhausted).
func (s *Span) BudgetEvent(event string, n int64) {
	s.Event(event, Int("n", n))
}

// End closes the span and counts its duration under its name. Ending the
// root span publishes the trace — the record itself, nothing is copied — to
// the tracer's ring buffer; a second End is ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if s.ended {
		tr.mu.Unlock()
		return
	}
	s.ended, s.end = true, tr.elapsed()
	d := time.Duration(s.end - s.start)
	tr.mu.Unlock()
	tr.tracer.durations.Get(s.name).Observe(d)
	if s.id == 1 {
		tr.tracer.rec.add(tr)
	}
}

// SpanDurations returns, per span name, the durations of every span ended
// so far, in the ring or long out of it. Nil tracers return nil.
func (t *Tracer) SpanDurations() map[string]HistogramSnapshot {
	if t == nil {
		return nil
	}
	return t.durations.Snapshot()
}

// SpanSnapshot is the JSON form of one finished (or still-open) span.
type SpanSnapshot struct {
	SpanID   int64     `json:"span_id"`
	ParentID int64     `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	// DurationNanos is 0 for a span still open when the trace was
	// snapshot (its request outlived the root span).
	DurationNanos int64            `json:"duration_nanos"`
	Attrs         []Attr           `json:"attrs,omitempty"`
	Events        []Event          `json:"events,omitempty"`
	DroppedEvents int64            `json:"dropped_events,omitempty"`
	Counts        map[string]int64 `json:"counts,omitempty"`
}

// TraceSnapshot is the JSON form of one finished request trace, as
// served by /debug/trace.
type TraceSnapshot struct {
	TraceID       string         `json:"trace_id"`
	Root          string         `json:"root"`
	Start         time.Time      `json:"start"`
	DurationNanos int64          `json:"duration_nanos"`
	Spans         []SpanSnapshot `json:"spans"`
	// DroppedSpans counts the spans opened past maxSpansPerTrace.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

// Span returns the named span of the snapshot, or nil.
func (t *TraceSnapshot) Span(name string) *SpanSnapshot {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// snapshot renders the record as it stands, spans in ID order: the copy a
// reader gets, made under the record's lock so that a request still writing
// (late spans, see trace) is seen at one instant.
func (tr *trace) snapshot() *TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := &TraceSnapshot{TraceID: tr.id, DroppedSpans: int64(tr.droppedSpans), Spans: make([]SpanSnapshot, tr.nspans)}
	for i := range out.Spans {
		sp, ss := tr.span(int32(i)), &out.Spans[i]
		*ss = SpanSnapshot{SpanID: int64(sp.id), ParentID: int64(sp.parent), Name: sp.name,
			Start: tr.wall(sp.start), DroppedEvents: int64(sp.dropped)}
		if sp.ended {
			ss.DurationNanos = sp.end - sp.start
		}
		if len(sp.counts) > 0 {
			ss.Counts = maps.Clone(sp.counts)
		}
	}
	out.Root, out.Start, out.DurationNanos = out.Spans[0].Name, out.Spans[0].Start, out.Spans[0].DurationNanos
	// The capped inline slices make append copy exactly when there is overflow.
	ne, na := min(tr.nevents, inlineEvents), min(tr.nattrs, inlineAttrs)
	events, attrs := tr.events[:ne:ne], tr.attrs[:na:na]
	if tr.over != nil {
		events, attrs = append(events, tr.over.events...), append(attrs, tr.over.attrs...)
	}
	rendered := make([]Event, len(events))
	for i, e := range events {
		rendered[i] = Event{Name: e.name, Time: tr.wall(e.at)}
	}
	for _, a := range attrs {
		var to *[]Attr
		if a.owner > 0 {
			to = &out.Spans[a.owner-1].Attrs
		} else {
			to = &rendered[-a.owner-1].Attrs
		}
		*to = append(*to, a.rendered())
	}
	for i, e := range events {
		out.Spans[e.span-1].Events = append(out.Spans[e.span-1].Events, rendered[i])
	}
	return out
}

// ring is the fixed-size buffer of recent traces.
type ring struct {
	mu    sync.Mutex
	buf   []*trace
	next  int
	total atomic.Int64
}

func (r *ring) add(t *trace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
	r.total.Add(1)
}

// recent returns up to limit of the most recent traces, newest first
// (limit <= 0 means all retained).
func (r *ring) recent(limit int) []*trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]*trace, 0, limit)
	for i := 1; i <= limit && r.buf[(r.next-i+n)%n] != nil; i++ {
		out = append(out, r.buf[(r.next-i+n)%n])
	}
	return out
}

// Traces returns copies of up to limit recent finished traces, newest
// first (limit <= 0 returns every retained trace), each as it stands when
// read. Nil tracers return nil.
func (t *Tracer) Traces(limit int) []*TraceSnapshot {
	if t == nil {
		return nil
	}
	recs := t.rec.recent(limit)
	out := make([]*TraceSnapshot, len(recs))
	for i, tr := range recs {
		out[i] = tr.snapshot()
	}
	return out
}

// Recorded returns the total number of traces ever recorded (including
// ones since evicted from the ring).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	return t.rec.total.Load()
}

// Capacity returns the ring-buffer size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.rec.buf)
}
