package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxEventsPerSpan caps the discrete event list of one span; further
// events increment DroppedEvents instead of growing memory on a hot
// path. Coalesced counters (AddCount) are unaffected by the cap.
const maxEventsPerSpan = 64

// Event is a discrete timestamped occurrence within a span.
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Tracer mints request traces and records the finished ones in a ring
// buffer (see Traces). The zero Tracer is unusable; use NewTracer. A nil
// *Tracer is valid and records nothing.
type Tracer struct {
	rec *ring
}

// NewTracer returns a tracer keeping the most recent `capacity` finished
// traces (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{rec: &ring{buf: make([]*TraceSnapshot, capacity)}}
}

// trace is the shared accumulator of one request's spans.
type trace struct {
	tracer *Tracer
	id     string

	mu     sync.Mutex
	nextID int64
	spans  []*Span
}

// Span is one timed operation within a trace. All methods are safe for
// concurrent use and valid on a nil receiver (no-ops), so code paths can
// be instrumented unconditionally.
type Span struct {
	tr       *trace
	id       int64
	parentID int64
	name     string
	start    time.Time
	root     bool

	mu            sync.Mutex
	end           time.Time
	attrs         []Attr
	events        []Event
	droppedEvents int64
	counts        map[string]int64
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

// newTraceID returns a fresh 16-hex-digit trace ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy failure: fall back to a process-unique counter. IDs stay
		// unique within the process, which is all the ring buffer needs.
		return "trace-" + time.Now().UTC().Format("150405.000000000")
	}
	return hex.EncodeToString(b[:])
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

// StartRequest opens the root span of a new trace. traceID is honored
// when valid (propagation from an upstream mediator via X-Mix-Trace-Id);
// otherwise a fresh ID is minted. The trace is pushed to the tracer's
// ring buffer when the returned span Ends. On a nil tracer both returns
// are inert (ctx unchanged, nil span).
func (t *Tracer) StartRequest(ctx context.Context, name, traceID string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if !ValidTraceID(traceID) {
		traceID = newTraceID()
	}
	tr := &trace{tracer: t, id: traceID}
	sp := tr.newSpan(name, 0)
	sp.root = true
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// StartSpan opens a child span of the context's current span. Without a
// traced request in ctx it returns the context unchanged and a nil span,
// so instrumented call sites cost two pointer reads when tracing is off.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := spanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.newSpan(name, parent.id)
	if len(attrs) > 0 {
		sp.attrs = append(sp.attrs, attrs...)
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
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

func (tr *trace) newSpan(name string, parentID int64) *Span {
	tr.mu.Lock()
	tr.nextID++
	sp := &Span{tr: tr, id: tr.nextID, parentID: parentID, name: name, start: time.Now()}
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
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
	return s.id
}

// SetAttr attaches attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event records a discrete timestamped event, subject to the per-span
// cap (overflow is counted, not stored).
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.events) >= maxEventsPerSpan {
		s.droppedEvents++
	} else {
		s.events = append(s.events, Event{Name: name, Time: time.Now(), Attrs: attrs})
	}
	s.mu.Unlock()
}

// AddCount adds n to a named coalesced counter. Unlike Event it has no
// cap: hot paths (budget charges per DFA state) fold into one number.
func (s *Span) AddCount(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	s.counts[key] += n
	s.mu.Unlock()
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

// End closes the span. Ending the root span snapshots the whole trace
// into the tracer's ring buffer; ending twice is harmless (the second
// End is ignored).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	root := s.root
	s.mu.Unlock()
	if root {
		s.tr.tracer.rec.add(s.tr.snapshot())
	}
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

func (tr *trace) snapshot() *TraceSnapshot {
	tr.mu.Lock()
	spans := append([]*Span(nil), tr.spans...)
	tr.mu.Unlock()
	out := &TraceSnapshot{TraceID: tr.id}
	for _, sp := range spans {
		sp.mu.Lock()
		ss := SpanSnapshot{
			SpanID:        sp.id,
			ParentID:      sp.parentID,
			Name:          sp.name,
			Start:         sp.start,
			Attrs:         append([]Attr(nil), sp.attrs...),
			Events:        append([]Event(nil), sp.events...),
			DroppedEvents: sp.droppedEvents,
		}
		if !sp.end.IsZero() {
			ss.DurationNanos = sp.end.Sub(sp.start).Nanoseconds()
		}
		if len(sp.counts) > 0 {
			ss.Counts = make(map[string]int64, len(sp.counts))
			for k, v := range sp.counts {
				ss.Counts[k] = v
			}
		}
		root := sp.root
		sp.mu.Unlock()
		if root {
			out.Root = ss.Name
			out.Start = ss.Start
			out.DurationNanos = ss.DurationNanos
		}
		out.Spans = append(out.Spans, ss)
	}
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].SpanID < out.Spans[j].SpanID })
	return out
}

// ring is the fixed-size buffer of recent traces.
type ring struct {
	mu    sync.Mutex
	buf   []*TraceSnapshot
	next  int
	total atomic.Int64
}

func (r *ring) add(t *TraceSnapshot) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
	r.total.Add(1)
}

// snapshot returns up to limit of the most recent traces, newest first
// (limit <= 0 means all retained).
func (r *ring) snapshot(limit int) []*TraceSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out := make([]*TraceSnapshot, 0, n)
	for i := 0; i < n; i++ {
		t := r.buf[(r.next-1-i+2*n)%n]
		if t == nil {
			break
		}
		out = append(out, t)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Traces returns up to limit recent finished traces, newest first
// (limit <= 0 returns every retained trace). Nil tracers return nil.
func (t *Tracer) Traces(limit int) []*TraceSnapshot {
	if t == nil {
		return nil
	}
	return t.rec.snapshot(limit)
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
