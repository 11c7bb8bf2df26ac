// Package obs is the mediator's zero-dependency observability core:
// request-scoped traces, latency histograms, Prometheus text exposition,
// and structured logging — the instrumentation that makes the serving
// machinery of the previous PRs (singleflight caches, budgets, circuit
// breakers) visible in production.
//
//   - Tracing: a Tracer mints one trace per request (honoring an
//     incoming trace ID), spans nest through context.Context, and
//     finished traces land in a fixed-size ring buffer that
//     /debug/trace serves as JSON. Spans carry attributes, discrete
//     events (capped, drop-counted), and coalesced counters — the
//     latter fed by internal/budget's charge observer, so a degraded
//     request shows exactly where its budget went (DFA states,
//     enumeration classes, refine steps) without per-charge event spam.
//     A trace is written once and copied when read: one fixed-size
//     record per request (one allocation; a *Span points into it, its
//     attributes and events fill the record's slots under its one
//     mutex, wider traces overflow into chunks), published to the ring
//     by pointer when the root span ends, never reused — a span may
//     outlive its request and must keep writing to its own trace — and
//     rendered into a TraceSnapshot only by Traces. Every ended span's
//     duration is also counted per span name (Tracer.SpanDurations).
//
//   - Histograms: fixed-bucket latency histograms with lock-free
//     Observe, alongside the existing flat counters; snapshots carry
//     estimated p50/p95/p99 and serialize both to JSON (/metrics) and
//     Prometheus text exposition.
//
//   - Logging: log/slog with a shared handler that injects the current
//     trace and span IDs from the context, so an access-log line, a
//     breaker trip, and the trace that produced them correlate by ID.
//
// Everything is safe for concurrent use; nil *Span and nil *Tracer are
// valid receivers and no-ops, so instrumented code paths need no "is
// tracing on" checks.
package obs

import "strconv"

// Attr is one key/value annotation on a span or event. What a reader sees
// (a snapshot, its JSON) has the value as a string; an Int on its way into a
// trace is still a number, and is only rendered if the trace is ever read.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`

	num   int64
	owner int32 // which span or event of the trace record holds it
	isNum bool
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, num: value, isNum: true} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// rendered returns the attribute as a reader sees it.
func (a Attr) rendered() Attr {
	if a.isNum {
		a.Value = strconv.FormatInt(a.num, 10)
	}
	return Attr{Key: a.Key, Value: a.Value}
}
