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

// Attr is one key/value annotation on a span or event. Values are kept
// as generated strings so trace snapshots marshal without reflection
// surprises.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}
