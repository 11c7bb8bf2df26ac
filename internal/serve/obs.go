package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/textproto"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TraceHeader is the request/response header carrying the trace ID.
// Incoming values (if well-formed, see obs.ValidTraceID) are honored so a
// caller — or an upstream proxy — can correlate its own logs with the
// mediator's; otherwise a fresh ID is minted. The header is set on every
// response of a traced request, including errors, degraded responses and
// 404s; a handler built WithTracer(nil) has no ID to give and sends none.
const TraceHeader = obs.TraceHeader

// statusWriter captures the status code and body size for the access log
// and the per-route metrics. WriteHeader/Write keep http.ResponseWriter
// semantics (implicit 200 on first Write). It is the one allocation
// ServeHTTP makes for a request, so it is also where the request keeps what
// it needs once: its root span's context (root), its header block
// (setHeader) and its Content-Length digits (setLength). It serves one
// request and is never reused, so a context that outlives the request still
// reads the root it was given, and a header value points into it safely.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	root   obs.RequestContext
	// vals holds the header values setHeader sets, each the one-element
	// slice a header value is: the response's values are allocated once,
	// with the writer, not one slice per header.
	vals   [headerBlock]string
	nvals  int
	length [20]byte // the decimal digits of Content-Length, once set
}

// headerBlock is room for every value one answer sets: the trace ID, a
// query's four X-Mix-* values at most, provenance (six at most) and
// Content-Length; a view's document sets its ETag in place of the four.
const headerBlock = 12

// setHeader is w.Header().Set(name, value) for a handler behind ServeHTTP:
// while the response's block has room the value goes there, and costs no
// allocation of its own.
func setHeader(w http.ResponseWriter, name, value string) {
	sw, ok := w.(*statusWriter)
	if !ok || sw.nvals == len(sw.vals) {
		w.Header().Set(name, value)
		return
	}
	i := sw.nvals
	sw.vals[i], sw.nvals = value, i+1
	w.Header()[textproto.CanonicalMIMEHeaderKey(name)] = sw.vals[i : i+1 : i+1]
}

// setLength declares the body's length, n bytes. Behind ServeHTTP the
// digits are written into the response's own writer, once, and the header
// value is read from there: no string is allocated for it.
func setLength(w http.ResponseWriter, n int) {
	sw, ok := w.(*statusWriter)
	if !ok || sw.length[0] != 0 {
		setHeader(w, "Content-Length", strconv.Itoa(n))
		return
	}
	digits := strconv.AppendInt(sw.length[:0], int64(n), 10)
	setHeader(w, "Content-Length", unsafe.String(&digits[0], len(digits)))
}

// The Content-Type values of this server's answers, shared by every response
// that sends one: net/http only reads a header's values, and Header.Set and
// Header.Add replace or reallocate them.
var (
	xmlType  = []string{"application/xml; charset=utf-8"}
	textType = []string{"text/plain; charset=utf-8"}
	jsonType = []string{"application/json; charset=utf-8"}
)

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// WriteString hands s to the underlying writer as it is (io.WriteString),
// where a Write would have to copy it into a []byte first.
func (sw *statusWriter) WriteString(s string) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := io.WriteString(sw.ResponseWriter, s)
	sw.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer's
// optional methods (flush, deadlines) through the wrapper.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Flush forwards to the underlying writer when it supports streaming.
func (sw *statusWriter) Flush() { _ = sw.FlushError() }

// FlushError is Flush, through whatever wraps the underlying writer, and
// reports a client that no longer reads.
func (sw *statusWriter) FlushError() error {
	return http.NewResponseController(sw.ResponseWriter).Flush()
}

// ServeHTTP implements http.Handler. It is the observability middleware
// wrapping the mux: it opens the request's root span (honoring an incoming
// trace ID), echoes X-Mix-Trace-Id, records the per-route latency histogram
// and status counter, and emits one structured access-log line per request.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, ok := rootSpanNames[r.Method]
	if !ok {
		name = "http " + r.Method
	}
	sw := &statusWriter{ResponseWriter: w}
	ctx, span := h.tracer.StartRequest(r.Context(), &sw.root, name, r.Header.Get(TraceHeader))
	if id := span.TraceID(); id != "" {
		setHeader(sw, TraceHeader, id)
	}
	r2 := r.WithContext(ctx)

	start := time.Now()
	h.mux.ServeHTTP(sw, r2)
	elapsed := time.Since(start)

	if sw.status == 0 {
		// Handler wrote nothing (e.g. empty 200 body with no explicit
		// WriteHeader): net/http sends 200 when the handler returns.
		sw.status = http.StatusOK
	}
	// Go 1.22+: after ServeHTTP the request copy carries the matched route
	// pattern, which keeps histogram label cardinality bounded by the
	// route table rather than by raw URLs.
	pattern := r2.Pattern
	if pattern == "" {
		pattern = "unmatched"
	}
	span.SetAttr(
		obs.String("http.pattern", pattern),
		obs.Int("http.status", int64(sw.status)),
		obs.Int("http.bytes", sw.bytes),
	)
	span.End()

	h.recordRequest(pattern, sw.status, elapsed)
	h.logger.LogAttrs(ctx, slogLevelFor(sw.status), "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("pattern", pattern),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("elapsed", elapsed),
		slog.String("remote", r.RemoteAddr),
	)
}

// rootSpanNames are "http <method>", built per request only for a method
// this server does not route.
var rootSpanNames = map[string]string{http.MethodGet: "http GET", http.MethodPost: "http POST", http.MethodHead: "http HEAD"}

// slogLevelFor maps a response status to a log level so server errors
// stand out in the access log without a separate error path.
func slogLevelFor(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	default:
		return slog.LevelInfo
	}
}

// recordRequest counts a response and times it; a revocation stream is untimed.
func (h *Handler) recordRequest(pattern string, status int, d time.Duration) {
	h.reqMu.Lock()
	h.reqCodes[reqCode{pattern, status}]++
	h.reqMu.Unlock()
	if pattern != "POST "+cluster.RevokePath {
		h.reqHists.Get(pattern).Observe(d)
	}
}

// getDebugTrace serves the tracer's ring of recent traces as JSON,
// newest first. ?limit=N caps the count.
func (h *Handler) getDebugTrace(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	traces := h.tracer.Traces(limit)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Capacity int                  `json:"capacity"`
		Recorded int64                `json:"recorded"`
		Traces   []*obs.TraceSnapshot `json:"traces"`
	}{h.tracer.Capacity(), h.tracer.Recorded(), traces})
}

// replicaStateValue maps a replica health-state name to its gauge value.
func replicaStateValue(state string) float64 {
	switch state {
	case "healthy":
		return 0
	case "suspect":
		return 1
	case "ejected":
		return 2
	case "probing":
		return 3
	}
	return -1
}

// wantsPrometheus reports whether the /metrics request asked for the text
// exposition format instead of the default JSON snapshot: either
// explicitly (?format=prometheus) or via an Accept header preferring
// text/plain or OpenMetrics, the way Prometheus scrapers do.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/openmetrics-text") {
		return true
	}
	if strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json") {
		return true
	}
	return false
}

// writePrometheus renders the same counters the JSON snapshot carries —
// plus the HTTP-layer histograms only this handler sees — in Prometheus
// text exposition format 0.0.4. The scalar series come from the snapshot
// structs' own field tags (obs.MetricWriter.Struct); only the labelled
// families — per replica, per view, per route, ring share — are spelled out
// here.
func (h *Handler) writePrometheus(w http.ResponseWriter) {
	st := h.m.Stats()
	mw := obs.NewMetricWriter(w)

	// Every scalar series is declared on the Stats field that holds it.
	mw.Struct(st)
	mw.Struct(h.inferMemoStats())

	// Per-replica health gauges: numeric state (0 healthy, 1 suspect,
	// 2 ejected, 3 probing) plus the per-set budget level, sorted for
	// stable output.
	repSources := make([]string, 0, len(st.Replicas))
	for name := range st.Replicas {
		repSources = append(repSources, name)
	}
	sort.Strings(repSources)
	for _, name := range repSources {
		rs := st.Replicas[name]
		srcLabel := obs.Label{Name: "source", Value: name}
		for _, rep := range rs.Replicas {
			mw.Gauge("mix_replica_state", "Replica health (0 healthy, 1 suspect, 2 ejected, 3 probing).",
				replicaStateValue(rep.State), srcLabel, obs.Label{Name: "replica", Value: rep.Name})
		}
		mw.Gauge("mix_replica_available", "Replicas currently taking traffic (healthy or suspect).", float64(rs.Available), srcLabel)
		mw.Gauge("mix_retry_budget_tokens", "Retry-budget tokens remaining for the source.", rs.BudgetTokens, srcLabel)
	}

	// Per-view counters and latency histograms, sorted for stable output.
	views := make([]string, 0, len(st.Views))
	for name := range st.Views {
		views = append(views, name)
	}
	sort.Strings(views)
	for _, name := range views {
		vs := st.Views[name]
		label := obs.Label{Name: "view", Value: name}
		mw.Counter("mix_view_queries_total", "Query calls that reached the view.", float64(vs.Queries), label)
		mw.Counter("mix_view_materializations_total", "Actual view evaluations (cache misses).", float64(vs.Materializations), label)
		mw.Histogram("mix_view_query_duration_seconds", "Latency of Query calls per view.", vs.QueryLatency, label)
		mw.Histogram("mix_view_materialize_duration_seconds", "Latency of view evaluations per view.", vs.MaterializeLatency, label)
	}

	// HTTP layer: per-route latency histograms and per-status counters.
	hists := h.reqHists.Snapshot()
	h.reqMu.Lock()
	codes := make(map[string]int64, len(h.reqCodes))
	for k, v := range h.reqCodes {
		// Joined here, at scrape time, and sorted joined, as the series
		// always were.
		codes[k.pattern+"|"+strconv.Itoa(k.status)] = v
	}
	h.reqMu.Unlock()
	for _, p := range slices.Sorted(maps.Keys(hists)) {
		mw.Histogram("mix_http_request_duration_seconds", "HTTP request latency per route pattern.", hists[p],
			obs.Label{Name: "pattern", Value: p})
	}
	codeKeys := make([]string, 0, len(codes))
	for k := range codes {
		codeKeys = append(codeKeys, k)
	}
	sort.Strings(codeKeys)
	for _, k := range codeKeys {
		pattern, status, _ := strings.Cut(k, "|")
		mw.Counter("mix_http_requests_total", "HTTP responses per route pattern and status.", float64(codes[k]),
			obs.Label{Name: "pattern", Value: pattern},
			obs.Label{Name: "status", Value: status})
	}

	// Cluster tier: ring shares and forwarding counters (cluster mode only).
	if h.cluster != nil {
		cm := h.cluster.Metrics()
		mw.Struct(cm, obs.Label{Name: "node", Value: cm.Self})
		for _, ns := range cm.Ring {
			mw.Gauge("mix_cluster_ring_share", "Fraction of the hash space owned per node.", ns.Share,
				obs.Label{Name: "node", Value: ns.Node})
		}
	}

	tr := h.tracer
	mw.Counter("mix_traces_recorded_total", "Request traces recorded into the /debug/trace ring.", float64(tr.Recorded()))
	spans := tr.SpanDurations()
	for _, name := range slices.Sorted(maps.Keys(spans)) {
		mw.Histogram("mix_span_duration_seconds", "Duration of ended trace spans per span name.", spans[name],
			obs.Label{Name: "span", Value: name})
	}
	if err := mw.Err(); err != nil {
		// The response is already partially written; nothing useful to do
		// beyond noting it (typically a disconnected scraper).
		h.logger.Warn("metrics write failed", slog.String("error", fmt.Sprint(err)))
	}
}
