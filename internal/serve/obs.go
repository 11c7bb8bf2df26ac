package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// TraceHeader is the request/response header carrying the trace ID.
// Incoming values (if well-formed, see obs.ValidTraceID) are honored so a
// caller — or an upstream proxy — can correlate its own logs with the
// mediator's; otherwise a fresh ID is minted. The header is set on every
// response, including errors, degraded responses and 404s.
const TraceHeader = "X-Mix-Trace-Id"

// statusWriter captures the status code and body size for the access log
// and the per-route metrics. WriteHeader/Write keep http.ResponseWriter
// semantics (implicit 200 on first Write).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

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

// Unwrap lets http.ResponseController reach the underlying writer's
// optional methods (flush, deadlines) through the wrapper.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Flush forwards to the underlying writer when it supports streaming.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// serveObserved is the observability middleware wrapping the mux: it
// opens the request's root span (honoring an incoming trace ID), echoes
// X-Mix-Trace-Id, records the per-route latency histogram and status
// counter, and emits one structured access-log line per request.
func (h *Handler) serveObserved(w http.ResponseWriter, r *http.Request) {
	ctx, span := h.tracer.StartRequest(r.Context(), "http "+r.Method, r.Header.Get(TraceHeader))
	w.Header().Set(TraceHeader, span.TraceID())
	sw := &statusWriter{ResponseWriter: w}
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

func (h *Handler) recordRequest(pattern string, status int, d time.Duration) {
	h.reqMu.Lock()
	hist, ok := h.reqHists[pattern]
	if !ok {
		hist = obs.NewHistogram()
		h.reqHists[pattern] = hist
	}
	h.reqCodes[pattern+"|"+strconv.Itoa(status)]++
	h.reqMu.Unlock()
	hist.Observe(d)
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
// text exposition format 0.0.4.
func (h *Handler) writePrometheus(w http.ResponseWriter) {
	st := h.m.Stats()
	mw := obs.NewMetricWriter(w)

	mw.Counter("mix_cache_hits_total", "Materializations whose every kept part was cached.", float64(st.CacheHits))
	mw.Counter("mix_cache_misses_total", "Materializations that computed at least one view part.", float64(st.CacheMisses))
	mw.Counter("mix_singleflight_dedups_total", "Materializations that computed nothing but waited on a part computation already running, counted on joining.", float64(st.SingleflightDedups))
	mw.Counter("mix_stale_discards_total", "Part results not kept because their source was invalidated mid-flight.", float64(st.StaleDiscards))
	mw.Counter("mix_invalidations_total", "View cache invalidations.", float64(st.Invalidations))
	mw.Counter("mix_source_invalidations_total", "Per-source (delta) cache invalidations.", float64(st.SourceInvalidations))
	mw.Counter("mix_parts_recomputed_total", "View parts evaluated against their source during materializations that missed.", float64(st.PartsRecomputed))
	mw.Counter("mix_parts_reused_total", "View parts served from their cache slot during materializations that missed.", float64(st.PartsReused))
	mw.Counter("mix_simplifier_pruned_total", "Query conditions pruned by the DTD-based simplifier.", float64(st.SimplifierPruned))
	mw.Counter("mix_simplifier_dropped_total", "Names dropped by the DTD-based simplifier.", float64(st.SimplifierDropped))
	mw.Counter("mix_simplifier_skips_total", "Queries answered as unsatisfiable without touching data.", float64(st.SimplifierSkips))
	mw.Counter("mix_simplifier_errors_total", "Queries that fell back to the unsimplified path.", float64(st.SimplifierErrors))
	mw.Counter("mix_wrapper_retries_total", "Transient-failure retries across retry-aware wrappers.", float64(st.Retries))
	mw.Counter("mix_degraded_views_total", "View definitions registered with a budget-degraded DTD.", float64(st.DegradedViews))
	mw.Counter("mix_budget_exhaustions_total", "Inference budget exhaustion events.", float64(st.BudgetExhaustions))
	mw.Counter("mix_degraded_materializations_total", "Materializations served without breaker-open sources.", float64(st.DegradedMaterializations))
	mw.Counter("mix_breaker_trips_total", "Circuit-breaker transitions to the open state.", float64(st.BreakerTrips))
	mw.Counter("mix_breaker_rejections_total", "Fetches rejected by an open circuit breaker.", float64(st.BreakerRejections))

	mw.Counter("mix_hedged_fetches_total", "Hedged reads launched across replica sets.", float64(st.HedgedFetches))
	mw.Counter("mix_hedge_wins_total", "Fetches won by a hedge or failover rather than the primary.", float64(st.HedgeWins))
	mw.Counter("mix_hedges_denied_total", "Hedges denied because the retry budget was dry.", float64(st.HedgesDenied))
	mw.Counter("mix_replica_failovers_total", "Failover fetches launched after a replica failure.", float64(st.Failovers))
	mw.Counter("mix_stale_serves_total", "Fetches answered from a last-known-good document.", float64(st.StaleServes))
	mw.Counter("mix_stale_materializations_total", "Materializations containing at least one stale part.", float64(st.StaleMaterializations))

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

	ac := st.AutomataCache
	mw.Counter("mix_automata_cache_hits_total", "Compiled-automata cache hits.", float64(ac.Hits))
	mw.Counter("mix_automata_cache_misses_total", "Compiled-automata cache misses.", float64(ac.Misses))
	mw.Counter("mix_automata_cache_dedups_total", "Compiled-automata cache singleflight joins.", float64(ac.Dedups))
	mw.Counter("mix_automata_cache_evictions_total", "Compiled-automata cache evictions.", float64(ac.Evictions))
	mw.Gauge("mix_automata_cache_size", "Entries currently in the compiled-automata cache.", float64(ac.Size))

	sv := st.StreamValidation
	mw.Counter("mix_stream_validated_documents_total", "Documents validated by the streaming (tree-free) validator.", float64(sv.Documents))
	mw.Counter("mix_stream_validated_events_total", "Scanner events consumed by the streaming validator.", float64(sv.Events))
	mw.Counter("mix_stream_validated_bytes_total", "Input bytes covered by the streaming validator.", float64(sv.Bytes))

	pc := st.PruneVerdictCache
	mw.Counter("mix_parts_pruned_total", "View parts skipped by query-time satisfiability pruning (sources never fetched).", float64(st.PartsPruned))
	mw.Counter("mix_prune_verdict_hits_total", "Satisfiability-verdict cache hits.", float64(pc.Hits))
	mw.Counter("mix_prune_verdict_misses_total", "Satisfiability-verdict cache misses (includes uncacheable Unknown verdicts).", float64(pc.Misses))
	mw.Gauge("mix_prune_verdict_cache_size", "Entries currently in the satisfiability-verdict cache.", float64(pc.Size))

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
	h.reqMu.Lock()
	patterns := make([]string, 0, len(h.reqHists))
	for p := range h.reqHists {
		patterns = append(patterns, p)
	}
	hists := make(map[string]obs.HistogramSnapshot, len(h.reqHists))
	for p, hist := range h.reqHists {
		hists[p] = hist.Snapshot()
	}
	codes := make(map[string]int64, len(h.reqCodes))
	for k, v := range h.reqCodes {
		codes[k] = v
	}
	h.reqMu.Unlock()
	sort.Strings(patterns)
	for _, p := range patterns {
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
		selfLabel := obs.Label{Name: "node", Value: cm.Self}
		mw.Gauge("mix_cluster_nodes", "Mediator nodes in the cluster ring.", float64(cm.Nodes), selfLabel)
		mw.Gauge("mix_cluster_virtual_nodes", "Virtual nodes per member on the consistent-hash ring.", float64(cm.VirtualNodes), selfLabel)
		mw.Gauge("mix_cluster_owned_views", "Cluster views this node owns (serves locally).", float64(cm.OwnedViews), selfLabel)
		mw.Gauge("mix_cluster_forward_views", "Cluster views with a built peer-forward transport.", float64(cm.ForwardViews), selfLabel)
		mw.Counter("mix_cluster_forwarded_total", "Requests forwarded to peer mediator nodes.", float64(cm.Forwarded), selfLabel)
		mw.Counter("mix_cluster_forward_errors_total", "Forwarded requests that failed (builds and fetches).", float64(cm.ForwardErrors), selfLabel)
		mw.Counter("mix_cluster_loop_rejected_total", "Requests rejected by the forwarding loop guard (421).", float64(cm.LoopRejected), selfLabel)
		for _, ns := range cm.Ring {
			mw.Gauge("mix_cluster_ring_share", "Fraction of the hash space owned per node.", ns.Share,
				obs.Label{Name: "node", Value: ns.Node})
		}
	}

	tr := h.tracer
	mw.Counter("mix_traces_recorded_total", "Request traces recorded into the /debug/trace ring.", float64(tr.Recorded()))
	if err := mw.Err(); err != nil {
		// The response is already partially written; nothing useful to do
		// beyond noting it (typically a disconnected scraper).
		h.logger.Warn("metrics write failed", slog.String("error", fmt.Sprint(err)))
	}
}
