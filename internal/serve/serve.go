// Package serve exposes a mediator over HTTP — the deployment shape the
// paper describes ("a mediated view is assigned a URL thru which it will
// be accessed by queries", Section 2.1). Endpoints:
//
//	GET  /views                     list views (text)
//	GET  /views/{name}              the materialized view document (XML),
//	                                under an ETag when complete and live;
//	                                If-None-Match is answered 304. The
//	                                ETag names content, not invalidations:
//	                                it survives a POST /invalidate that
//	                                finds every source unchanged
//	GET  /views/{name}/dtd          the inferred plain view DTD
//	GET  /views/{name}/sdtd         the inferred specialized view DTD
//	POST /views/{name}/query        body: a XMAS query; response: view XML
//	GET  /views/{name}/outline      the view DTD as an annotated tree
//	GET  /sources                   list sources (text)
//	GET  /sources/{name}/dtd        a source's DTD
//	GET  /sources/{name}/outline    the source DTD as an annotated tree
//	GET  /metrics                   serving counters + latency histograms
//	                                (JSON, or Prometheus text exposition)
//	GET  /debug/trace               ring buffer of recent request traces
//	POST /infer                     body: DOCTYPE + XMAS query; response:
//	                                inferred s-DTD, plain DTD, classification
//	                                — for a body seen before, the bytes
//	                                written the first time
//	POST /invalidate                have every cached view part ask its
//	                                source again; with a {"source": name}
//	                                JSON body, just that source's parts
//	POST /cluster/revoke            (cluster mode) an owner's revocation
//	                                stream to this node, held open: each
//	                                frame of the body takes back its leases
//	                                on the views it names, and may renew one
//	                                with a delta; each is acknowledged on
//	                                the response body by its sequence number
//
// Queries posted to a view are answered through the mediator's
// DTD-simplifying path; the X-Mix-Skipped/X-Mix-Pruned/X-Mix-Dropped-Names
// response headers report what the simplifier did, each only when it did
// something (absent means false or 0), X-Mix-Pruned-Sources lists sources
// skipped by per-part satisfiability pruning (proven unable to contribute
// — the answer is unchanged), and X-Mix-Simplifier-Error flags a query
// that fell back to the unsimplified path because the simplifier failed.
// Handlers pass the request context down to the mediator, so a
// disconnecting client cancels remote part-fetches.
//
// Every request runs inside a trace (internal/obs): the X-Mix-Trace-Id
// request header is honored (or a fresh ID minted) and echoed on the
// response, the request's spans — per-source fetches, inference runs,
// budget charges — land in the ring buffer served by /debug/trace, and
// the access log line carries the same ID, so a degraded or
// breaker-tripped response correlates with the trace that produced it.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/automata/cache"
	"repro/internal/browse"
	"repro/internal/budget"
	"repro/internal/cluster"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/xmas"
)

// Handler wraps a mediator as an http.Handler.
type Handler struct {
	m   *mediator.Mediator
	mux *http.ServeMux

	tracer *obs.Tracer
	logger *slog.Logger

	// cluster, when set (WithCluster), forwards requests for views owned
	// by peer mediator nodes; see cluster.go.
	cluster *cluster.Node

	// reqHists holds one latency histogram per route pattern, created on
	// first hit (the route set is small and fixed).
	reqHists *obs.HistogramSet
	// reqCodes counts responses per pattern and status for the Prometheus
	// exposition's mix_http_requests_total.
	reqMu    sync.Mutex
	reqCodes map[reqCode]int64

	// inferred is the inference memo: a POST /infer body → the keptInference
	// answered to it (postInfer). It is the handler's, not the process's: a
	// new handler has inferred nothing yet.
	inferred *cache.Cache
	// What the memo did, for inferMemoStats.
	inferHits, inferKept, inferNotKeptDegraded atomic.Int64
}

// maxRoutePatterns bounds reqHists: well above the route table (plus
// "unmatched"), which is what r.Pattern is drawn from.
const maxRoutePatterns = 64

// reqCode is one series of mix_http_requests_total.
type reqCode struct {
	pattern string
	status  int
}

// Option configures the handler.
type Option func(*Handler)

// WithTracer replaces the default request tracer (ring of
// DefaultTraceCapacity traces).
func WithTracer(t *obs.Tracer) Option { return func(h *Handler) { h.tracer = t } }

// WithLogger sets the structured access/error logger (default: discard).
func WithLogger(l *slog.Logger) Option { return func(h *Handler) { h.logger = l } }

// DefaultTraceCapacity is the default /debug/trace ring size.
const DefaultTraceCapacity = 128

// New builds the HTTP facade for a mediator.
func New(m *mediator.Mediator, opts ...Option) *Handler {
	h := &Handler{
		m:        m,
		mux:      http.NewServeMux(),
		tracer:   obs.NewTracer(DefaultTraceCapacity),
		logger:   obs.DiscardLogger(),
		reqHists: obs.NewHistogramSet(maxRoutePatterns),
		reqCodes: map[reqCode]int64{},
		inferred: cache.New(inferMemoEntries),
	}
	for _, o := range opts {
		o(h)
	}
	h.mux.HandleFunc("GET /views", h.listViews)
	h.mux.HandleFunc("GET /views/{name}", h.getView)
	h.mux.HandleFunc("GET /views/{name}/dtd", h.getViewDTD)
	h.mux.HandleFunc("GET /views/{name}/sdtd", h.getViewSDTD)
	h.mux.HandleFunc("POST /views/{name}/query", h.postQuery)
	h.mux.HandleFunc("GET /views/{name}/outline", h.getViewOutline)
	h.mux.HandleFunc("GET /sources", h.listSources)
	h.mux.HandleFunc("GET /sources/{name}/dtd", h.getSourceDTD)
	h.mux.HandleFunc("GET /sources/{name}/outline", h.getSourceOutline)
	h.mux.HandleFunc("GET /metrics", h.getMetrics)
	h.mux.HandleFunc("GET /healthz", h.getHealthz)
	h.mux.HandleFunc("GET /readyz", h.getReadyz)
	h.mux.HandleFunc("GET /debug/trace", h.getDebugTrace)
	h.mux.HandleFunc("POST /infer", h.postInfer)
	h.mux.HandleFunc("POST /invalidate", h.postInvalidate)
	if h.cluster != nil {
		h.mux.HandleFunc("GET /cluster", h.getCluster)
		h.mux.HandleFunc("POST "+cluster.RevokePath, h.postRevoke)
	}
	return h
}

// postInvalidate is the refresh signal an operator (or the load harness's
// invalidate ops) sends after sources change. An empty body keeps the
// historical behaviour — flush everything, 204 — while a {"source": name}
// JSON body announces a change scoped to one source: only the views
// transitively depending on it recompute (and of those, only the parts
// over that source; see Mediator.InvalidateSource), and the response names
// the affected views. An unknown source is a 404. In cluster mode the
// answer waits until every member holding a lease on an affected view has
// given it back or run out of it (cluster.Node.Revoke): after a 2xx no
// forwarder serves the document the invalidation replaced. A scoped
// invalidation first reads each affected view a member holds a lease on
// (renewal), so that its revocation carries the parts that changed and a
// lease on the new document; the 2xx waits for that read too.
func (h *Handler) postInvalidate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if len(bytes.TrimSpace(body)) == 0 {
		h.m.Invalidate()
		if h.cluster != nil {
			h.cluster.RevokeAll(r.Context())
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	var req struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("invalid invalidate body: %v", err), http.StatusBadRequest)
		return
	}
	if req.Source == "" {
		http.Error(w, `invalidate body must name a "source"`, http.StatusBadRequest)
		return
	}
	views, err := h.m.InvalidateSource(req.Source)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	if h.cluster != nil {
		h.cluster.Revoke(r.Context(), h.renewal, views...)
	}
	w.Header()["Content-Type"] = jsonType
	_ = writeInvalidateReply(w, req.Source, views)
}

// invalidateReply is the body of a scoped invalidation's answer.
type invalidateReply struct {
	Source           string   `json:"source"`
	InvalidatedViews []string `json:"invalidated_views"`
}

// writeInvalidateReply writes what json.NewEncoder(w).Encode writes of
// invalidateReply{source, views}. Names made of characters that encoding/json
// writes as they are — printable ASCII but for `"`, `\`, `<`, `>` and `&` —
// are written by hand, nothing allocated; any other name is encoding/json's to
// escape.
func writeInvalidateReply(w io.Writer, source string, views []string) error {
	plain := views != nil && jsonPlain(source)
	for _, v := range views {
		plain = plain && jsonPlain(v)
	}
	if !plain {
		return json.NewEncoder(w).Encode(invalidateReply{Source: source, InvalidatedViews: views})
	}
	var err error
	write := func(s string) {
		if err == nil {
			_, err = io.WriteString(w, s)
		}
	}
	write(`{"source":"`)
	write(source)
	write(`","invalidated_views":[`)
	for i, v := range views {
		if i > 0 {
			write(",")
		}
		write(`"`)
		write(v)
		write(`"`)
	}
	write("]}\n")
	return err
}

// jsonPlain reports whether encoding/json writes s between its quotes as it
// is.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Tracer returns the handler's request tracer (the /debug/trace source).
func (h *Handler) Tracer() *obs.Tracer { return h.tracer }

func (h *Handler) listViews(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	views := h.m.Views()
	if h.cluster != nil {
		// Cluster views resolve on every node (forwarded when not owned),
		// so the listing advertises them all — a client sees the same view
		// namespace no matter which node it asks.
		seen := map[string]bool{}
		for _, v := range views {
			seen[v] = true
		}
		for _, v := range h.cluster.Views() {
			if !seen[v] {
				views = append(views, v)
			}
		}
		sort.Strings(views)
	}
	for _, v := range views {
		fmt.Fprintln(w, v)
	}
}

func (h *Handler) listSources(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, s := range h.m.Sources() {
		fmt.Fprintln(w, s)
	}
}

func (h *Handler) getView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if fwd, note, done := h.forwarded(w, r, name); done {
		return
	} else if fwd != nil {
		h.forwardView(w, r, fwd, note)
		return
	}
	var offer cluster.Offer
	leasable := false
	if h.cluster != nil {
		offer, leasable = h.cluster.Offer(name, r.Header.Get(mediator.ForwardHeader))
	}
	a, stats, err := h.m.Read(r.Context(), mediator.Request{View: name, IfNoneMatch: r.Header.Get("If-None-Match")})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	setProvenanceHeaders(w, a.View, stats.Provenance)
	if leasable && h.cluster.Grant(offer, stats.Tag, a.View.Degraded) {
		w.Header().Set(mediator.LeaseHeader, leaseTermMillis)
	}
	if notModified(w, stats.Tag, stats.NotModified) {
		return
	}
	w.Header()["Content-Type"] = xmlType
	if wantsRuns(r) && sendRuns(w, r, a, stats.Tag) {
		return
	}
	sendAnswer(r.Context(), w, a.View.DTDText, &a)
}

// notModified finishes the validator's part of a GET /views/{name} answer,
// the same on an owner and on a forwarder: the document's tag, when it has
// one, goes out as the ETag, and a request whose If-None-Match named it is
// answered 304 — the headers set so far, no body. It reports whether it did.
func notModified(w http.ResponseWriter, tag string, matched bool) bool {
	if tag != "" {
		setHeader(w, "ETag", tag)
	}
	if matched {
		w.WriteHeader(http.StatusNotModified)
	}
	return matched
}

// setProvenanceHeaders advertises on a view response how the answer departs
// from a complete, live, tightly typed one. X-Mix-Degraded is "true"
// whenever either the view's DTD inference was budget-degraded (sound but
// loose, see internal/budget; X-Mix-Degraded-Reason says why) or this
// materialization dropped the parts of breaker-open sources
// (X-Mix-Degraded-Sources). X-Mix-Pruned-Sources lists sources proven unable
// to contribute and never fetched — unlike X-Mix-Degraded this does not
// change the answer — and X-Mix-Stale-Sources the sources whose every
// replica was down, served from a validated last-known-good document:
// nothing is missing, but those parts may be outdated. Clients that care
// about tightness, completeness or freshness can react; everyone else still
// gets a well-formed, DTD-sound document.
func setProvenanceHeaders(w http.ResponseWriter, v *mediator.View, p mediator.Provenance) {
	if v.Degraded {
		setHeader(w, "X-Mix-Degraded", "true")
		if v.DegradedReason != "" {
			setHeader(w, "X-Mix-Degraded-Reason", v.DegradedReason)
		}
	}
	p.EachHeader(func(name, value string) { setHeader(w, name, value) })
}

// sendAnswer sends a view's document or a query's answer as writeAnswer does,
// declaring its length, the schema's included, when it is known before the
// first byte (mediator.Answer.Size): when a run is streamed on this read the
// answer goes out chunked.
func sendAnswer(ctx context.Context, w http.ResponseWriter, schema string, a *mediator.Answer) {
	if n, ok := a.Size(); ok {
		setLength(w, len(schema)+n)
	}
	writeAnswer(ctx, w, schema, a.Write)
}

// writeAnswer sends an XML answer: the text of the DTD the document is
// valid against when the answer carries one (a view document does, per
// Definition 2.4; a query result does not), then the document, serialized
// straight into w or, where a part slot holds its bytes, those (write). No
// copy of the answer is built. A write error means the client has gone, and
// there is nobody left to tell. The span is a leaf: a write records nothing.
func writeAnswer(ctx context.Context, w io.Writer, schema string, write func(io.Writer) error) {
	span := obs.StartLeaf(ctx, "serialize")
	if schema != "" {
		io.WriteString(w, schema)
	}
	_ = write(w)
	span.End()
}

// maxBody bounds a request body. A longer one is refused (413), not cut: the
// prefix of a query is another query. The inference memo holds at most
// inferMemoEntries answers of at most maxInferMemoEntry bytes, request text
// and response together — 16 MiB whatever is posted.
const (
	maxBody           = 1 << 20
	inferMemoEntries  = 256
	maxInferMemoEntry = 64 << 10
)

// readBody reads the request's body, or answers the error and returns false.
// A declared length is refused before a byte is read when it is too long, and
// read into one buffer of its size otherwise; only a body of unknown length
// (chunked) is read until it ends or proves too long.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var body []byte
	var err error
	n := r.ContentLength
	switch {
	case n > maxBody:
	case n >= 0:
		body = make([]byte, n)
		if _, err = io.ReadFull(r.Body, body); err == nil {
			// A body read to its end is closed: net/http then skips the copy
			// to io.Discard it otherwise runs before the response header.
			r.Body.Close()
		}
	default:
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBody+1)) // one past tells
	}
	switch {
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case n > maxBody || len(body) > maxBody:
		http.Error(w, "request body exceeds 1 MiB", http.StatusRequestEntityTooLarge)
	default:
		return body, true
	}
	return nil, false
}

func (h *Handler) getViewDTD(w http.ResponseWriter, r *http.Request) {
	if fwd, note, done := h.forwarded(w, r, r.PathValue("name")); done {
		return
	} else if fwd != nil {
		h.forwardDTD(w, fwd, note)
		return
	}
	v, err := h.m.View(r.PathValue("name"))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/xml-dtd; charset=utf-8")
	io.WriteString(w, v.DTDText)
}

func (h *Handler) getViewSDTD(w http.ResponseWriter, r *http.Request) {
	if fwd, note, done := h.forwarded(w, r, r.PathValue("name")); done {
		return
	} else if fwd != nil {
		h.forwardPath(w, fwd, note, "/sdtd")
		return
	}
	v, err := h.m.View(r.PathValue("name"))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, v.SDTD)
	if v.NonTight {
		fmt.Fprintln(w, "<!-- note: merging this s-DTD to a plain DTD loses tightness -->")
	}
}

func (h *Handler) getSourceDTD(w http.ResponseWriter, r *http.Request) {
	wrapper, err := h.m.Wrapper(r.PathValue("name"))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/xml-dtd; charset=utf-8")
	fmt.Fprintln(w, wrapper.Schema())
}

// getMetrics exposes the mediator's serving counters — cache hits/misses,
// singleflight dedups, simplifier totals, per-view query counts/latency
// histograms, and wrapper retry counts. The default response is a JSON
// snapshot; ?format=prometheus (or a scraper-style Accept header, see
// wantsPrometheus) selects Prometheus text exposition format instead.
func (h *Handler) getMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.writePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	out := struct {
		mediator.Stats
		inferMemoStats
		Spans   map[string]obs.HistogramSnapshot `json:"spans,omitempty"`
		Cluster *cluster.Metrics                 `json:"cluster,omitempty"`
	}{Stats: h.m.Stats(), inferMemoStats: h.inferMemoStats(), Spans: h.tracer.SpanDurations()}
	if h.cluster != nil {
		cm := h.cluster.Metrics()
		out.Cluster = &cm
	}
	_ = enc.Encode(out)
}

// getViewOutline serves the structure display of the DTD-based query
// interface for a view's inferred DTD.
func (h *Handler) getViewOutline(w http.ResponseWriter, r *http.Request) {
	if fwd, note, done := h.forwarded(w, r, r.PathValue("name")); done {
		return
	} else if fwd != nil {
		h.forwardPath(w, fwd, note, "/outline")
		return
	}
	v, err := h.m.View(r.PathValue("name"))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, browse.Outline(v.DTD, browse.OutlineOptions{}))
}

// getSourceOutline serves the structure display for a source DTD.
func (h *Handler) getSourceOutline(w http.ResponseWriter, r *http.Request) {
	wrapper, err := h.m.Wrapper(r.PathValue("name"))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, browse.Outline(wrapper.Schema(), browse.OutlineOptions{}))
}

func (h *Handler) postQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if fwd, note, done := h.forwarded(w, r, name); done {
		return
	} else if fwd != nil {
		h.forwardQuery(w, r, fwd, note)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	a, stats, err := h.m.Read(r.Context(), mediator.Request{View: name, Text: body})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header()["Content-Type"] = xmlType
	if stats.SkippedUnsatisfiable {
		setHeader(w, "X-Mix-Skipped", "true")
	}
	if n := stats.PrunedConditions; n != 0 {
		setHeader(w, "X-Mix-Pruned", strconv.Itoa(n))
	}
	if n := stats.DroppedNames; n != 0 {
		setHeader(w, "X-Mix-Dropped-Names", strconv.Itoa(n))
	}
	if stats.SimplifierError != "" {
		setHeader(w, "X-Mix-Simplifier-Error", stats.SimplifierError)
	}
	setProvenanceHeaders(w, a.View, stats.Provenance)
	sendAnswer(r.Context(), w, "", &a)
}

// postInfer is inference as a service: the request body is a DOCTYPE
// declaration (the source DTD) immediately followed by a XMAS view
// definition; the response contains the specialized view DTD, the merged
// plain view DTD, and the classification, separated by "-- " marker lines
// (the format of cmd/mixinfer).
//
// Inference is a function of that text alone, so a text seen before is
// answered with the bytes written the first time: it is found by the body's
// bytes, nothing is copied, nothing is parsed and no algorithm runs. What is
// kept is a complete, tight answer — never a degraded one (one budget's
// opinion, as in Mediator.planFor), never an error, and not an entry over
// maxInferMemoEntry. Two first requests for one text may both
// compute; their bytes are equal and the first Put stays.
func (h *Handler) postInfer(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if kept, ok := h.inferred.GetBytes(body); ok {
		h.inferHits.Add(1)
		obs.SetAttr(r.Context(), obs.String("infer_memo", "hit"))
		k := kept.(*keptInference)
		w.Header()["Content-Type"] = textType
		setLength(w, len(k.out))
		w.Write(k.out)
		return
	}
	text := string(body)
	src, query, err := dtd.ParsePrefix(text)
	if err != nil {
		http.Error(w, "body must be a DOCTYPE declaration followed by a XMAS query: "+err.Error(), http.StatusBadRequest)
		return
	}
	q, err := xmas.Parse(query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Inference-as-a-service runs under the mediator's configured budget:
	// a hostile or pathological posted DTD must not pin a serving CPU.
	bud := h.m.InferenceBudget().Budget()
	res, err := infer.InferContext(budget.NewContext(r.Context(), bud), q, src)
	if err != nil {
		http.Error(w, err.Error(), inferStatusFor(err))
		return
	}
	if res.Degraded {
		setHeader(w, "X-Mix-Degraded", "true")
		setHeader(w, "X-Mix-Degraded-Reason", res.DegradedReason)
	}
	w.Header()["Content-Type"] = textType
	// One buffer, one write. Two view DTDs seldom outgrow twice the request.
	out := make([]byte, 0, 256+2*len(body))
	out = append(out, "-- specialized view DTD\n"...)
	out = append(res.SDTD.AppendText(out), "\n-- plain view DTD\n"...)
	out = append(res.DTD.AppendText(out), "\n-- classification: "...)
	out = append(append(out, res.Class.String()...), '\n')
	if res.Degraded {
		out = fmt.Appendf(out, "-- degraded: %s (sound but not tightest; loose names: %s)\n",
			res.DegradedReason, strings.Join(res.DegradedNames, ", "))
	}
	for _, ev := range res.Merges {
		if ev.Distinct {
			out = fmt.Appendf(out, "-- warning: %s\n", ev)
		}
	}
	setLength(w, len(out))
	w.Write(out)

	memo := "not_kept"
	switch size := len(text) + len(out); {
	case res.Degraded:
		h.inferNotKeptDegraded.Add(1)
	case size > maxInferMemoEntry:
	case h.inferred.Put(text, &keptInference{out: out, size: size}):
		h.inferKept.Add(1)
		memo = "kept"
	}
	obs.SetAttr(r.Context(), obs.String("infer_memo", memo))
}

// keptInference is an entry of the inference memo: the response written for
// the request text it is kept under, never written again, and the bytes the
// two take together.
type keptInference struct {
	out  []byte
	size int
}

// inferMemoStats is the inference memo's part of /metrics, JSON keys and
// Prometheus series declared on the fields like mediator.Stats's.
type inferMemoStats struct {
	Hits            int64 `json:"infer_memo_hits" metric:"mix_infer_memo_hits_total" help:"POST /infer requests answered with the bytes kept for their text (nothing parsed, no inference run)."`
	Kept            int64 `json:"infer_memo_kept" metric:"mix_infer_memo_kept_total" help:"Inference answers kept under their request text."`
	NotKeptDegraded int64 `json:"infer_memo_not_kept_degraded" metric:"mix_infer_memo_not_kept_degraded_total" help:"Inference answers not kept because the inference budget ran out (sound but loose; recomputed on a repeat)."`
	BytesHeld       int64 `json:"infer_memo_bytes_held" metric:"mix_infer_memo_bytes_held" help:"Request and response bytes the inference memo holds now."`
}

func (h *Handler) inferMemoStats() inferMemoStats {
	st := inferMemoStats{Hits: h.inferHits.Load(), Kept: h.inferKept.Load(), NotKeptDegraded: h.inferNotKeptDegraded.Load()}
	for _, kept := range h.inferred.Values() {
		st.BytesHeld += int64(kept.(*keptInference).size)
	}
	return st
}

// inferStatusFor tells whose fault a failed inference is. A recovered worker
// panic is the server's (500) and a request context that ended is nobody's
// text's (503); whatever else InferContext reports — a recursive path, an
// inconsistent DTD, a view name that collides — is what was posted (422).
func inferStatusFor(err error) int {
	switch {
	case errors.Is(err, infer.ErrWorkerPanic):
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// statusFor maps lookup failures to 404 via the mediator's sentinel
// errors (message-text matching would misroute a source or view whose
// name happens to contain "unknown view") and a text that is no query to
// 400; everything else — engine failures, remote fetch errors — is a 500.
func statusFor(err error) int {
	var text mediator.QueryTextError
	switch {
	case errors.Is(err, mediator.ErrUnknownView) || errors.Is(err, mediator.ErrUnknownSource):
		return http.StatusNotFound
	case errors.As(err, &text):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
