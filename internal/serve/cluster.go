package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// WithCluster puts the handler in cluster mode: view requests the local
// mediator cannot answer are forwarded to the ring owner through the
// node's peer transports (HTTPSource, under a ReplicaSet when the view is
// replicated), a GET /cluster topology endpoint appears, and /metrics
// grows a cluster section in both formats. Requests for views the local
// mediator defines are served exactly as without clustering — ownership
// makes forwarding unnecessary, not illegal, so a node that owns a view
// always answers it itself.
func WithCluster(n *cluster.Node) Option { return func(h *Handler) { h.cluster = n } }

// forwarded decides whether this request must be forwarded and, if so,
// performs the hop-guard check and builds the owner transport. Returns:
//
//   - fwd == nil, done == false: serve locally (not clustered, view is
//     local, or the cluster does not know the view).
//   - done == true: the response (421 loop rejection or 502 build
//     failure) has been written.
//   - fwd != nil: forward using fwd under ctx, which carries the
//     ForwardInfo fi (hop path out, taxonomy capture back).
func (h *Handler) forwarded(w http.ResponseWriter, r *http.Request, name string) (fwd *cluster.Forward, ctx context.Context, fi *mediator.ForwardInfo, done bool) {
	if h.cluster == nil {
		return nil, nil, nil, false
	}
	if _, err := h.m.View(name); err == nil {
		return nil, nil, nil, false // locally defined: serve it here
	}
	if !h.cluster.Knows(name) {
		return nil, nil, nil, false // truly unknown: local 404 taxonomy
	}
	hops, err := h.cluster.CheckHops(r.Header.Get(mediator.ForwardHeader))
	if err != nil {
		// 421 Misdirected Request: a 4xx on purpose, so the peer's
		// HTTPSource fails fast instead of retrying a deterministic loop.
		http.Error(w, err.Error(), http.StatusMisdirectedRequest)
		return nil, nil, nil, true
	}
	fi = &mediator.ForwardInfo{Hops: append(hops, h.cluster.Self())}
	ctx = mediator.WithForwardInfo(r.Context(), fi)
	fwd, err = h.cluster.Forward(ctx, name)
	if err != nil {
		h.forwardError(w, name, err)
		return nil, nil, nil, true
	}
	return fwd, ctx, fi, false
}

// forwardError maps a failed forward to the client: 502 Bad Gateway for
// unreachable/failing owners (the request was valid; the upstream hop
// failed), except a loop detected by the owner, which stays 421 so the
// misdirection is visible end to end.
func (h *Handler) forwardError(w http.ResponseWriter, name string, err error) {
	status := http.StatusBadGateway
	// The owner's status as HTTPSource reports it — not any "421" in the
	// text, which a dead owner's ephemeral port or a view's name can hold.
	var upstream *mediator.StatusError
	if errors.As(err, &upstream) && upstream.Status == http.StatusMisdirectedRequest {
		status = http.StatusMisdirectedRequest
	}
	http.Error(w, fmt.Sprintf("cluster: forwarding view %q failed: %v", name, err), status)
}

// setForwardHeaders passes the owner's response taxonomy through to the
// client and stamps the hop path. The pruned/degraded/stale lists keep
// their pairwise-disjoint meaning — they name the owner's sources, which
// this node reports verbatim; a stale serve by the forward's own
// ReplicaSet (every owner down) adds the forward transport itself to the
// stale list, because from here the peer tier is just another source.
func (h *Handler) setForwardHeaders(w http.ResponseWriter, fi *mediator.ForwardInfo, fwd *cluster.Forward, stale bool) {
	path := fi.Via()
	if len(path) == 0 {
		path = fi.Hops
	}
	w.Header().Set(mediator.ForwardHeader, strings.Join(path, ","))
	p := fi.Provenance()
	if stale {
		p.StaleSources = append(p.StaleSources, fwd.SourceName())
	}
	p.SetHeaders(w.Header())
}

// forwardView answers GET /views/{name} for a non-owned view: fetch the
// owner-materialized document (validated in flight against the owner's
// inferred DTD) and serve it under the owner's DTD text, byte-for-byte
// what the owner itself would have served — under the owner's ETag too, so
// a client's If-None-Match gets the 304 here that it would get there. A
// last-known-good serve relays no tag: no owner vouched for it.
func (h *Handler) forwardView(w http.ResponseWriter, r *http.Request, fwd *cluster.Forward, ctx context.Context, fi *mediator.ForwardInfo) {
	doc, stale, err := fwd.Fetch(ctx)
	if err != nil {
		h.forwardError(w, fwd.View(), err)
		return
	}
	h.setForwardHeaders(w, fi, fwd, stale)
	tag := fi.Tag()
	if stale {
		tag = ""
	}
	if notModified(w, tag, tag != "" && mediator.TagListed(r.Header.Get("If-None-Match"), tag)) {
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	writeAnswer(ctx, w, fwd.SchemaText(), func(w io.Writer) error { return xmlmodel.WriteElement(w, doc.Root, 2) })
}

// forwardQuery answers POST /views/{name}/query for a non-owned view:
// fetch the owner-materialized document, evaluate the query locally. The
// result is bit-identical to the owner's own query path — its pruning and
// simplification are answer-preserving by the differential tests — though
// the simplifier stat headers (X-Mix-Skipped and friends) are absent,
// since no simplification ran here; X-Mix-Forwarded marks the difference.
func (h *Handler) forwardQuery(w http.ResponseWriter, r *http.Request, fwd *cluster.Forward, ctx context.Context, fi *mediator.ForwardInfo) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	q, err := xmas.Parse(string(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	doc, stale, err := fwd.Fetch(ctx)
	if err != nil {
		h.forwardError(w, fwd.View(), err)
		return
	}
	// The fetched document is read-only here, so the answer's root holds
	// the picked elements themselves, as Mediator.Query's does.
	picks, err := engine.EvalElements(q, doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	root := engine.EmptyResult(q).Root
	root.Children = picks
	h.setForwardHeaders(w, fi, fwd, stale)
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	writeAnswer(ctx, w, "", func(w io.Writer) error { return xmlmodel.WriteElement(w, root, 2) })
}

// forwardDTD answers GET /views/{name}/dtd with the owner's DTD text
// verbatim (captured at transport build time — no extra round trip).
func (h *Handler) forwardDTD(w http.ResponseWriter, fwd *cluster.Forward, fi *mediator.ForwardInfo) {
	h.setForwardHeaders(w, fi, fwd, false)
	w.Header().Set("Content-Type", "application/xml-dtd; charset=utf-8")
	io.WriteString(w, fwd.SchemaText())
}

// forwardPath answers sibling view endpoints (/sdtd, /outline) by raw
// pass-through: their payloads carry owner-side detail (s-DTD tightness
// notes) this node cannot reconstruct from the plain DTD alone.
func (h *Handler) forwardPath(w http.ResponseWriter, fwd *cluster.Forward, ctx context.Context, fi *mediator.ForwardInfo, suffix string) {
	body, err := fwd.GetPath(ctx, suffix)
	if err != nil {
		h.forwardError(w, fwd.View(), err)
		return
	}
	h.setForwardHeaders(w, fi, fwd, false)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, body)
}

// getCluster serves the topology: the static cluster view (members, per-
// view owner sets, pins) plus live state (ring shares, which forwards
// this node has built).
func (h *Handler) getCluster(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		cluster.Topology
		ForwardedViews []string `json:"forwarded_views"`
	}{h.cluster.Topology(), h.cluster.ForwardedViews()})
}
