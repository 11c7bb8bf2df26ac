package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/mediator"
	"repro/internal/obs"
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
//   - fwd != nil: forward using fwd under note, the forwarded fetch's note
//     and context (hop path out, the owner's taxonomy, tag and lease back).
func (h *Handler) forwarded(w http.ResponseWriter, r *http.Request, name string) (fwd *cluster.Forward, note *mediator.FetchNote, done bool) {
	if h.cluster == nil {
		return nil, nil, false
	}
	if h.m.HasView(name) {
		return nil, nil, false // locally defined: serve it here
	}
	if !h.cluster.Knows(name) {
		return nil, nil, false // truly unknown: local 404 taxonomy
	}
	hops, err := h.cluster.CheckHops(r.Header.Get(mediator.ForwardHeader))
	if err != nil {
		// 421 Misdirected Request: a 4xx on purpose, so the peer's
		// HTTPSource fails fast instead of retrying a deterministic loop.
		http.Error(w, err.Error(), http.StatusMisdirectedRequest)
		return nil, nil, true
	}
	note = mediator.NewForwardNote(r.Context(), append(hops, h.cluster.Self()))
	fwd, err = h.cluster.Forward(note, name)
	if err != nil {
		h.forwardError(w, name, err)
		return nil, nil, true
	}
	return fwd, note, false
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
func (h *Handler) setForwardHeaders(w http.ResponseWriter, note *mediator.FetchNote, fwd *cluster.Forward, stale bool) {
	setHeader(w, mediator.ForwardHeader, strings.Join(note.Path(), ","))
	p := note.Provenance()
	if stale {
		p.StaleSources = append(p.StaleSources, fwd.SourceName())
	}
	p.EachHeader(func(name, value string) { setHeader(w, name, value) })
}

// forwardView answers GET /views/{name} for a non-owned view: fetch the
// owner-materialized document (validated in flight against the owner's
// inferred DTD) and serve it under the owner's DTD text, byte-for-byte
// what the owner itself would have served — under the owner's ETag too, so
// a client's If-None-Match gets the 304 here that it would get there. A
// last-known-good serve relays no tag: no owner vouched for it.
func (h *Handler) forwardView(w http.ResponseWriter, r *http.Request, fwd *cluster.Forward, note *mediator.FetchNote) {
	doc, stale, err := fwd.Fetch(note)
	if err != nil {
		h.forwardError(w, fwd.View(), err)
		return
	}
	h.setForwardHeaders(w, note, fwd, stale)
	tag := note.Tag()
	if stale {
		tag = ""
	}
	if notModified(w, tag, tag != "" && mediator.TagListed(r.Header.Get("If-None-Match"), tag)) {
		return
	}
	w.Header()["Content-Type"] = xmlType
	writeAnswer(note, w, fwd.SchemaText(), func(w io.Writer) error { return xmlmodel.WriteElement(w, doc.Root, 2) })
}

// forwardQuery answers POST /views/{name}/query for a non-owned view:
// fetch the owner-materialized document, evaluate the query locally. The
// result is bit-identical to the owner's own query path — its pruning and
// simplification are answer-preserving by the differential tests — though
// the simplifier stat headers (X-Mix-Skipped and friends) are absent,
// since no simplification ran here; X-Mix-Forwarded marks the difference.
//
// The text finds its plan in this node's plan memo, and over a document the
// owner said is unchanged the plan finds its picks — and their bytes — in the
// memo an owner's part slot keeps, under the owner's rule (Forward.Answer).
// While the owner's lease on the document runs the fetch asks nobody; the
// owner takes the lease back before it acknowledges an invalidation, so
// nothing is served that an owner which acknowledged one would not serve now.
func (h *Handler) forwardQuery(w http.ResponseWriter, r *http.Request, fwd *cluster.Forward, note *mediator.FetchNote) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	plan, err := h.m.ParsePlan(note, body)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	doc, stale, err := fwd.Fetch(note)
	if err != nil {
		h.forwardError(w, fwd.View(), err)
		return
	}
	a, how, err := fwd.Answer(plan, doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	obs.SetAttr(note, obs.String("forwarded_answer", how))
	h.setForwardHeaders(w, note, fwd, stale)
	w.Header()["Content-Type"] = xmlType
	writeAnswer(note, w, "", a.Write)
}

// forwardDTD answers GET /views/{name}/dtd with the owner's DTD text
// verbatim (captured at transport build time — no extra round trip).
func (h *Handler) forwardDTD(w http.ResponseWriter, fwd *cluster.Forward, note *mediator.FetchNote) {
	h.setForwardHeaders(w, note, fwd, false)
	w.Header().Set("Content-Type", "application/xml-dtd; charset=utf-8")
	io.WriteString(w, fwd.SchemaText())
}

// forwardPath answers sibling view endpoints (/sdtd, /outline) by raw
// pass-through: their payloads carry owner-side detail (s-DTD tightness
// notes) this node cannot reconstruct from the plain DTD alone.
func (h *Handler) forwardPath(w http.ResponseWriter, fwd *cluster.Forward, note *mediator.FetchNote, suffix string) {
	body, err := fwd.GetPath(note, suffix)
	if err != nil {
		h.forwardError(w, fwd.View(), err)
		return
	}
	h.setForwardHeaders(w, note, fwd, false)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, body)
}

// wantsRuns reports whether a GET /views/{name} asks for the document's runs
// and deltas of it: "mix-runs" is among the instance manipulations of its
// A-IM header (RFC 3229). Only a cluster member's fetch does.
func wantsRuns(r *http.Request) bool {
	for _, v := range r.Header["A-Im"] {
		for rest := v; rest != ""; {
			var im string
			im, rest, _ = strings.Cut(rest, ",")
			im, _, _ = strings.Cut(im, ";")
			if strings.EqualFold(strings.TrimSpace(im), mediator.RunsIM) {
				return true
			}
		}
	}
	return false
}

// runsIM is the IM response header's value, shared by every delta: the
// server only reads it.
var runsIM = []string{mediator.RunsIM}

// sendRuns finishes the answer to a GET /views/{name} that asks for runs
// (wantsRuns): the document's runs go out as RunsHeader, and when the
// request's If-None-Match names an earlier tag of this very document
// (mediator.AppendMoved) the answer is 226 IM Used with the runs of the parts
// that moved since, all it sends. It reports whether it sent that delta; a
// full answer is the caller's to send.
func sendRuns(w http.ResponseWriter, r *http.Request, a mediator.Answer, tag string) bool {
	h := w.Header()
	h.Set(mediator.RunsHeader, a.Runs())
	base := r.Header["If-None-Match"]
	if len(base) != 1 {
		return false
	}
	var buf [16]bool // a view of more parts makes moved on the heap
	moved := mediator.AppendMoved(buf[:0], base[0], tag)
	if moved == nil {
		return false
	}
	h["Im"], h["Delta-Base"] = runsIM, base // the request's own value: both only read it
	w.WriteHeader(http.StatusIMUsed)
	writeAnswer(r.Context(), w, "", func(w io.Writer) error { return a.WriteDelta(w, moved) })
	return true
}

// leaseTermMillis is the LeaseHeader value: the term, in milliseconds.
var leaseTermMillis = strconv.FormatInt(cluster.LeaseTerm.Milliseconds(), 10)

// postRevoke is the lease holder's side of an owner's revocation stream
// (cluster.RevokePath): it reads the owner's frames as they come and, for
// each, drops the leases on the views it names and fences off every fetch of
// them in flight — having spliced the delta of a renewal it carries and
// installed the renewed lease first; a renewal any check refuses leaves a
// plain revocation (cluster.Node.Revocation) — and then acknowledges it with
// its sequence number, flushed at once. The exchange is full duplex and has
// no deadline: it lasts until the owner ends it, a read or a write fails, or
// the node is closed. A first frame that cannot be read or that names no
// view is answered 400; a later one ends the stream, and the owner waits out
// whatever it had pending on it.
//
// The stream is one request: one root span, one access-log line and one
// status count when it ends, and no latency (recordRequest). What its frames
// did is counted by the node (lease_renewals_applied, lease_renewals_refused).
func (h *Handler) postRevoke(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	for _, err := range []error{rc.EnableFullDuplex(), rc.SetReadDeadline(time.Time{}), rc.SetWriteDeadline(time.Time{})} {
		if err != nil && !errors.Is(err, http.ErrNotSupported) {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	defer context.AfterFunc(h.cluster.Closed(), func() { _ = rc.SetReadDeadline(time.Unix(1, 0)) })()
	frames := bufio.NewReader(r.Body)
	var ack [24]byte
	for first := true; ; first = false {
		f, err := cluster.ReadFrame(frames)
		if err == nil {
			err = h.cluster.Revocation(&f)
		}
		if err != nil {
			if first {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		if _, err := w.Write(cluster.AppendAck(ack[:0], f.Seq)); err != nil || rc.Flush() != nil {
			return
		}
	}
}

// renewal is the owner's read of view after an invalidation, which renews its
// holders' leases (cluster.Reader): a complete, live, tagged document under an
// inference that did not degrade, as a grant asks.
func (h *Handler) renewal(ctx context.Context, view string) (mediator.Answer, string, bool) {
	a, stats, err := h.m.Read(ctx, mediator.Request{View: view})
	if err != nil || stats.Tag == "" || a.View.Degraded {
		return mediator.Answer{}, "", false
	}
	return a, stats.Tag, true
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
