package mediator

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// ForwardHeader is the hop-path header of the cluster tier. A mediator
// node forwarding a request to a peer (internal/cluster) sends the chain
// of node names traversed so far as a comma-separated list; the receiving
// node refuses with 421 Misdirected Request when its own name is already
// on the list — a forwarding loop, which only a stale or inconsistent
// ring configuration can produce. Responses echo the final path so a
// client can see which nodes served its request.
const ForwardHeader = "X-Mix-Forwarded"

// LeaseHeader is the cluster tier's grant. An owner answering a cluster
// member's GET /views/{name} with a complete, live document sends, under
// it, the term in milliseconds for which it will not acknowledge an
// invalidation of the view before telling that member (internal/cluster).
const LeaseHeader = "X-Mix-Lease"

// The cluster tier's delta encoding of a view document, in RFC 3229's terms.
// A member fetching GET /views/{name} asks for it with "A-IM: mix-runs"
// (RunsIM). An owner then sends, beside a 200's document, RunsHeader: the
// number of root children each part contributes, in part order ("3,0,5"). To
// an If-None-Match that names an earlier tag of the same view's document of
// the same mediator (AppendMoved), it answers "226 IM Used" instead, with
// "IM: mix-runs", "Delta-Base: <that tag>", the new ETag and RunsHeader, and
// for body the runs of the parts that moved, in part order, each as it sits
// in the document (xmlmodel.WriteRuns) — and no DOCTYPE and no root.
const (
	RunsHeader = "X-Mix-Runs"
	RunsIM     = "mix-runs"
)

// ForwardInfo rides the context through a forwarded fetch. It plays two
// roles:
//
//   - Request side: Hops is the forwarding path so far (node names,
//     oldest first). HTTPSource sends it as the X-Mix-Forwarded request
//     header on every request it makes while the ForwardInfo is on the
//     context — including through a ReplicaSet, whose replica fetches
//     inherit the caller's context.
//   - Response side: the Provenance (X-Mix-Degraded/Pruned/Stale source
//     taxonomy) and the peer's own X-Mix-Forwarded echo are captured from
//     successful responses, so the forwarding node can pass the owner's
//     headers through to its client instead of erasing them at the hop —
//     and, from a fetch that returned a document, the tag the peer sent
//     that document under, so the forwarding node's answer carries the
//     owner's validator, and the lease it was granted with.
//
// The capture is mutex-guarded because hedged reads may have two replica
// requests in flight; whichever responses arrive are recorded (the
// replicas are DTD-equivalent owners of the same view, so either's
// taxonomy is a truthful account of the answer served).
type ForwardInfo struct {
	// Hops is the forwarding path up to and including the sending node.
	// It is fixed before the fetch starts and read-only afterwards.
	Hops []string

	mu   sync.Mutex
	prov Provenance
	via  []string
	// tag is the peer's ETag of the one document fetched under this info,
	// and lease the term the peer granted with it; docs counts the
	// documents. Two documents under different tags (hedged owners both
	// answered) leave neither: which one is served is not known here.
	tag   string
	lease time.Duration
	docs  int
}

// Captured is what a fetch under a ForwardInfo brought back besides the
// document: the tag, the peer's provenance and its hop path. A cluster lease
// keeps it beside the document and replays it on every read it answers, so
// those answers carry the headers the owner's did.
type Captured struct {
	tag  string
	prov Provenance
	via  []string
}

// Tag is the tag c's document was sent under.
func (c Captured) Tag() string { return c.tag }

// forwardKey is the context key for a *ForwardInfo.
type forwardKey struct{}

// WithForwardInfo returns a context carrying fi; HTTPSource fetches under
// it send the hop path and record response taxonomy headers into fi.
func WithForwardInfo(ctx context.Context, fi *ForwardInfo) context.Context {
	return context.WithValue(ctx, forwardKey{}, fi)
}

// ForwardInfoFrom returns the context's ForwardInfo, or nil.
func ForwardInfoFrom(ctx context.Context) *ForwardInfo {
	fi, _ := ctx.Value(forwardKey{}).(*ForwardInfo)
	return fi
}

// record captures the taxonomy headers of one successful peer response.
func (fi *ForwardInfo) record(h http.Header) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.prov.FromHeaders(h)
	if v := h.Get(ForwardHeader); v != "" {
		fi.via = splitCSV(v)
	}
}

// Provenance returns the union of the recorded peer responses' provenance.
func (fi *ForwardInfo) Provenance() Provenance {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return Provenance{
		Degraded:        fi.prov.Degraded,
		DegradedSources: slices.Clone(fi.prov.DegradedSources),
		PrunedSources:   slices.Clone(fi.prov.PrunedSources),
		StaleSources:    slices.Clone(fi.prov.StaleSources),
	}
}

// noteDocument records that a fetch under fi returned a document the peer
// sent (or confirmed) under tag, "" when it sent none, granting a lease of
// the given term (0 for none). Nil-safe.
func (fi *ForwardInfo) noteDocument(tag string, lease time.Duration) {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	if fi.docs == 0 {
		fi.tag, fi.lease = tag, lease
	} else if fi.tag != tag {
		fi.tag, fi.lease = "", 0
	}
	fi.docs++
	fi.mu.Unlock()
}

// leaseOf reads the term a peer's response grants (LeaseHeader), 0 for none.
func leaseOf(h http.Header) time.Duration {
	ms, err := strconv.Atoi(h.Get(LeaseHeader))
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// Lease returns the term the peer granted with the document fetched under
// fi: 0 when it granted none, or when more than one document was fetched
// under different tags.
func (fi *ForwardInfo) Lease() time.Duration {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.lease
}

// Capture returns what Replay needs to answer as the fetch under fi did.
func (fi *ForwardInfo) Capture() Captured {
	return Captured{tag: fi.Tag(), prov: fi.Provenance(), via: fi.Via()}
}

// Replay makes fi read as if a fetch under it had brought back c: one
// document, under c's tag and with c's provenance and hop path. Nil-safe.
// c's lists are shared, clipped so that nothing appended to fi reaches them.
func (fi *ForwardInfo) Replay(c Captured) {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	fi.tag, fi.lease, fi.docs = c.tag, 0, 1
	fi.prov = Provenance{
		Degraded:        c.prov.Degraded,
		DegradedSources: slices.Clip(c.prov.DegradedSources),
		PrunedSources:   slices.Clip(c.prov.PrunedSources),
		StaleSources:    slices.Clip(c.prov.StaleSources),
	}
	fi.via = slices.Clip(c.via)
	fi.mu.Unlock()
}

// Tag returns the peer's validator of the document fetched under fi, or ""
// when there is none to relay: the peer sent no ETag, no document was
// fetched, or more than one was, under different tags.
func (fi *ForwardInfo) Tag() string {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.tag
}

// Via returns the peer's echoed hop path, if any response carried one.
func (fi *ForwardInfo) Via() []string {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return slices.Clone(fi.via)
}
