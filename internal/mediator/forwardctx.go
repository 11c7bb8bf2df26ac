package mediator

import (
	"context"
	"net/http"
	"slices"
	"sync"
)

// ForwardHeader is the hop-path header of the cluster tier. A mediator
// node forwarding a request to a peer (internal/cluster) sends the chain
// of node names traversed so far as a comma-separated list; the receiving
// node refuses with 421 Misdirected Request when its own name is already
// on the list — a forwarding loop, which only a stale or inconsistent
// ring configuration can produce. Responses echo the final path so a
// client can see which nodes served its request.
const ForwardHeader = "X-Mix-Forwarded"

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
//     owner's validator.
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
	// tag is the peer's ETag of the one document fetched under this info;
	// docs counts the documents. Two documents under different tags (hedged
	// owners both answered) leave no tag: which one is served is not known
	// here.
	tag  string
	docs int
}

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
// sent (or confirmed) under tag, "" when it sent none. Nil-safe.
func (fi *ForwardInfo) noteDocument(tag string) {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	if fi.docs == 0 {
		fi.tag = tag
	} else if fi.tag != tag {
		fi.tag = ""
	}
	fi.docs++
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
