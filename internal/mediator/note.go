package mediator

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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

// A FetchNote is what one fetch reports besides its document. Whoever asks
// for a fetch makes its note and fetches under it: the note is the fetch's
// context, so it passes through any stack of decorators to the wrapper that
// writes it, and it is the fetch's alone — a fetch made under another
// fetch's context, such as a stacked mediator's part fetch in the same
// process, makes its own note, which hides the outer one.
//
//   - Every note says whether a ReplicaSet answered the fetch with its last
//     known good document (Stale): still valid under the source's DTD, but
//     possibly outdated. The mediator reads it into Provenance.StaleSources
//     (and from there the X-Mix-Stale-Sources response header) and does not
//     cache the part.
//   - A forward's note (NewForwardNote) carries the hop path out: HTTPSource
//     sends it as X-Mix-Forwarded and asks for the view document's runs. It
//     brings back what the peer's answers said: their provenance and the
//     peer's own hop path, so that the forwarding node passes the owner's
//     headers through, and the tag of the document fetched and the lease
//     granted with it, so that the forwarding node answers under the owner's
//     validator and keeps the lease.
type FetchNote struct {
	context.Context
	// rec is what the note records beyond its context: a forward's note has
	// it from the start, a part fetch's only once a stale serve is noted.
	rec atomic.Pointer[noteRecord]
}

// noteRecord is a FetchNote's record. Its answers' part is mutex-guarded
// because a hedged read may have two replica requests in flight; whichever
// responses arrive are recorded (the replicas are DTD-equivalent owners of
// the same view, so either's taxonomy is a truthful account of the answer).
type noteRecord struct {
	stale atomic.Bool
	// hops is the forwarding path up to and including the sending node, fixed
	// before the fetch starts; nil on a part fetch's note.
	hops []string

	mu   sync.Mutex
	prov Provenance
	via  []string
	// tag is the peer's ETag of the one document fetched under the note, and
	// lease the term the peer granted with it. Two documents under different
	// tags (hedged owners both answered) leave neither: which one is served is
	// not known here.
	tag   string
	lease time.Duration
	docs  int
}

// noteKey is the context key of a fetch's note.
type noteKey struct{}

// NewFetchNote returns the note of one fetch under ctx, with no hop path: a
// part fetch's. It is the fetch's context, in one allocation.
func NewFetchNote(ctx context.Context) *FetchNote {
	return &FetchNote{Context: ctx}
}

// NewForwardNote returns the note of one forwarded fetch under ctx; hops is
// the forwarding path up to and including this node. The note and its record
// are one allocation.
func NewForwardNote(ctx context.Context, hops []string) *FetchNote {
	f := &struct {
		note FetchNote
		rec  noteRecord
	}{note: FetchNote{Context: ctx}, rec: noteRecord{hops: hops}}
	f.note.rec.Store(&f.rec)
	return &f.note
}

// NoteFrom returns the note of the fetch ctx is the context of, or nil.
func NoteFrom(ctx context.Context) *FetchNote {
	n, _ := ctx.Value(noteKey{}).(*FetchNote)
	return n
}

// Value answers the note's key with the note, as context.WithValue would.
func (n *FetchNote) Value(key any) any {
	if key == (noteKey{}) {
		return n
	}
	return n.Context.Value(key)
}

// Stale reports whether a ReplicaSet answered the fetch with its last known
// good document.
func (n *FetchNote) Stale() bool {
	r := n.rec.Load()
	return r != nil && r.stale.Load()
}

// markStale notes a last-known-good answer. Nil-safe.
func (n *FetchNote) markStale() {
	if n == nil {
		return
	}
	if n.rec.Load() == nil {
		n.rec.CompareAndSwap(nil, new(noteRecord))
	}
	n.rec.Load().stale.Store(true)
}

// forward returns the record of a forward's note, nil for any other note.
// Nil-safe.
func (n *FetchNote) forward() *noteRecord {
	if n == nil {
		return nil
	}
	if r := n.rec.Load(); r != nil && len(r.hops) > 0 {
		return r
	}
	return nil
}

// record captures the taxonomy headers of one successful peer response.
func (r *noteRecord) record(h http.Header) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prov.FromHeaders(h)
	if v := h.Get(ForwardHeader); v != "" {
		r.via = splitCSV(v)
	}
}

// Fetched records that the fetch returned a document the peer sent (or
// confirmed) under tag, "" when it sent none, granting a lease of the given
// term (0 for none): by HTTPSource for a document it fetched, and by the
// cluster tier for one a lease answered. Only a forward's note records it.
func (n *FetchNote) Fetched(tag string, lease time.Duration) {
	r := n.forward()
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.docs == 0 {
		r.tag, r.lease = tag, lease
	} else if r.tag != tag {
		r.tag, r.lease = "", 0
	}
	r.docs++
	r.mu.Unlock()
}

// leaseOf reads the term a peer's response grants (LeaseHeader), 0 for none.
func leaseOf(h http.Header) time.Duration {
	ms, err := strconv.Atoi(h.Get(LeaseHeader))
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// Lease returns the lease a forward's fetch may install: the tag of the
// document fetched and the term granted with it. A lease hit relays the tag
// and nothing else, so the term is 0 unless the answers noted one document,
// or several under one tag, and no provenance and no relayed hop path — what
// an owner's grant promises.
func (n *FetchNote) Lease() (tag string, term time.Duration) {
	r := n.forward()
	if r == nil {
		return "", 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lease <= 0 || r.prov.Degraded || len(r.via)+len(r.prov.DegradedSources)+len(r.prov.PrunedSources)+len(r.prov.StaleSources) > 0 {
		return "", 0
	}
	return r.tag, r.lease
}

// Provenance returns the union of the recorded peer responses' provenance.
func (n *FetchNote) Provenance() Provenance {
	r := n.forward()
	if r == nil {
		return Provenance{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Provenance{
		Degraded:        r.prov.Degraded,
		DegradedSources: slices.Clone(r.prov.DegradedSources),
		PrunedSources:   slices.Clone(r.prov.PrunedSources),
		StaleSources:    slices.Clone(r.prov.StaleSources),
	}
}

// Tag returns the peer's validator of the document fetched, or "" when there
// is none to relay: the peer sent no ETag, no document was fetched, or more
// than one was, under different tags.
func (n *FetchNote) Tag() string {
	r := n.forward()
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tag
}

// Path returns the hop path a forwarded answer reports: the peer's echo, if
// any response carried one, else the forward's own; nil for any other note.
func (n *FetchNote) Path() []string {
	r := n.forward()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.via) > 0 {
		return slices.Clone(r.via)
	}
	return r.hops
}
