package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/automata/cache"
	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/xmlmodel"
)

// Forward is the transport to a view's owners: the peer mediators wrapped
// as sources. A single owner is one HTTPSource (streaming validation,
// bounded retries, shared retry budget); a replicated view's owners are
// wrapped in a ReplicaSet, so a node failure degrades exactly like a
// replica failure does on the source side — health tracking ejects the
// dead owner, hedged reads race the slow one, and last-known-good stale
// serving covers the window where every owner is down.
type Forward struct {
	node   *Node
	view   string
	owners []string
	// wrapper is the fetch path: the lone *HTTPSource, or the ReplicaSet
	// over all of them.
	wrapper mediator.Wrapper
	// sources are the per-owner transports, for raw sibling-endpoint
	// pass-through (GetPath) and for the verbatim DTD text.
	sources []*mediator.HTTPSource
	// complete records whether every owner answered at build time; an
	// incomplete Forward is served but not cached, so the missing owners
	// are retried on the next request.
	complete bool
	// lease is the view's lease slot (protocol.go).
	lease *leaseSlot
}

// Forward returns the transport for a view this node does not own, building
// it on first use: a burst of first requests shares one build, a
// cache.Flight, whose failure is theirs too unless the builder's own ctx
// ended. A build that could not reach every owner is returned (the reachable
// owners serve) but not kept, so the next request retries the full owner set.
func (n *Node) Forward(ctx context.Context, view string) (f *Forward, err error) {
	for redo := true; redo; {
		n.mu.Lock()
		slot := n.slots[view]
		if slot == nil {
			n.leaseMu.Lock()
			slot = &forwardSlot{lease: n.lease.slot(view)}
			n.leaseMu.Unlock()
			n.slots[view] = slot
		}
		b, lead := slot.build, slot.build == nil
		if lead {
			b = new(cache.Flight[*Forward]).Start()
			slot.build = b
		}
		n.mu.Unlock()
		if !lead {
			f, err, redo = b.Wait(ctx) // redo: the builder gave up
			continue
		}
		f, err = b.Run(&n.mu, func() (*Forward, error) { return n.buildForward(ctx, view, slot) },
			func(f *Forward, err error) bool {
				if err != nil || !f.complete {
					slot.build = nil
				}
				return err != nil && ctx.Err() != nil
			})
		break
	}
	if err != nil {
		n.forwardErrors.Add(1)
	}
	return f, err
}

func (n *Node) buildForward(ctx context.Context, view string, slot *forwardSlot) (*Forward, error) {
	owners := n.Owners(view)
	var peers []string
	for _, o := range owners {
		if o != n.cfg.Self {
			peers = append(peers, o)
		}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: view %q has no owner other than this node", view)
	}
	replicated := len(peers) > 1
	var sources []*mediator.HTTPSource
	var buildErr error
	for _, o := range peers {
		opts := []mediator.HTTPOption{}
		if n.cfg.Budget != nil {
			opts = append(opts, mediator.WithRetryBudget(n.cfg.Budget))
		}
		if replicated {
			// The ReplicaSet owns failover between owners; per-transport
			// retries on top of it would multiply attempts against a node
			// the health tracker is trying to eject.
			opts = append(opts, mediator.WithRetries(0))
		}
		src, err := mediator.NewHTTPSourceContext(ctx, n.client, n.cfg.Nodes[o], view, opts...)
		if err != nil {
			buildErr = fmt.Errorf("cluster: owner %s of view %q unreachable: %w", o, view, err)
			continue
		}
		sources = append(sources, src)
	}
	if len(sources) == 0 {
		return nil, buildErr
	}
	f := &Forward{
		node:     n,
		view:     view,
		owners:   owners,
		sources:  sources,
		complete: len(sources) == len(peers),
		lease:    slot.lease,
	}
	if len(sources) == 1 {
		f.wrapper = sources[0]
	} else {
		replicas := make([]mediator.Wrapper, len(sources))
		for i, s := range sources {
			replicas[i] = s
		}
		rs, err := mediator.NewReplicaSet("cluster:"+view, replicas, mediator.ReplicaSetOptions{
			Budget: n.cfg.Budget,
		})
		if err != nil {
			// Owners of one view disagree on its DTD: a split-brain
			// deployment, not a transient fault — refuse to average it.
			return nil, fmt.Errorf("cluster: view %q owners disagree: %w", view, err)
		}
		f.wrapper = rs
	}
	return f, nil
}

// View returns the forwarded view's name.
func (f *Forward) View() string { return f.view }

// Owners returns the view's owner set (this node excluded from fetches).
func (f *Forward) Owners() []string { return append([]string(nil), f.owners...) }

// SourceName is the name the forward's transport reports in stale/
// degraded headers ("cluster:view" for replicated views, the owner's view
// URL otherwise).
func (f *Forward) SourceName() string { return f.wrapper.Name() }

// Schema returns the owner-inferred view DTD.
func (f *Forward) Schema() *dtd.DTD { return f.wrapper.Schema() }

// SchemaText returns the view DTD exactly as an owner served it, for
// bit-identical pass-through of DTD endpoints.
func (f *Forward) SchemaText() string { return f.sources[0].SchemaText() }

// Fetch retrieves the owner-materialized view document. The returned bool
// reports stale service: every owner was down and the ReplicaSet served
// its validated last-known-good copy. Each transport holds the document it
// fetched last as its owner's runs, each with its picks memo
// (mediator.HTTPSource.Answer): the forwarder's one copy of it.
//
// A lease hit (leaseSlot.hit) asks nobody: it returns the document a
// transport holds under the lease's tag and notes that tag on the fetch's
// note (mediator.FetchNote) — equal tags mean byte-equal documents. Otherwise
// Fetch asks the owner and installs the lease its note says the answer was
// granted. The root span says which: forward_fetch=leased, not_modified (a
// document a transport held), delta (the runs that moved, spliced into it) or
// changed. A fetch under a context with no note is noted on a note of its
// own, which keeps no lease.
func (f *Forward) Fetch(ctx context.Context) (*xmlmodel.Document, bool, error) {
	n := f.node
	n.forwarded.Add(1)
	note := mediator.NoteFrom(ctx)
	if note == nil {
		note = mediator.NewFetchNote(ctx)
		ctx = note
	}
	now := n.now()
	var buf [4]*xmlmodel.Document // a view of more owners makes it on the heap
	before := buf[:0]
	for _, s := range f.sources {
		doc, tag, _ := s.Held()
		if doc != nil && f.lease.hit(now, tag) {
			n.leaseHits.Add(1)
			note.Fetched(tag, 0)
			obs.SetAttr(ctx, obs.String("forward_fetch", "leased"))
			return doc, false, nil
		}
		before = append(before, doc)
	}
	asked := f.lease.ask(now)
	doc, err := f.wrapper.Fetch(ctx)
	if err != nil {
		n.forwardErrors.Add(1)
		return nil, false, err
	}
	fetched := "not_modified"
	if !slices.Contains(before, doc) {
		fetched = "changed"
		for _, s := range f.sources {
			if held, _, spliced := s.Held(); held == doc && spliced {
				fetched = "delta"
			}
		}
	}
	obs.SetAttr(ctx, obs.String("forward_fetch", fetched))
	if note.Stale() {
		return doc, true, nil
	}
	if tag, term := note.Lease(); term > 0 {
		n.leaseMu.Lock()
		f.lease.install(asked, tag, term, n.now())
		n.leaseMu.Unlock()
	}
	return doc, false, nil
}

// Answer is p's answer over doc, a document Fetch returned, from the runs and
// memos of the transport that holds it (mediator.HTTPSource.Answer); any
// other document is walked whole. how says whether any of doc was walked
// ("evaluated") and how the answer goes out.
func (f *Forward) Answer(p *mediator.Plan, doc *xmlmodel.Document) (a mediator.Answer, how string, err error) {
	src := f.sources[0]
	for _, s := range f.sources[1:] {
		if held, _, _ := s.Held(); held == doc {
			src = s
		}
	}
	a, how, err = src.Answer(p, doc)
	if how == "evaluated" {
		f.node.answersEvaluated.Add(1)
	} else if err == nil {
		f.node.answersReused.Add(1)
	}
	return a, how, err
}

// GetPath passes a sibling endpoint of the view (e.g. "/sdtd") through to
// an owner, trying each transport in order — the raw escape hatch for
// payloads the forwarding node cannot reconstruct locally.
func (f *Forward) GetPath(ctx context.Context, suffix string) (string, error) {
	var lastErr error
	for _, s := range f.sources {
		body, err := s.GetPath(ctx, suffix)
		if err == nil {
			return body, nil
		}
		lastErr = err
	}
	f.node.forwardErrors.Add(1)
	return "", lastErr
}

// landed is view's landed forward, nil before one landed.
func (n *Node) landed(view string) *Forward {
	n.mu.Lock()
	defer n.mu.Unlock()
	if slot := n.slots[view]; slot != nil {
		if f, ok := slot.build.Landed(); ok {
			return f
		}
	}
	return nil
}

// splice splices the delta of a renewal fr into the record of the transport
// that holds the document tagged base (mediator.HTTPSource.Renew), and
// reports whether it did.
func (f *Forward) splice(base string, fr *Frame) bool {
	for _, s := range f.sources {
		if _, tag, _ := s.Held(); tag == base {
			return s.Renew(fr.Tag, fr.Base, fr.Runs, fr.Delta) == nil
		}
	}
	return false
}

// ForwardedViews returns the sorted views with a cached forward — the
// node's live fan-in edges, surfaced in the topology endpoint.
func (n *Node) ForwardedViews() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for v, s := range n.slots {
		if _, ok := s.build.Landed(); ok {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
