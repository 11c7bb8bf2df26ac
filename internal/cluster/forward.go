package cluster

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dtd"
	"repro/internal/mediator"
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
}

// Forward returns the transport for a view this node does not own,
// building it on first use. Builds are serialized per view; a build that
// could not reach every owner is returned (the reachable owners serve)
// but not cached, so the next request retries the full owner set.
func (n *Node) Forward(ctx context.Context, view string) (*Forward, error) {
	n.mu.Lock()
	slot := n.slots[view]
	if slot == nil {
		slot = &forwardSlot{}
		n.slots[view] = slot
	}
	n.mu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	if f := slot.fwd.Load(); f != nil {
		return f, nil
	}
	f, err := n.buildForward(ctx, view)
	if err != nil {
		n.forwardErrors.Add(1)
		return nil, err
	}
	if f.complete {
		slot.fwd.Store(f)
	}
	return f, nil
}

func (n *Node) buildForward(ctx context.Context, view string) (*Forward, error) {
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
// its validated last-known-good copy.
func (f *Forward) Fetch(ctx context.Context) (*xmlmodel.Document, bool, error) {
	f.node.forwarded.Add(1)
	ctx, stale := mediator.WithStaleNote(ctx)
	doc, err := f.wrapper.Fetch(ctx)
	if err != nil {
		f.node.forwardErrors.Add(1)
	}
	return doc, stale.Load(), err
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

// Status reports per-owner replica health for replicated forwards (nil
// for single-owner forwards, which have no health machinery).
func (f *Forward) Status() []mediator.ReplicaStatus {
	var rep mediator.SourceReport
	rep.Collect(f.wrapper)
	if len(rep.Replicas) == 0 {
		return nil
	}
	return rep.Replicas[0].Replicas
}

// ForwardedViews returns the sorted views with a cached forward — the
// node's live fan-in edges, surfaced in the topology endpoint.
func (n *Node) ForwardedViews() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for v, s := range n.slots {
		if s.fwd.Load() != nil {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
