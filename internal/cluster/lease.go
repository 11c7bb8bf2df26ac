package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// An owner lends a member its view document for one term (a lease, Gray &
// Cheriton, SOSP 1989) and takes it back before it acknowledges an
// invalidation of the view. While the lease runs the member answers the view
// from the document it holds without asking: the owner itself serves its
// slots until a POST /invalidate, so a forwarded read that asked would only
// have been told what the lease already says.
//
// Owner side (grants): a member's GET /views/{name} reads an Offer before the
// document is answered and Grants it after. A grant goes only on a complete,
// live answer — one with a tag, 200 or 304 — to a configured member named
// last in X-Mix-Forwarded; the serve layer decides the first, Offer the
// second. Every revocation of a view moves the view's epoch (a wholesale one
// moves every view's), and Grant refuses an Offer whose epochs moved: an
// answer computed before an invalidation is never leased after it.
// Revoke/RevokeAll run under one node-wide lock, so a revocation that finds
// no holders does not return while an earlier one is still telling them; each
// holder is told with POST /cluster/revoke and, if it does not acknowledge,
// waited out to the end of its lease.
//
// Forwarder side (forwardSlot): Forward.Fetch reads the slot's epoch and the
// clock before it sends, and installs the lease its answer grants only if no
// revocation arrived meanwhile. The term counts from before the send, the
// owner's from the grant, so the forwarder's lease always ends first.
//
// A node does not know what its previous incarnation granted: for one term
// after it starts it treats every member as holding a lease on every view it
// owns.

// LeaseTerm is how long a lease lasts. Not an option: a fleet's members must
// agree on it, and a second is what a changed document may take to reach a
// forwarder when no invalidation announced it.
const LeaseTerm = time.Second

// RevokePath is the route a lease holder acknowledges revocations on.
const RevokePath = "/cluster/revoke"

// Revocation is the body of a POST /cluster/revoke: the views whose leases
// the owner takes back.
type Revocation struct {
	Views []string `json:"views"`
}

// Offer is what an owner reads before it answers a member's GET
// /views/{name}: who would hold the lease, and the revocation epochs it would
// be granted against.
type Offer struct {
	view, holder string
	all, epoch   uint64
}

// grants is the owner's record of the leases it gave.
type grants struct {
	mu sync.Mutex
	// all moves with every wholesale revocation, views[v].epoch with every
	// revocation of v.
	all   uint64
	views map[string]*viewGrants
	// revoking orders the node's revocations: held from the epochs' move to
	// the last holder's acknowledgement.
	revoking sync.Mutex
}

type viewGrants struct {
	epoch uint64
	// holders maps a member to the end of its lease, by the owner's clock.
	holders map[string]time.Time
}

// heldLease is a forwarder's lease, a term on a tag: the owner's tag, under
// which a transport holds the document a hit serves (Forward.Fetch), and the
// end of the term by the forwarder's clock.
type heldLease struct {
	tag     string
	expires time.Time
}

// leased returns the slot's lease if it runs at now, else nil.
func (s *forwardSlot) leased(now time.Time) *heldLease {
	if l := s.lease.Load(); l != nil && now.Before(l.expires) {
		return l
	}
	return nil
}

// install keeps l unless a revocation arrived since epoch was read.
func (s *forwardSlot) install(epoch uint64, l *heldLease) {
	s.leaseMu.Lock()
	if s.epoch.Load() == epoch {
		s.lease.Store(l)
	}
	s.leaseMu.Unlock()
}

// revoke drops the lease and fences every fetch in flight.
func (s *forwardSlot) revoke() {
	s.leaseMu.Lock()
	s.epoch.Add(1)
	s.lease.Store(nil)
	s.leaseMu.Unlock()
}

// Revoked takes back this node's leases on views, as an owner asked; the
// caller acknowledges once it returns. A view with no slot has no lease and
// no fetch in flight.
func (n *Node) Revoked(views ...string) {
	for _, v := range views {
		n.mu.Lock()
		slot := n.slots[v]
		n.mu.Unlock()
		if slot != nil {
			slot.revoke()
		}
	}
}

// Offer reads what a lease on view would be granted against, for a request
// whose X-Mix-Forwarded header is hops. ok is false when no lease can be
// granted: the view is not a cluster view, or the request is not a
// member's — a client's, this node's own, or an unknown name's.
func (n *Node) Offer(view, hops string) (o Offer, ok bool) {
	holder := strings.TrimSpace(hops[strings.LastIndexByte(hops, ',')+1:])
	if _, member := n.cfg.Nodes[holder]; !member || holder == n.cfg.Self || !n.Knows(view) {
		return Offer{}, false
	}
	n.grants.mu.Lock()
	defer n.grants.mu.Unlock()
	o = Offer{view: view, holder: holder, all: n.grants.all}
	if g := n.grants.views[view]; g != nil {
		o.epoch = g.epoch
	}
	return o, true
}

// Grant records o's lease, for LeaseTerm from now, unless a revocation of its
// view moved an epoch since Offer read them; it reports whether it did.
func (n *Node) Grant(o Offer) bool {
	n.grants.mu.Lock()
	defer n.grants.mu.Unlock()
	g := n.grants.views[o.view]
	if o.all != n.grants.all || g != nil && g.epoch != o.epoch {
		return false
	}
	if g == nil {
		g = &viewGrants{holders: map[string]time.Time{}}
		n.grants.views[o.view] = g
	}
	g.holders[o.holder] = n.now().Add(LeaseTerm)
	n.leasesGranted.Add(1)
	return true
}

// Revoke takes back every lease on views and returns once each holder has
// acknowledged or its lease has run out: an owner answers an invalidation of
// views only after Revoke returned. It runs to its end whatever becomes of
// ctx — the next revocation waits on it.
func (n *Node) Revoke(ctx context.Context, views ...string) { n.revoke(ctx, false, views) }

// RevokeAll is Revoke of every view, for a wholesale invalidation.
func (n *Node) RevokeAll(ctx context.Context) { n.revoke(ctx, true, nil) }

// told is what one holder is told: the views, and the latest end of its
// leases on them.
type told struct {
	views []string
	until time.Time
}

func (n *Node) revoke(ctx context.Context, all bool, views []string) {
	ctx = context.WithoutCancel(ctx)
	n.grants.revoking.Lock()
	defer n.grants.revoking.Unlock()
	now := n.now()
	tell := map[string]*told{}
	add := func(holder, view string, until time.Time) {
		t := tell[holder]
		if t == nil {
			t = &told{}
			tell[holder] = t
		}
		if !slices.Contains(t.views, view) {
			t.views = append(t.views, view)
		}
		if until.After(t.until) {
			t.until = until
		}
	}

	n.grants.mu.Lock()
	if all {
		n.grants.all++
		views = slices.Collect(maps.Keys(n.grants.views))
	}
	for _, v := range views {
		if !n.Knows(v) {
			continue // not a cluster view: never leased
		}
		g := n.grants.views[v]
		if g == nil {
			g = &viewGrants{holders: map[string]time.Time{}}
			n.grants.views[v] = g
		}
		g.epoch++
		for holder, until := range g.holders {
			if until.After(now) {
				add(holder, v, until)
			}
		}
		clear(g.holders)
	}
	n.grants.mu.Unlock()

	if graceEnd := n.started.Add(LeaseTerm); now.Before(graceEnd) {
		owned := views
		if all {
			owned = n.OwnedViews()
		}
		for member := range n.cfg.Nodes {
			if member == n.cfg.Self {
				continue
			}
			for _, v := range owned {
				if n.Knows(v) {
					add(member, v, graceEnd)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for holder, t := range tell {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.revocationsSent.Add(1)
			if n.sendRevocation(ctx, holder, t) != nil {
				n.revocationsWaitedOut.Add(1)
				if d := t.until.Sub(n.now()); d > 0 {
					n.sleep(d)
				}
			}
		}()
	}
	wg.Wait()
}

// sendRevocation tells holder its leases on t.views are taken back. It gives
// up when the leases would have run out anyway.
func (n *Node) sendRevocation(ctx context.Context, holder string, t *told) error {
	ctx, cancel := context.WithTimeout(ctx, t.until.Sub(n.now()))
	defer cancel()
	body, err := json.Marshal(Revocation{Views: t.views})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.cfg.Nodes[holder]+RevokePath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: %s did not acknowledge the revocation: %s", holder, resp.Status)
	}
	return nil
}
