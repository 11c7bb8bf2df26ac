package cluster

import (
	"slices"
	"sync/atomic"
	"time"
)

// protocol is the lease protocol (Gray & Cheriton, SOSP 1989; DESIGN §5p):
// every decision of it, on the state they are made on, with no transport, no
// clock, no lock and no goroutine. Each method is one event, told the time it
// happens at, and returns what to do; a Node calls it under leaseMu and does
// the I/O (lease.go, forward.go). protocol_test.go explores it exhaustively,
// up to a bound. An owner lends a member its view for one term and takes the
// lease back before it acknowledges an invalidation of the view — renewing it,
// on the view's new tag, in the same message when it can; a forwarder answers
// from the record it holds while a lease on that record's tag runs.
type protocol struct {
	self    string
	members map[string]string // every member of the fleet, self included
	views   map[string]*viewLeases
	names   []string  // the keys of views, sorted
	all     uint64    // the wholesale epoch
	started time.Time // the grace term runs LeaseTerm from here
	// begun counts the revocations begun, acked those acknowledged: in the
	// order they began.
	begun, acked uint64
	// slots are this node's leases on the views it forwards.
	slots map[string]*leaseSlot
}

// viewLeases is what an owner granted of one cluster view.
type viewLeases struct {
	owned   bool
	epoch   uint64
	holders map[string]granted // member → its lease
}

// granted is a lease an owner granted: the end of its term by the owner's
// clock, and the tag of the document it was granted on.
type granted struct {
	until time.Time
	tag   string
}

func newProtocol(cfg Config, views []string, owns func(string) bool, now time.Time) *protocol {
	p := &protocol{self: cfg.Self, members: cfg.Nodes, views: map[string]*viewLeases{}, names: views,
		started: now, slots: map[string]*leaseSlot{}}
	for _, v := range views {
		p.views[v] = &viewLeases{owned: owns(v), holders: map[string]granted{}}
	}
	return p
}

// Offer is what an owner reads before it answers a member's GET
// /views/{name}: who would hold the lease, and the epochs it would be granted
// against.
type Offer struct {
	view, holder string
	all, epoch   uint64
}

// offer is a member's GET of view arriving: ok is false when no lease can be
// granted — the view is not a cluster view, or holder is no other member.
func (p *protocol) offer(view, holder string) (o Offer, ok bool) {
	l := p.views[view]
	if _, member := p.members[holder]; !member || holder == p.self || l == nil {
		return Offer{}, false
	}
	return Offer{view: view, holder: holder, all: p.all, epoch: l.epoch}, true
}

// grant is the answer to o's GET going out under tag ("" for none; degraded
// when its view's inference was): it reports whether the answer carries a
// lease, which it records for LeaseTerm from now.
func (p *protocol) grant(o Offer, tag string, degraded bool, now time.Time) bool {
	l := p.views[o.view]
	if tag == "" || degraded || o.all != p.all || o.epoch != l.epoch {
		return false
	}
	l.holders[o.holder] = granted{until: now.Add(LeaseTerm), tag: tag}
	return true
}

// revocation is one revocation under way: whom to tell, how many of them
// have not yet answered, and the epochs it moved the wholesale one and each
// of its views to — a renewal is granted only while no later revocation
// moved them again.
type revocation struct {
	seq     uint64
	tell    []told
	pending int
	all     uint64
	views   []string
	epochs  []uint64
}

// told is what one holder is told: the views, and the latest end of its
// leases on them — how long a holder that does not answer is waited out. base
// is the tag its lease was granted on when it is told of one view alone, on
// a lease it was granted ("" otherwise: it is told more, or told for the
// start grace alone); renewal is the lease renew grants it with the
// revocation, if any, and delta the body that carries it (Node.renew).
type told struct {
	holder  string
	views   []string
	until   time.Time
	base    string
	renewal renewal
	delta   delta
}

// renewal is a lease an owner grants inside a revocation of one view: the tag
// the holder's lease was granted on, the view's tag now, and how much later
// than the lease it takes back the new one ends. The holder's lease ended no
// later than the owner's record of it, so the new one ends no later than the
// owner's record of the renewal, a term from the start of its read, whatever
// the message's delay: the term runs on the holder's clock from the start of
// the lease it replaces, which began before the owner granted it.
type renewal struct {
	view, base, tag string
	extend          time.Duration
}

func (r *revocation) add(holder, view string, until time.Time, base string) {
	i := slices.IndexFunc(r.tell, func(t told) bool { return t.holder == holder })
	if i < 0 {
		r.tell = append(r.tell, told{holder: holder, base: base})
		i = len(r.tell) - 1
	}
	t := &r.tell[i]
	if !slices.Contains(t.views, view) {
		t.views = append(t.views, view)
	}
	if len(t.views) > 1 {
		t.base = ""
	}
	if until.After(t.until) {
		t.until = until
	}
}

// revoke is an invalidation of views, or of all of them, at now: it moves
// their epochs, forgets their holders and returns whom to tell. Views the
// cluster does not shard were never leased.
func (p *protocol) revoke(all bool, views []string, now time.Time) *revocation {
	r := &revocation{seq: p.begun}
	p.begun++
	if all {
		p.all++
		views = p.names
	}
	r.all = p.all
	grace := p.started.Add(LeaseTerm)
	for _, v := range views {
		l := p.views[v]
		if l == nil {
			continue
		}
		l.epoch++
		r.views, r.epochs = append(r.views, v), append(r.epochs, l.epoch)
		for holder, g := range l.holders {
			if g.until.After(now) {
				r.add(holder, v, g.until, g.tag)
			}
		}
		clear(l.holders)
		if now.Before(grace) && (l.owned || !all) {
			for member := range p.members {
				if member != p.self {
					r.add(member, v, grace, "")
				}
			}
		}
	}
	r.pending = len(r.tell)
	return r
}

// renew is the owner's read of view after r revoked it, begun at read,
// returning the document tag: each holder r tells of view alone, whose lease
// was granted on another version of the document (moved(base, tag): a delta
// leads from the one tag to the other), is granted a lease on tag in the same
// message — recorded as a grant at read (a change the read did not see is
// then visible within a term of it), whose renewal extends the lease the
// holder had by the time between the two grants — unless a revocation begun
// after r moved view's epoch or the wholesale one. A holder whose lease was
// granted on tag itself (a no-op invalidation) keeps it, extended by nothing:
// the renewal has no delta, and the holder may hold a later lease on the same
// tag by the time it arrives — granted after this renewal was decided — which
// any extension would carry past the owner's record of it. A holder granted a lease
// since r revoked it — its GET came while the owner read — holds one r did
// not take: it is not renewed, and its record stands. Nothing is renewed by a
// wholesale revocation.
func (p *protocol) renew(r *revocation, view, tag string, read time.Time, moved func(base, tag string) bool) {
	i := slices.Index(r.views, view)
	l := p.views[view]
	if i < 0 || l == nil || r.epochs[i] != l.epoch || r.all != p.all || tag == "" {
		return
	}
	for j := range r.tell {
		t := &r.tell[j]
		if t.base == "" || t.views[0] != view || (t.base != tag && !moved(t.base, tag)) {
			continue
		}
		if _, ok := l.holders[t.holder]; ok {
			continue
		}
		until := read.Add(LeaseTerm)
		if t.base == tag {
			until = t.until
		}
		l.holders[t.holder] = granted{until: until, tag: tag}
		t.renewal = renewal{view: view, base: t.base, tag: tag, extend: until.Sub(t.until)}
	}
}

// answered is one holder of r having acknowledged, or been waited out to
// the end of its lease.
func (p *protocol) answered(r *revocation) { r.pending-- }

// acknowledged reports whether r's invalidation may be acknowledged — every
// holder it told answered, and every revocation begun before it was
// acknowledged — and if so counts it acknowledged.
func (p *protocol) acknowledged(r *revocation) bool {
	if r.pending > 0 || r.seq != p.acked {
		return false
	}
	p.acked++
	return true
}

// slot is this node's lease slot for view, made on first use.
func (p *protocol) slot(view string) *leaseSlot {
	s := p.slots[view]
	if s == nil {
		s = &leaseSlot{}
		p.slots[view] = s
	}
	return s
}

// revoked is an owner's revocation of views arriving: their leases go, and
// every fetch of them in flight is fenced off. A view with no slot has no
// lease and no fetch in flight. What it returns is what a renewal the
// revocation carries for its one view is installed against (taken.renewed).
func (p *protocol) revoked(views ...string) (t taken) {
	for _, v := range views {
		if s := p.slots[v]; s != nil {
			t = taken{slot: s, epoch: s.epoch.Add(1), lease: s.lease.Swap(nil)}
		}
	}
	return t
}

// taken is the lease a revocation took from a slot, and the epoch it moved the
// slot to.
type taken struct {
	slot  *leaseSlot
	epoch uint64
	lease *heldLease
}

// applies reports whether the renewal rn, carried by the revocation that took
// t, is still the one the owner granted against the lease taken: that lease
// was on rn.base, and no later revocation of the view arrived since. Only
// then is its delta spliced into the record; renewed asks again once it is.
func (t taken) applies(rn renewal) bool {
	return t.slot != nil && t.lease != nil && t.lease.tag == rn.base && t.slot.epoch.Load() == t.epoch
}

// renewed is the renewal rn, carried by the revocation that took t, arriving
// at now with the record it renews spliced in: it installs a lease on rn.tag
// unless it no longer applies, and reports whether it did. The new lease ends
// rn.extend after the one taken, and is not kept if that has passed.
func (t taken) renewed(rn renewal, now time.Time) bool {
	if !t.applies(rn) {
		return false
	}
	expires := t.lease.expires.Add(rn.extend)
	if !now.Before(expires) {
		return false
	}
	t.slot.lease.Store(&heldLease{tag: rn.tag, expires: expires})
	return true
}

// leaseSlot is a forwarder's lease on one view. It outlives a Forward that
// was not kept, so a revocation finds it whether or not a transport is built.
// hit and ask read it without a lock; install and revoked write it under the
// node's leaseMu.
type leaseSlot struct {
	epoch atomic.Uint64 // moves with every revocation
	lease atomic.Pointer[heldLease]
}

// heldLease is a term on a tag: the owner's tag, under which a transport holds
// the document a hit serves, and the end of the term by the forwarder's clock.
type heldLease struct {
	tag     string
	expires time.Time
}

// hit decides a forwarded read at now, where the forwarder holds a record
// under tag: it is answered from that record only while a lease on that very
// tag runs. One atomic load, no lock, no allocation.
func (s *leaseSlot) hit(now time.Time, tag string) bool {
	l := s.lease.Load()
	return l != nil && l.tag == tag && now.Before(l.expires)
}

// asked is what a fetch that asks the owner read before it sent.
type asked struct {
	epoch uint64
	sent  time.Time
}

// ask is a read that was no hit going to the owner at now.
func (s *leaseSlot) ask(now time.Time) asked { return asked{s.epoch.Load(), now} }

// install is the answer to a arriving at now, granted a lease on tag for
// term: the lease runs for the term counted from before a was sent, never
// longer than LeaseTerm, and is kept unless a revocation arrived since or it
// has run out already.
func (s *leaseSlot) install(a asked, tag string, term time.Duration, now time.Time) {
	if expires := a.sent.Add(min(term, LeaseTerm)); s.epoch.Load() == a.epoch && now.Before(expires) {
		s.lease.Store(&heldLease{tag: tag, expires: expires})
	}
}
