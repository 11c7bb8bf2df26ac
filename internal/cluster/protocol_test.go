package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// The lease protocol explored: every interleaving, within a budget of events
// of each kind, of what one owner, two forwarders and two views can see —
// reads, the owner's answers, their grants and their arrival, changes
// announced by an invalidation or by nobody, revocations acknowledged or
// waited out, the renewals they carry granted, applied or refused, a renewal
// arriving after the owner stopped waiting for it or died, the clock, the
// owner's crash and its restart — each decided by
// the very protocol a Node runs (protocol.go), the network and the documents
// around it modelled here. After every event the properties of DESIGN §5p
// are checked; a violation fails the test with the shortest trace that
// reaches one. The owner acknowledges an invalidation as soon as the protocol
// lets it: the earliest acknowledgement is the one later reads are held to
// longest.
//
// The model's forwarder installs whatever lease an answer was granted: that a
// forwarder also refuses one on an answer with anything but its tag to relay
// is mediator.FetchNote's, checked by
// TestForwardLeasesOnlyAnAnswerWithNothingButItsTag. The machine orders
// decisions, not goroutines; that the handlers call it where it says is the
// oracle's hop axis (internal/oracle TestOracleAcrossTheHop).

const (
	tick      = LeaseTerm / 2 // the term is two ticks
	termTicks = int(LeaseTerm / tick)
	maxFetch  = 2 // fetches of one view one forwarder has in flight
)

// budget is how many events of each kind a trace may still have: the bound
// of the exploration, beside its depth. A read, a change (announced by an
// invalidation of its view, or of all, or by nobody), a tick of the clock,
// and a fault — an answer that is not complete, a fetch that asks for no
// lease, or the owner's crash (and a restart after it).
type budget struct{ reads, changes, ticks, faults int8 }

// corners are the budgets explored, each to its end: every trace within one
// of them is, and so every trace with fewer events of each kind. Each known
// bug of the protocol needs no more than one of them.
var corners = []budget{
	{reads: 2, changes: 2, ticks: 1},
	{reads: 2, changes: 1, ticks: 2},
	{reads: 2, changes: 1, ticks: 1, faults: 1},
	{reads: 3, changes: 1},
	{reads: 1, changes: 1, ticks: 2, faults: 1},
}

var (
	forwarder = []string{"b", "c"}
	xviews    = []string{"v", "w"}
	fleet     = Config{Self: "a", Nodes: map[string]string{"a": "", "b": "", "c": ""}}
	epoch0    = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
)

// answer kinds: what an owner's GET of the view answers.
const (
	complete = iota // a tag and nothing else
	untagged        // a part dropped or stale: no tag
	degraded        // the view's inference degraded: a tag, and X-Mix-Degraded
)

var kindName = []string{"complete", "untagged", "degraded"}

// answer is what the owner's GET of view v answers now, of kind k unless the
// owner's views were defined degraded.
func (w *world) answer(v, k int) (kind int, tag string) {
	if w.degraded {
		k = degraded
	}
	if k != untagged {
		tag = w.tag(v)
	}
	return k, tag
}

// record is the document a forwarder's transport holds for a view.
type record struct {
	has      bool
	ver      int
	tag      string
	complete bool
}

// fetch is a forwarded read that asked the owner.
type fetch struct {
	asked    asked
	floor    int // the view's floor when the read began
	stage    int // sent, served, answered
	offer    Offer
	leasable bool
	kind     int // of the answer, and its version and tag
	ver      int
	tag      string
	term     time.Duration // the lease granted with it, if any
}

const (
	sent = iota
	served
	answered
)

// pending is an invalidation the owner has not yet acknowledged. The owner
// reads the view of an invalidation of one view at once, at readAt — tag is
// what the read returned, "" when its views' inference degraded and it renews
// nothing — and renews (decided) when the renew event comes; it tells nobody
// before.
type pending struct {
	r       *revocation
	floor   [2]int    // per view, the version it makes the floor; -1 for none
	msgs    []message // per holder told
	view    int       // the one view it invalidates; -1 for all
	tag     string
	readAt  time.Time
	decided bool
}

// message is a revocation on its way to holder f. One that renews rn (its
// Tag set) reaches the holder in two steps: the holder takes the lease back
// (taken: the slot's epoch and the lease it took, slotted when the view had a
// slot), then splices the delta and installs the renewed lease, and is heard.
// One the owner no longer waits for — waited out, or sent before the owner
// died — may still arrive (world.orphans).
type message struct {
	f       int
	stage   int8
	rn      renewal
	slotted bool
	epoch   uint64
	lease   *heldLease
}

// message stages.
const (
	unsent = iota
	taking
	heard
)

type world struct {
	now   time.Time
	owner *protocol // nil while down
	nonce int
	// degraded says the owner's views were defined with a degraded
	// inference: the one the owner restarted into may be.
	degraded bool
	deadAt   time.Time
	left     budget
	ver      [2]int
	// since[v][k] is when version k of view v stopped being current.
	since [2][3]time.Time
	// floor[v] is the version of v an acknowledged invalidation established.
	floor   [2]int
	fwd     [2]*protocol
	held    [2][2]record
	fetches [2][2][]fetch
	revs    []pending
	orphans []message // renewals on their way that nobody waits for
	acked   []uint64  // the invalidations the last event let the owner acknowledge
	// shared says which of the owner's and the forwarders' protocols this
	// world still shares with the one it was cloned from: a protocol is
	// copied before its first change (own, ownFwd).
	shared [3]bool
}

// own makes the owner's protocol this world's own before it changes.
func (w *world) own() {
	if w.shared[2] && w.owner != nil {
		w.owner, w.shared[2] = w.owner.clone(), false
	}
}

// ownFwd makes forwarder f's protocol this world's own before it changes.
func (w *world) ownFwd(f int) {
	if w.shared[f] {
		w.fwd[f], w.shared[f] = w.fwd[f].clone(), false
	}
}

func member(f int) string { return forwarder[f] }

func newWorld(left budget) *world {
	w := &world{now: epoch0, left: left}
	// The owner has served longer than its start grace: a restart brings it.
	w.owner = newProtocol(fleet, xviews, func(string) bool { return true }, w.now.Add(-LeaseTerm))
	for f := range w.fwd {
		cfg := fleet
		cfg.Self = member(f)
		w.fwd[f] = newProtocol(cfg, xviews, func(string) bool { return false }, w.now)
	}
	return w
}

func (p *protocol) clone() *protocol {
	c := *p
	c.views = make(map[string]*viewLeases, len(p.views))
	for v, l := range p.views {
		cl := *l
		cl.holders = make(map[string]granted, len(l.holders))
		for h, t := range l.holders {
			cl.holders[h] = t
		}
		c.views[v] = &cl
	}
	c.slots = make(map[string]*leaseSlot, len(p.slots))
	for v, s := range p.slots {
		cs := &leaseSlot{}
		cs.epoch.Store(s.epoch.Load())
		cs.lease.Store(s.lease.Load())
		c.slots[v] = cs
	}
	return &c
}

func (w *world) clone() *world {
	c := *w
	c.acked = nil
	c.shared = [3]bool{true, true, true}
	for f := range w.fwd {
		for v := range w.fetches[f] {
			c.fetches[f][v] = slices.Clone(w.fetches[f][v])
		}
	}
	c.revs = make([]pending, len(w.revs))
	for i, p := range w.revs {
		r := *p.r
		r.tell = slices.Clone(p.r.tell)
		c.revs[i] = p
		c.revs[i].r, c.revs[i].msgs = &r, slices.Clone(p.msgs)
	}
	c.orphans = slices.Clone(w.orphans)
	return &c
}

// rel is t relative to now in ticks, clipped to where no decision can tell
// two values apart any more, as a byte.
func (w *world) rel(t time.Time) byte {
	return byte(64 + max(-termTicks-1, min(termTicks+1, int(t.Sub(w.now)/tick))))
}

// key is w up to what no event can tell apart: times relative to now, epochs
// as whether they moved, fetches and holders told in any order, and the two
// forwarders, and the two views, each swapped or not — whichever of the four
// keys is least.
func (w *world) key() string {
	k := w.keyUnder(0, 0)
	for _, sw := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
		k = min(k, w.keyUnder(sw[0], sw[1]))
	}
	return k
}

// keyUnder is w's key with forwarder f in place f^sf and view v in v^sv.
func (w *world) keyUnder(sf, sv int) string {
	b := append(keyBuf[:0], byte(w.left.reads), byte(w.left.changes), byte(w.left.ticks), byte(w.left.faults),
		byte(w.nonce), byte(bit(w.degraded)))
	tag := func(t string) byte { // 0 for none, else 1 + nonce, view, version
		if t == "" {
			return 0
		}
		return byte(1 + int(t[0]-'0')*64 + (slices.Index(xviews, t[1:2])^sv)*16 + int(t[2]-'0'))
	}
	// entries appends items of n bytes each, sorted: there are two at most.
	entries := func(items []byte, n int) {
		if len(items) == 2*n && string(items[:n]) > string(items[n:]) {
			items = append(items[n:], items[:n]...)
		}
		b = append(b, items...)
	}
	for vi := range xviews {
		v := vi ^ sv
		b = append(b, byte(w.ver[v]), byte(w.floor[v]+1))
		for k := 0; k < w.ver[v]; k++ {
			b = append(b, w.rel(w.since[v][k]))
		}
	}
	if w.owner == nil {
		b = append(b, 'd', w.rel(w.deadAt))
	} else {
		b = append(b, 'u', w.rel(w.owner.started.Add(LeaseTerm)))
		for vi := range xviews {
			for fi := range forwarder {
				g := w.owner.views[xviews[vi^sv]].holders[forwarder[fi^sf]]
				b = append(b, w.rel(g.until), tag(g.tag))
			}
		}
	}
	// msg appends message m's bytes: msgBytes of them.
	msg := func(items []byte, m message) []byte {
		moved, lease, expires := byte(0), byte(0), byte(0)
		if s := w.fwd[m.f].slots[m.rn.view]; m.slotted && s != nil {
			moved = byte(1 + bit(s.epoch.Load() != m.epoch))
		}
		if m.lease != nil {
			lease, expires = tag(m.lease.tag), w.rel(m.lease.expires)
		}
		return append(items, byte(m.f^sf), byte(m.stage), tag(m.rn.base), tag(m.rn.tag), byte(m.rn.extend/tick), moved, lease, expires)
	}
	const msgBytes = 8
	var scratch [64]byte
	for _, p := range w.revs {
		view := byte(255)
		if p.view >= 0 {
			view = byte(p.view ^ sv)
		}
		b = append(b, 'r', byte(p.r.seq-w.owner.acked), byte(p.r.pending), byte(p.floor[sv]+1), byte(p.floor[1^sv]+1),
			view, tag(p.tag), w.rel(p.readAt), byte(bit(p.decided)))
		tells := scratch[:0]
		for j, t := range p.r.tell {
			views := 0
			for _, v := range t.views {
				views |= 1 << (slices.Index(xviews, v) ^ sv)
			}
			tells = append(tells, byte(views), w.rel(t.until), tag(t.base))
			tells = msg(tells, p.msgs[j])
		}
		entries(tells, 3+msgBytes)
	}
	orphans := scratch[:0]
	for _, m := range w.orphans {
		orphans = msg(orphans, m)
	}
	if len(orphans) > 2*msgBytes { // entries sorts two: more, in the order they came
		b = append(b, orphans...)
	} else {
		entries(orphans, msgBytes)
	}
	for fi := range w.fwd {
		for vi := range xviews {
			f, v := fi^sf, vi^sv
			rec := w.held[f][v]
			b = append(b, 'f', byte(bit(rec.has)), byte(rec.ver), tag(rec.tag), byte(bit(rec.complete)))
			s := w.fwd[f].slots[xviews[v]]
			if s == nil {
				continue
			}
			// An expired lease counts too: a renewal extends it.
			if l := s.lease.Load(); l != nil {
				b = append(b, 'l', tag(l.tag), w.rel(l.expires))
			}
			fs := scratch[:0]
			for _, fe := range w.fetches[f][v] {
				moved := bit(s.epoch.Load() != fe.asked.epoch)
				if fe.stage == served && fe.leasable {
					moved += 2*bit(fe.offer.all != w.owner.all) + 4*bit(fe.offer.epoch != w.owner.views[xviews[v]].epoch)
				}
				fs = append(fs, byte(moved), w.rel(fe.asked.sent), byte(fe.floor+1), byte(fe.stage),
					byte(bit(fe.leasable)), byte(fe.kind), byte(fe.ver), tag(fe.tag), byte(fe.term/tick))
			}
			entries(fs, 9)
		}
	}
	keyBuf = b
	return string(b)
}

// keyBuf is where keys are made: the exploration runs on one goroutine.
var keyBuf []byte

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// event is one step of the model; its fields say which forwarder, view,
// fetch, invalidation and holder it concerns, as its kind needs.
type event struct {
	kind          string
	f, v, i, j, k int
	flag          bool
	holder        string
}

func (e event) String() string {
	switch e.kind {
	case "tick":
		return "the clock moves one tick"
	case "read":
		return fmt.Sprintf("%s reads %s", member(e.f), xviews[e.v])
	case "serve":
		return fmt.Sprintf("a answers %s's fetch #%d of %s (%s)", member(e.f), e.i, xviews[e.v], kindName[e.k])
	case "respond":
		return fmt.Sprintf("a sends its answer to %s's fetch #%d of %s", member(e.f), e.i, xviews[e.v])
	case "arrive":
		return fmt.Sprintf("%s receives the answer to its fetch #%d of %s", member(e.f), e.i, xviews[e.v])
	case "invalidate":
		switch {
		case e.v < 0:
			return "every view changes, and a is invalidated wholesale"
		case e.flag:
			return fmt.Sprintf("a is invalidated over %s, which did not change", xviews[e.v])
		}
		return fmt.Sprintf("%s changes, and a is invalidated over it", xviews[e.v])
	case "change":
		return fmt.Sprintf("%s changes, unannounced", xviews[e.v])
	case "renew":
		return fmt.Sprintf("a renews the leases invalidation #%d took back", e.i)
	case "tell":
		if e.flag {
			return fmt.Sprintf("%s receives the renewing revocation of invalidation #%d and takes its lease back", e.holder, e.i)
		}
		return fmt.Sprintf("%s revokes for invalidation #%d and a hears it", e.holder, e.i)
	case "install":
		return fmt.Sprintf("%s applies the renewal of invalidation #%d and a hears it", e.holder, e.i)
	case "waitout":
		return fmt.Sprintf("a has waited out %s for invalidation #%d", e.holder, e.i)
	case "late":
		return fmt.Sprintf("%s receives an unheard renewing revocation (#%d) and takes its lease back", member(e.f), e.i)
	case "lateinstall":
		return fmt.Sprintf("%s applies that unheard renewal (#%d)", member(e.f), e.i)
	case "acknowledge":
		return fmt.Sprintf("  and a acknowledges invalidation #%d", e.i)
	case "refetch":
		return fmt.Sprintf("%s's transport fetches %s without asking for a lease", member(e.f), xviews[e.v])
	case "crash":
		return "a crashes"
	case "restart":
		if e.flag {
			return "a starts again, its views' inference degraded"
		}
		return "a starts again"
	}
	return e.kind
}

// events are the events enabled in w; acknowledge is a candidate the
// protocol itself decides.
func (w *world) events() []event {
	var es []event
	if w.left.ticks > 0 {
		es = append(es, event{kind: "tick"})
	}
	for f := range w.fwd {
		for v := range xviews {
			if w.left.reads > 0 {
				es = append(es, event{kind: "read", f: f, v: v})
			}
			if w.left.faults > 0 && w.owner != nil {
				es = append(es, event{kind: "refetch", f: f, v: v})
			}
			for i, fe := range w.fetches[f][v] {
				switch {
				case fe.stage == sent && w.owner != nil:
					es = append(es, event{kind: "serve", f: f, v: v, i: i, k: complete})
					if w.left.faults > 0 && !w.degraded {
						es = append(es, event{kind: "serve", f: f, v: v, i: i, k: untagged})
					}
				case fe.stage == served:
					es = append(es, event{kind: "respond", f: f, v: v, i: i})
				case fe.stage == answered:
					es = append(es, event{kind: "arrive", f: f, v: v, i: i})
				}
			}
		}
	}
	if w.left.changes > 0 {
		for v := -1; v < len(xviews); v++ {
			if w.owner != nil {
				es = append(es, event{kind: "invalidate", v: v})
				if v >= 0 {
					es = append(es, event{kind: "invalidate", v: v, flag: true})
				}
			}
			if v >= 0 {
				es = append(es, event{kind: "change", v: v})
			}
		}
	}
	for i, p := range w.revs {
		if !p.decided {
			es = append(es, event{kind: "renew", i: i})
			continue
		}
		for j, t := range p.r.tell {
			switch m := p.msgs[j]; m.stage {
			case unsent:
				es = append(es, event{kind: "tell", i: i, j: j, holder: t.holder, flag: m.rn.tag != ""})
			case taking:
				es = append(es, event{kind: "install", i: i, j: j, holder: t.holder})
			}
			if p.msgs[j].stage != heard && !w.now.Before(t.until) {
				es = append(es, event{kind: "waitout", i: i, j: j, holder: t.holder})
			}
		}
	}
	for k, m := range w.orphans {
		kind := "late"
		if m.stage == taking {
			kind = "lateinstall"
		}
		es = append(es, event{kind: kind, i: k, f: m.f})
	}
	if w.owner != nil && w.left.faults > 0 {
		es = append(es, event{kind: "crash"})
	} else if w.owner == nil && w.nonce == 0 {
		es = append(es, event{kind: "restart"}, event{kind: "restart", flag: true})
	}
	return es
}

// tag is view v's tag now: the owner's incarnation, the view, the version.
func (w *world) tag(v int) string { return fmt.Sprintf("%d%s%d", w.nonce, xviews[v], w.ver[v]) }

// movedTag reports whether tag is another version of the document base
// tagged — of the same incarnation and view — as protocol.renew asks.
func movedTag(base, tag string) bool { return base != tag && base[:2] == tag[:2] }

func (w *world) bump(v int) {
	w.since[v][w.ver[v]] = w.now
	w.ver[v]++
}

// apply runs e on w: ok is false when the protocol refused it, and err names
// the property it broke.
func (w *world) apply(e event) (ok bool, err error) {
	switch e.kind {
	case "tick":
		w.now = w.now.Add(tick)
		w.left.ticks--
	case "read":
		w.left.reads--
		w.ownFwd(e.f)
		slot, rec := w.fwd[e.f].slot(xviews[e.v]), w.held[e.f][e.v]
		if rec.has && slot.hit(w.now, rec.tag) {
			return true, w.hit(e.f, e.v, slot, rec)
		}
		if len(w.fetches[e.f][e.v]) == maxFetch {
			return false, nil
		}
		w.fetches[e.f][e.v] = append(w.fetches[e.f][e.v], fetch{asked: slot.ask(w.now), floor: w.floor[e.v]})
	case "serve":
		fe := &w.fetches[e.f][e.v][e.i]
		fe.offer, fe.leasable = w.owner.offer(xviews[e.v], member(e.f))
		fe.stage, fe.ver = served, w.ver[e.v]
		fe.kind, fe.tag = w.answer(e.v, e.k)
		if e.k != complete {
			w.left.faults--
		}
	case "refetch":
		w.left.faults--
		kind, tag := w.answer(e.v, complete)
		w.held[e.f][e.v] = record{has: true, ver: w.ver[e.v], tag: tag, complete: kind == complete}
	case "respond":
		fe := &w.fetches[e.f][e.v][e.i]
		w.own()
		if fe.leasable && w.owner.grant(fe.offer, fe.tag, fe.kind == degraded, w.now) {
			fe.term = LeaseTerm
		}
		fe.stage = answered
	case "arrive":
		fe := w.fetches[e.f][e.v][e.i]
		w.fetches[e.f][e.v] = slices.Delete(w.fetches[e.f][e.v], e.i, e.i+1)
		w.held[e.f][e.v] = record{has: true, ver: fe.ver, tag: fe.tag, complete: fe.kind == complete}
		if fe.term > 0 {
			w.ownFwd(e.f)
			w.fwd[e.f].slot(xviews[e.v]).install(fe.asked, fe.tag, fe.term, w.now)
		}
		if fe.ver < fe.floor {
			return true, fmt.Errorf("(a) %s's read of %s began after version %d was acknowledged and returned version %d", member(e.f), xviews[e.v], fe.floor, fe.ver)
		}
	case "invalidate":
		w.left.changes--
		p := pending{floor: [2]int{-1, -1}, view: e.v, decided: e.v < 0}
		var views []string
		for v := range xviews {
			if e.v < 0 || e.v == v {
				if !e.flag {
					w.bump(v)
				}
				views = append(views, xviews[v])
				p.floor[v] = w.ver[v]
			}
		}
		if e.v < 0 {
			views = nil
		}
		w.own()
		p.r = w.owner.revoke(e.v < 0, views, w.now)
		p.msgs = make([]message, len(p.r.tell))
		for j, t := range p.r.tell {
			p.msgs[j].f = slices.Index(forwarder, t.holder)
		}
		if e.v >= 0 && !w.degraded {
			p.tag, p.readAt = w.tag(e.v), w.now
		}
		w.revs = append(w.revs, p)
	case "renew":
		p := &w.revs[e.i]
		if p.tag != "" {
			w.own()
			w.owner.renew(p.r, xviews[p.view], p.tag, p.readAt, movedTag)
		}
		for j := range p.msgs {
			p.msgs[j].rn = p.r.tell[j].renewal
		}
		p.decided = true
	case "change":
		w.left.changes--
		w.bump(e.v)
	case "tell":
		p := &w.revs[e.i]
		m := &p.msgs[e.j]
		if m.rn.tag != "" {
			w.take(m)
			break
		}
		w.ownFwd(m.f)
		w.fwd[m.f].revoked(p.r.tell[e.j].views...)
		w.owner.answered(p.r)
		m.stage = heard
	case "install":
		p := &w.revs[e.i]
		w.renewAt(p.msgs[e.j])
		w.owner.answered(p.r)
		p.msgs[e.j].stage = heard
	case "waitout":
		p := &w.revs[e.i]
		if m := p.msgs[e.j]; m.rn.tag != "" {
			w.orphans = append(w.orphans, m)
		}
		w.owner.answered(p.r)
		p.msgs[e.j].stage = heard
	case "late":
		w.take(&w.orphans[e.i])
	case "lateinstall":
		w.renewAt(w.orphans[e.i])
		w.orphans = slices.Delete(w.orphans, e.i, e.i+1)
	case "crash":
		w.left.faults--
		for _, p := range w.revs {
			for _, m := range p.msgs {
				if p.decided && m.rn.tag != "" && m.stage != heard {
					w.orphans = append(w.orphans, m)
				}
			}
		}
		w.owner, w.deadAt, w.revs = nil, w.now, nil
		for f := range w.fetches {
			for v := range w.fetches[f] {
				w.fetches[f][v] = slices.DeleteFunc(w.fetches[f][v], func(fe fetch) bool { return fe.stage != answered })
			}
		}
	case "restart":
		w.nonce, w.degraded = w.nonce+1, e.flag
		w.owner, w.shared[2] = newProtocol(fleet, xviews, func(string) bool { return true }, w.now), false
	}
	if err := w.acknowledge(); err != nil {
		return true, err
	}
	return true, w.bounded()
}

// bounded checks (f): a lease a forwarder holds, while it runs, ends no later
// than what the owner knows of it — its record of the holder's lease, the
// lease a revocation took from that record and still waits to hear about, or
// its start grace, which covers every lease its previous incarnation granted
// — and, while the owner is down, a term after it died. (a) and (c) stand on
// it: a holder the owner did not wait for holds no running lease.
func (w *world) bounded() error {
	for f := range w.fwd {
		for _, view := range xviews {
			s := w.fwd[f].slots[view]
			if s == nil {
				continue
			}
			l := s.lease.Load()
			if l == nil || !w.now.Before(l.expires) {
				continue
			}
			bound := w.deadAt.Add(LeaseTerm)
			if w.owner != nil {
				bound = w.owner.started.Add(LeaseTerm)
				if g := w.owner.views[view].holders[member(f)]; g.until.After(bound) {
					bound = g.until
				}
				for _, p := range w.revs {
					for j, t := range p.r.tell {
						if t.holder == member(f) && p.msgs[j].stage != heard && slices.Contains(t.views, view) && t.until.After(bound) {
							bound = t.until
						}
					}
				}
			}
			if l.expires.After(bound) {
				return fmt.Errorf("(f) %s's lease on %s ends %v after the owner's record of it", member(f), view, l.expires.Sub(bound))
			}
		}
	}
	return nil
}

// take is renewing revocation m reaching its holder: the lease goes, as the
// protocol says, and what it took is kept for the renewal.
func (w *world) take(m *message) {
	w.ownFwd(m.f)
	t := w.fwd[m.f].revoked(m.rn.view)
	m.stage, m.slotted, m.epoch, m.lease = taking, t.slot != nil, t.epoch, t.lease
}

// renewAt is the holder of m, which took its lease back, applying the renewal:
// the delta splices only into a record held under the renewal's base (the
// transport's check) while the renewal applies to the lease taken, and the
// lease is the protocol's to install.
func (w *world) renewAt(m message) {
	v := slices.Index(xviews, m.rn.view)
	rec := &w.held[m.f][v]
	if !m.slotted || !rec.has || rec.tag != m.rn.base {
		return
	}
	w.ownFwd(m.f)
	t := taken{slot: w.fwd[m.f].slots[m.rn.view], epoch: m.epoch, lease: m.lease}
	if !t.applies(m.rn) {
		return
	}
	*rec = record{has: true, ver: int(m.rn.tag[2] - '0'), tag: m.rn.tag, complete: true}
	t.renewed(m.rn, w.now)
}

// acknowledge answers every invalidation the protocol lets the owner
// acknowledge, as soon as it does — the floor of what later reads may return
// rises at the earliest moment — and notes them in acked.
func (w *world) acknowledge() error {
	if len(w.revs) > 0 {
		w.own()
	}
	for i := 0; i < len(w.revs); i++ {
		p := w.revs[i]
		if !w.owner.acknowledged(p.r) {
			continue
		}
		w.revs = slices.Delete(w.revs, i, i+1)
		w.acked = append(w.acked, p.r.seq)
		for v, fl := range p.floor {
			w.floor[v] = max(w.floor[v], fl)
		}
		for _, q := range w.revs {
			if q.r.seq < p.r.seq && (q.floor[0] >= 0 && p.floor[0] >= 0 || q.floor[1] >= 0 && p.floor[1] >= 0) {
				return fmt.Errorf("(e) invalidation #%d was acknowledged before #%d, begun earlier over the same view", p.r.seq, q.r.seq)
			}
		}
		i = -1
	}
	return nil
}

// hit checks a read answered from rec under slot's lease against every
// property a hit must keep.
func (w *world) hit(f, v int, slot *leaseSlot, rec record) error {
	who := fmt.Sprintf("%s's hit on %s", member(f), xviews[v])
	l := slot.lease.Load()
	switch {
	case l == nil || l.tag != rec.tag || rec.tag == "" || !rec.complete:
		lease := "no lease"
		if l != nil {
			lease = fmt.Sprintf("a lease on %q", l.tag)
		}
		return fmt.Errorf("(b) %s served the record held under %q (complete %v) on %s", who, rec.tag, rec.complete, lease)
	case rec.ver < w.floor[v]:
		return fmt.Errorf("(a) %s returned version %d after version %d was acknowledged", who, rec.ver, w.floor[v])
	case rec.ver < w.ver[v] && w.now.Sub(w.since[v][rec.ver]) >= LeaseTerm:
		return fmt.Errorf("(c) %s returned version %d a term after version %d replaced it", who, rec.ver, rec.ver+1)
	case w.owner == nil && w.now.Sub(w.deadAt) >= LeaseTerm:
		return fmt.Errorf("(d) %s answered a term after its owner died", who)
	}
	return nil
}

// explorer is a depth-first search over the model's states. It visits each
// state once; once it found a violation it searches again, revisiting a state
// reached in fewer steps than before, only below the trace it has, until no
// shorter one is left.
type explorer struct {
	bound    int
	shortest bool
	seen     map[string]int
	trace    []event
	found    []event
	err      error
	depth    int
}

// maxStates stops a model grown past what the test can afford.
const maxStates = 1 << 21

func (x *explorer) explore(w *world, depth int) {
	k := w.key()
	if d, ok := x.seen[k]; ok && (!x.shortest || d <= depth) {
		return
	}
	if len(x.seen) >= maxStates {
		panic(fmt.Sprintf("the model has more than %d states", maxStates))
	}
	x.seen[k], x.depth = depth, max(x.depth, depth)
	if depth == x.bound || x.found != nil && depth+1 >= len(x.found) {
		return
	}
	for _, e := range w.events() {
		next := w.clone()
		ok, err := next.apply(e)
		if !ok {
			continue
		}
		n := len(x.trace)
		x.trace = append(x.trace, e)
		for _, seq := range next.acked {
			x.trace = append(x.trace, event{kind: "acknowledge", i: int(seq)})
		}
		if err != nil {
			if x.found == nil || len(x.trace) < len(x.found) {
				x.found, x.err = slices.Clone(x.trace), err
			}
		} else {
			x.explore(next, depth+1)
		}
		x.trace = x.trace[:n]
	}
}

// exploreDepth bounds the exploration's depth; the corners' budgets bound
// it first.
const exploreDepth = 24

func TestLeaseProtocolExplored(t *testing.T) {
	for _, c := range corners {
		start := time.Now()
		x := &explorer{bound: exploreDepth, seen: map[string]int{}}
		x.explore(newWorld(c), 0)
		t.Logf("budget %+v: %d states, depth %d, %v", c, len(x.seen), x.depth, time.Since(start).Round(time.Millisecond))
		if x.found == nil {
			continue
		}
		for n := len(x.found); ; n = len(x.found) {
			y := &explorer{bound: n - 1, shortest: true, seen: map[string]int{}, found: x.found, err: x.err}
			y.explore(newWorld(c), 0)
			if x = y; len(x.found) == n {
				break
			}
		}
		var b strings.Builder
		for i, e := range x.found {
			fmt.Fprintf(&b, "\n  %2d. %s", i+1, e)
		}
		t.Fatalf("%v, after %d events:%s", x.err, len(x.found), b.String())
	}
}
