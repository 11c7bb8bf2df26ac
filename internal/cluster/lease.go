package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/url"
	"slices"
	"strings"
	"time"

	"repro/internal/mediator"
)

// LeaseTerm is how long a lease lasts. Not an option: a fleet's members must
// agree on it, and a second is what a changed document may take to reach a
// forwarder when no invalidation announced it.
const LeaseTerm = time.Second

// RevokePath is the route a lease holder acknowledges revocations on.
//
// A revocation is one wire format: a Frame on the stream its owner holds open
// to the holder, a POST RevokePath whose request body carries the owner's
// frames and whose response body the holder's acknowledgements, one per
// frame, each naming its frame's sequence number. A frame names the views
// whose leases the owner takes back. It may renew the lease on its one view
// in the same message (renewal): then it carries the delta a 226 would bring
// a fetch of the view against the tag the lease was granted on — the runs of
// the parts that moved — with that answer's ETag, Delta-Base and
// mediator.RunsHeader, and, in milliseconds, how much later than the lease
// taken back the renewed one ends. A frame with no view, or with a delta and
// no renewal, is refused, and ends the stream.
const RevokePath = "/cluster/revoke"

// Revocation is an owner's revocation f arriving: this node's leases on the
// views it names are taken back (Revoked), and a renewal it carries is
// applied (renewed). It fails, taking nothing back, on a revocation that
// names no view or whose delta renews nothing. The caller acknowledges once
// it returns.
func (n *Node) Revocation(f *Frame) error {
	var buf [4]string
	views := revocationViews(buf[:0], f.Views)
	renewing := f.Base != ""
	switch {
	case len(views) == 0:
		return errors.New("cluster: a revocation names its views: view=")
	case renewing && len(views) != 1, !renewing && (f.Delta != "" || f.Tag != ""):
		return errors.New("cluster: a revocation's delta renews the lease on its one view, under Delta-Base")
	case renewing:
		n.renewed(views[0], f)
	default:
		n.Revoked(views...)
	}
	return nil
}

// revocationViews appends the views a revocation's query (view=v&view=w)
// names to views.
func revocationViews(views []string, rawQuery string) []string {
	for rest := rawQuery; rest != ""; {
		var field string
		field, rest, _ = strings.Cut(rest, "&")
		if v, ok := strings.CutPrefix(field, "view="); ok {
			if v, err := url.QueryUnescape(v); err == nil {
				views = append(views, v)
			}
		}
	}
	return views
}

// Revoked takes back this node's leases on views, as an owner asked; the
// caller acknowledges once it returns.
func (n *Node) Revoked(views ...string) {
	n.leaseMu.Lock()
	n.lease.revoked(views...)
	n.leaseMu.Unlock()
}

// renewed takes back this node's lease on view, as a revocation f that renews
// it asked, and then applies the renewal: if the renewal applies to the lease
// taken (taken.applies), the delta is spliced into the transport record held
// under the lease's tag — every check a 226 passes, and swapped only if the
// record is still the one spliced into; a renewal on the very tag the lease
// was granted on has no delta, and nothing is spliced — and the lease
// installed on its tag unless a later revocation arrived meanwhile. Any
// check that fails leaves it a plain revocation, counted as refused.
func (n *Node) renewed(view string, f *Frame) {
	n.leaseMu.Lock()
	t := n.lease.revoked(view)
	n.leaseMu.Unlock()
	rn, ok := renewalOf(view, f)
	if ok = ok && t.applies(rn); ok && rn.base != rn.tag {
		fw := n.landed(view)
		ok = fw != nil && fw.splice(rn.base, f)
	}
	if ok {
		now := n.now()
		n.leaseMu.Lock()
		ok = t.renewed(rn, now)
		n.leaseMu.Unlock()
	}
	if ok {
		n.renewalsApplied.Add(1)
	} else {
		n.renewalsRefused.Add(1)
	}
}

// renewalOf reads the renewal of view a revocation f carries. One on the
// very tag its lease was granted on keeps that lease as it is: it has no
// delta and extends nothing (protocol.renew).
func renewalOf(view string, f *Frame) (renewal, bool) {
	if f.Base == "" || f.Tag == "" || f.Extend < 0 || f.Extend > LeaseTerm.Milliseconds() || (f.Base == f.Tag && (f.Delta != "" || f.Extend != 0)) {
		return renewal{}, false
	}
	return renewal{view: view, base: f.Base, tag: f.Tag, extend: time.Duration(f.Extend) * time.Millisecond}, true
}

// Offer reads what a lease on view would be granted against, for a request
// whose X-Mix-Forwarded header is hops: the holder is the member named last.
// ok is false when no lease can be granted: the view is not a cluster view,
// or the request is not a member's — a client's, this node's own, or an
// unknown name's.
func (n *Node) Offer(view, hops string) (o Offer, ok bool) {
	holder := strings.TrimSpace(hops[strings.LastIndexByte(hops, ',')+1:])
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	return n.lease.offer(view, holder)
}

// Grant records o's lease, for LeaseTerm from now, when the answer goes out
// under tag and not degraded and no revocation of its view moved an epoch
// since Offer read them; it reports whether it did.
func (n *Node) Grant(o Offer, tag string, degraded bool) bool {
	n.leaseMu.Lock()
	ok := n.lease.grant(o, tag, degraded, n.now())
	n.leaseMu.Unlock()
	if ok {
		n.leasesGranted.Add(1)
	}
	return ok
}

// A Reader is an owner's read of a view after an invalidation, to renew its
// holders' leases with: the view's document and its tag; ok only for a
// complete, live, tagged document under an inference that did not degrade —
// what a grant asks of an answer.
type Reader func(ctx context.Context, view string) (a mediator.Answer, tag string, ok bool)

// Revoke takes back every lease on views and returns once each holder has
// acknowledged or its lease has run out, and every revocation begun before it
// has returned: an owner answers an invalidation of views only after Revoke
// returned. A holder of one of the views alone is granted a lease on its new
// document in the same message, when read (nil for none) reads it: the
// revocation carries the delta from the document the holder's lease was
// granted on. It runs to its end whatever becomes of ctx — later revocations
// wait on it.
func (n *Node) Revoke(ctx context.Context, read Reader, views ...string) {
	n.revoke(ctx, false, read, views)
}

// RevokeAll is Revoke of every view, for a wholesale invalidation: it renews
// nothing.
func (n *Node) RevokeAll(ctx context.Context) { n.revoke(ctx, true, nil, nil) }

func (n *Node) revoke(ctx context.Context, all bool, read Reader, views []string) {
	ctx = context.WithoutCancel(ctx)
	n.leaseMu.Lock()
	r := n.lease.revoke(all, views, n.now())
	n.leaseMu.Unlock()
	n.renew(ctx, r, read)
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	for i := range r.tell {
		t := &r.tell[i]
		go func() {
			n.revocationsSent.Add(1)
			if n.sendRevocation(t) != nil {
				n.revocationsWaitedOut.Add(1)
				if d := t.until.Sub(n.now()); d > 0 {
					n.sleep(d)
				}
			}
			n.leaseMu.Lock()
			n.lease.answered(r)
			n.revoking.Broadcast()
			n.leaseMu.Unlock()
		}()
	}
	for !n.lease.acknowledged(r) {
		n.revoking.Wait()
	}
	n.revoking.Broadcast()
}

// delta is the body and runs a renewing revocation carries.
type delta struct {
	body []byte
	runs string
}

// renew reads, with read, each view r could renew a holder's lease on,
// renews what the read allows (protocol.renew) and gives each holder it
// renewed the delta from the tag its lease was granted on: one body per such
// tag, and none for a holder whose lease was granted on the tag read. A delta
// that cannot be written leaves a plain revocation.
func (n *Node) renew(ctx context.Context, r *revocation, read Reader) {
	if read == nil {
		return
	}
	var readViews []string
	for i := range r.tell {
		view := r.tell[i].views[0]
		if r.tell[i].base == "" || slices.Contains(readViews, view) {
			continue
		}
		readViews = append(readViews, view)
		readAt := n.now()
		a, tag, ok := read(ctx, view)
		if !ok {
			continue
		}
		n.leaseMu.Lock()
		n.lease.renew(r, view, tag, readAt, moved)
		n.leaseMu.Unlock()
		bodies := map[string]*delta{}
		for j := range r.tell {
			t := &r.tell[j]
			if t.renewal.view != view || t.base == tag {
				continue
			}
			d, written := bodies[t.base]
			if !written {
				var b bytes.Buffer
				var buf [16]bool // a view of more parts makes moved on the heap
				if a.WriteDelta(&b, mediator.AppendMoved(buf[:0], t.base, tag)) == nil {
					d = &delta{body: b.Bytes(), runs: a.Runs()}
				}
				bodies[t.base] = d
			}
			if d == nil {
				t.renewal = renewal{}
				continue
			}
			t.delta = *d
		}
	}
}

// moved reports whether tag is another version of the document base tagged,
// one a delta from base leads to (mediator.AppendMoved).
func moved(base, tag string) bool {
	var buf [16]bool // a view of more parts makes moved on the heap
	return mediator.AppendMoved(buf[:0], base, tag) != nil
}

// sendRevocation tells t.holder its leases on t.views are taken back, and
// renews the one t.renewal names with t.delta: a frame on the node's stream
// to the holder. It fails when the holder has not acknowledged it by the end
// of the leases, which would have run out by then anyway: the stream is
// closed, and every other revocation pending on it fails too.
func (n *Node) sendRevocation(t *told) error {
	d := t.until.Sub(n.now())
	if d <= 0 {
		return errLate
	}
	s, err := n.stream(t.holder)
	if err != nil {
		return err
	}
	ack := make(chan error, 1)
	stop := n.deadline(d, func() { s.fail(errLate) })
	if err = s.send(t, ack); err == nil {
		err = <-ack
	} else {
		s.fail(err)
	}
	stop()
	return err
}
