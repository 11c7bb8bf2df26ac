package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

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

// Revoked takes back this node's leases on views, as an owner asked; the
// caller acknowledges once it returns.
func (n *Node) Revoked(views ...string) {
	n.leaseMu.Lock()
	n.lease.revoked(views...)
	n.leaseMu.Unlock()
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

// Revoke takes back every lease on views and returns once each holder has
// acknowledged or its lease has run out, and every revocation begun before it
// has returned: an owner answers an invalidation of views only after Revoke
// returned. It runs to its end whatever becomes of ctx — later revocations
// wait on it.
func (n *Node) Revoke(ctx context.Context, views ...string) { n.revoke(ctx, false, views) }

// RevokeAll is Revoke of every view, for a wholesale invalidation.
func (n *Node) RevokeAll(ctx context.Context) { n.revoke(ctx, true, nil) }

func (n *Node) revoke(ctx context.Context, all bool, views []string) {
	ctx = context.WithoutCancel(ctx)
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	r := n.lease.revoke(all, views, n.now())
	for _, t := range r.tell {
		go func() {
			n.revocationsSent.Add(1)
			if n.sendRevocation(ctx, &t) != nil {
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

// sendRevocation tells t.holder its leases on t.views are taken back. It
// gives up when the leases would have run out anyway.
func (n *Node) sendRevocation(ctx context.Context, t *told) error {
	ctx, cancel := context.WithTimeout(ctx, t.until.Sub(n.now()))
	defer cancel()
	body, err := json.Marshal(Revocation{Views: t.views})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.cfg.Nodes[t.holder]+RevokePath, bytes.NewReader(body))
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
		return fmt.Errorf("cluster: %s did not acknowledge the revocation: %s", t.holder, resp.Status)
	}
	return nil
}
