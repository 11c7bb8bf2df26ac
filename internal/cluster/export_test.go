package cluster

import (
	"time"

	"repro/internal/mediator"
)

// What lease_test.go needs of the node's inside. It is an external test
// (package cluster_test) because its owners and forwarders are the serve
// package's handlers, and internal/serve imports this package.

// SetClock makes n count and wait out leases on now and sleep, and start
// (the beginning of its grace term) at now's present reading. Call it before
// n serves anything.
func (n *Node) SetClock(now func() time.Time, sleep func(time.Duration)) {
	n.now, n.sleep = now, sleep
	n.started = now()
}

// LeaseExpiry is when this node's lease on view ends by its clock; zero when
// it holds none.
func (n *Node) LeaseExpiry(view string) time.Time {
	n.mu.Lock()
	slot := n.slots[view]
	n.mu.Unlock()
	if slot == nil {
		return time.Time{}
	}
	if l := slot.lease.Load(); l != nil {
		return l.expires
	}
	return time.Time{}
}

// GrantExpiry is when the lease this node granted holder on view ends by its
// clock; zero when it granted none.
func (n *Node) GrantExpiry(view, holder string) time.Time {
	n.grants.mu.Lock()
	defer n.grants.mu.Unlock()
	if g := n.grants.views[view]; g != nil {
		return g.holders[holder]
	}
	return time.Time{}
}

// Transport is the owner transport of view's landed forward; nil before one
// landed.
func (n *Node) Transport(view string) *mediator.HTTPSource {
	n.mu.Lock()
	defer n.mu.Unlock()
	if slot := n.slots[view]; slot != nil {
		if f, ok := slot.build.Landed(); ok {
			return f.sources[0]
		}
	}
	return nil
}
