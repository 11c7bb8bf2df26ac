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
	n.lease.started = now()
}

// SetDeadline makes n notice a revocation not acknowledged by the end of its
// lease with deadline, which runs f once the lease has run out unless the
// function it returns stops it first.
func (n *Node) SetDeadline(deadline func(d time.Duration, f func()) (stop func() bool)) {
	n.deadline = deadline
}

// LeaseExpiry is when this node's lease on view ends by its clock; zero when
// it holds none.
func (n *Node) LeaseExpiry(view string) time.Time {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	if s := n.lease.slots[view]; s != nil {
		if l := s.lease.Load(); l != nil {
			return l.expires
		}
	}
	return time.Time{}
}

// GrantExpiry is when the lease this node granted holder on view ends by its
// clock; zero when it granted none.
func (n *Node) GrantExpiry(view, holder string) time.Time {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	if l := n.lease.views[view]; l != nil {
		return l.holders[holder].until
	}
	return time.Time{}
}

// Revocations are how many revocations this node has begun as an owner, and
// how many it has acknowledged.
func (n *Node) Revocations() (begun, acked uint64) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	return n.lease.begun, n.lease.acked
}

// Transport is the owner transport of view's landed forward; nil before one
// landed.
func (n *Node) Transport(view string) *mediator.HTTPSource {
	if f := n.landed(view); f != nil {
		return f.sources[0]
	}
	return nil
}
