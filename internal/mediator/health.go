package mediator

import (
	"sync"
	"time"
)

// ReplicaState is the health of one replica inside a ReplicaSet — and,
// read as closed/open/half-open, of the source behind a Breaker, which runs
// on the same machine (breaker.go). It is the circuit-breaker cycle with
// one extra rung: Suspect sits between Healthy and Ejected so a single
// failure demotes a replica in the hedging order before repeated failures
// eject it entirely.
//
//	Healthy --failure--> Suspect --failures--> Ejected
//	   ^                                          | cooldown
//	   |                                          v
//	   +------------- probe succeeds -------- Probing
//
// Probing is the half-open state: exactly one in-flight probe per ejected
// replica; its success restores Healthy, its failure re-ejects and restarts
// the cooldown.
type ReplicaState int

const (
	// ReplicaHealthy replicas take traffic and sort first in the hedging
	// order.
	ReplicaHealthy ReplicaState = iota
	// ReplicaSuspect replicas have failed recently but not enough to
	// eject; they still take traffic, after healthy ones.
	ReplicaSuspect
	// ReplicaEjected replicas are skipped until their cooldown elapses.
	ReplicaEjected
	// ReplicaProbing replicas have one recovery probe in flight.
	ReplicaProbing
)

// String renders the state for logs, headers and metrics.
func (s ReplicaState) String() string {
	switch s {
	case ReplicaHealthy:
		return "healthy"
	case ReplicaSuspect:
		return "suspect"
	case ReplicaEjected:
		return "ejected"
	case ReplicaProbing:
		return "probing"
	}
	return "unknown"
}

// suspectAfter is the number of consecutive failures that demotes a healthy
// replica to suspect: the first.
const suspectAfter = 1

// HealthOptions configures the per-replica health state machine.
type HealthOptions struct {
	// EjectAfter is the number of consecutive failures that ejects a
	// replica (default 3).
	EjectAfter int
	// EjectCooldown is how long an ejected replica is skipped before a
	// recovery probe is allowed (default 5s).
	EjectCooldown time.Duration
	// Clock overrides time.Now, letting tests drive the state machine
	// without sleeping.
	Clock func() time.Time
}

func (o HealthOptions) withDefaults() HealthOptions {
	if o.EjectAfter <= suspectAfter {
		o.EjectAfter = suspectAfter + 2
	}
	if o.EjectCooldown <= 0 {
		o.EjectCooldown = 5 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// health tracks one replica's state. Safe for concurrent use.
type health struct {
	opts HealthOptions

	mu        sync.Mutex
	state     ReplicaState
	failures  int
	ejectedAt time.Time
}

func newHealth(opts HealthOptions) *health {
	return &health{opts: opts.withDefaults()}
}

// acquire reports whether the replica may be fetched right now, and
// whether that fetch is the replica's single recovery probe. Healthy and
// suspect replicas always admit. An ejected replica past its cooldown
// transitions to probing and admits exactly one caller; within the
// cooldown, or while a probe is already in flight, it refuses.
func (h *health) acquire() (ok, probe bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case ReplicaHealthy, ReplicaSuspect:
		return true, false
	case ReplicaEjected:
		if h.opts.Clock().Sub(h.ejectedAt) >= h.opts.EjectCooldown {
			h.state = ReplicaProbing
			return true, true
		}
		return false, false
	default: // probing: one probe at a time
		return false, false
	}
}

// record reports the outcome of an admitted fetch, and whether it ejected
// the replica. Success restores Healthy from any state; failure walks
// Healthy → Suspect → Ejected by the configured thresholds, and re-ejects a
// failed probe with a fresh cooldown. A failure that arrives while the
// replica is already ejected — a fetch admitted before the ejection — is not
// held against it twice: it neither counts nor restarts the cooldown.
// Caller-context cancellations must not be fed here — use releaseProbe for
// those.
func (h *health) record(failed bool) (ejected bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case !failed:
		h.state = ReplicaHealthy
		h.failures = 0
	case h.state == ReplicaEjected:
		// late: admitted before the ejection that already answered it
	case h.state == ReplicaProbing:
		ejected = true
	default:
		h.failures++
		if h.failures >= h.opts.EjectAfter {
			ejected = true
		} else if h.failures >= suspectAfter {
			h.state = ReplicaSuspect
		}
	}
	if ejected {
		h.state = ReplicaEjected
		h.ejectedAt = h.opts.Clock()
	}
	return ejected
}

// releaseProbe returns a probe slot without judging the replica: the
// caller's context died mid-probe, so its health is unknown. The replica
// goes back to Ejected with its original cooldown timestamp, making the
// next acquire immediately eligible to probe again.
func (h *health) releaseProbe() {
	h.mu.Lock()
	if h.state == ReplicaProbing {
		h.state = ReplicaEjected
	}
	h.mu.Unlock()
}

// snapshot returns the current state and consecutive-failure count.
func (h *health) snapshot() (ReplicaState, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.failures
}
