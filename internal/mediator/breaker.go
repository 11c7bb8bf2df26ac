package mediator

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/xmlmodel"
)

// ErrBreakerOpen is returned by a BreakerSource whose circuit breaker is
// open: the source has failed repeatedly and calls are rejected without
// touching it until the cooldown elapses. The mediator's evaluate loop
// treats this error specially — the failing source's parts are dropped
// from the union view (a degraded but fast materialization) instead of
// failing the whole view.
var ErrBreakerOpen = errors.New("mediator: circuit breaker open")

// BreakerOptions configures a circuit breaker.
type BreakerOptions struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (default 3).
	Threshold int
	// Cooldown is how long an open breaker rejects calls before allowing a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Clock overrides time.Now, letting tests drive the state machine
	// without sleeping.
	Clock func() time.Time
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold <= 0 {
		o.Threshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Breaker is a per-source circuit breaker: closed (calls flow, consecutive
// failures counted) → open (calls rejected for the cooldown) → half-open
// (exactly one probe call allowed; its success closes the breaker, its
// failure re-opens it). It is the replica health state machine (health.go)
// read as closed = healthy or suspect, open = ejected, half-open = probing,
// plus the two counters below. Safe for concurrent use.
type Breaker struct {
	h          *health
	trips      atomic.Int64
	rejections atomic.Int64
}

// NewBreaker builds a breaker with the given options (zero values get
// defaults). The health options are final as written: a breaker may open on
// the first failure, which HealthOptions' own defaulting would widen.
func NewBreaker(opts BreakerOptions) *Breaker {
	o := opts.withDefaults()
	return &Breaker{h: &health{opts: HealthOptions{
		SuspectAfter: 1, EjectAfter: o.Threshold, EjectCooldown: o.Cooldown, Clock: o.Clock,
	}}}
}

// Allow reports whether a call may proceed. Open breakers reject with
// ErrBreakerOpen until the cooldown has elapsed, at which point exactly one
// caller is let through as the half-open probe; its Record outcome decides
// whether the breaker closes or re-opens.
func (b *Breaker) Allow() error {
	_, err := b.allow()
	return err
}

// allow is Allow, also telling the caller whether it holds the probe slot.
func (b *Breaker) allow() (probe bool, err error) {
	ok, probe := b.h.acquire()
	if !ok {
		b.rejections.Add(1)
		return false, ErrBreakerOpen
	}
	return probe, nil
}

// Record reports the outcome of an allowed call. ctx-cancellation errors
// should not be fed to Record (they say nothing about the source's health);
// BreakerSource filters them out.
func (b *Breaker) Record(failed bool) {
	if b.h.record(failed) {
		b.trips.Add(1)
	}
}

// Trips returns the number of closed/half-open → open transitions.
func (b *Breaker) Trips() int64 { return b.trips.Load() }

// Rejections returns the number of calls rejected with ErrBreakerOpen.
func (b *Breaker) Rejections() int64 { return b.rejections.Load() }

// BreakerSource wraps a Wrapper with a circuit breaker: after Threshold
// consecutive Fetch failures the source is considered dead and further
// fetches fail fast with ErrBreakerOpen (no network round trip, no retry
// storm) until a cooldown-spaced probe succeeds. Put it around an
// HTTPSource so one dead site degrades its parts of a union view instead
// of stalling every materialization for the full retry/timeout budget.
type BreakerSource struct {
	inner Wrapper
	b     *Breaker
}

// NewBreakerSource guards w with a breaker built from opts.
func NewBreakerSource(w Wrapper, opts BreakerOptions) *BreakerSource {
	return &BreakerSource{inner: w, b: NewBreaker(opts)}
}

// Breaker exposes the underlying breaker (for tests and metrics).
func (s *BreakerSource) Breaker() *Breaker { return s.b }

// Name implements Wrapper.
func (s *BreakerSource) Name() string { return s.inner.Name() }

// Schema implements Wrapper.
func (s *BreakerSource) Schema() *dtd.DTD { return s.inner.Schema() }

// Fetch implements Wrapper: rejected fast when the breaker is open,
// otherwise delegated with the outcome recorded. A failure caused by the
// caller's context (cancellation, deadline it imposed) is not held against
// the source.
func (s *BreakerSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	probe, err := s.b.allow()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.inner.Name(), err)
	}
	doc, err := s.inner.Fetch(ctx)
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		// The caller went away; the source's health is unknown. Give a held
		// half-open probe slot back without judging the source.
		if probe {
			s.b.h.releaseProbe()
		}
		return nil, err
	}
	s.b.Record(err != nil)
	return doc, err
}

// Report implements Reporter.
func (s *BreakerSource) Report(r *SourceReport) {
	r.BreakerTrips += s.b.Trips()
	r.BreakerRejections += s.b.Rejections()
	r.Collect(s.inner)
}

// BreakerTrips returns the breaker's own trip count.
func (s *BreakerSource) BreakerTrips() int64 { return s.b.Trips() }

// BreakerRejections returns the breaker's own rejection count.
func (s *BreakerSource) BreakerRejections() int64 { return s.b.Rejections() }
