package mediator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/xmlmodel"
)

// Hedging defaults. The hedge delay is p95-derived once enough samples
// exist (fire the backup request only when the primary is already slower
// than 95% of fetches — the Tail at Scale recipe, bounding the extra load
// at ~5% before the budget even applies); until then, and as clamps, the
// constants below hold.
const (
	// DefaultHedgeDelay is used before hedgeSampleFloor latency samples
	// have accumulated (and when no delay is configured).
	DefaultHedgeDelay = 50 * time.Millisecond
	// DefaultMinHedgeDelay floors the p95-derived delay so a fast source
	// does not hedge on microsecond jitter.
	DefaultMinHedgeDelay = 5 * time.Millisecond
	// DefaultMaxHedgeDelay caps the p95-derived delay so one slow outlier
	// period does not disable hedging entirely.
	DefaultMaxHedgeDelay = 1 * time.Second
	// hedgeSampleFloor is the number of latency samples required before
	// the p95 estimate is trusted over DefaultHedgeDelay.
	hedgeSampleFloor = 20
)

// staleNoteKey is the context key of a fetch's stale note.
type staleNoteKey struct{}

// WithStaleNote returns a context for one source fetch and the note a
// ReplicaSet sets when, every replica having failed, it answers that fetch
// with its last known good document: still valid under the source's DTD,
// but possibly outdated. The note rides the context, not the result, so it
// survives whatever decorators sit between the caller and the ReplicaSet;
// the mediator reads it into Provenance.StaleSources (and from there the
// X-Mix-Stale-Sources response header) and does not cache the part.
func WithStaleNote(ctx context.Context) (context.Context, *atomic.Bool) {
	note := new(atomic.Bool)
	return context.WithValue(ctx, staleNoteKey{}, note), note
}

// ReplicaStatus is the health snapshot of one replica.
type ReplicaStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Failures int    `json:"failures"`
}

// ReplicaSetStatus is the point-in-time status of a ReplicaSet, exposed
// in /metrics JSON (Stats.Replicas) and evaluated by /readyz.
type ReplicaSetStatus struct {
	Source   string          `json:"source"`
	Replicas []ReplicaStatus `json:"replicas"`
	// Available counts replicas currently taking traffic (healthy or
	// suspect); Healthy counts strictly healthy ones.
	Available int `json:"available"`
	Healthy   int `json:"healthy"`

	Attempts      int64 `json:"attempts"`
	HedgedFetches int64 `json:"hedged_fetches"`
	HedgeWins     int64 `json:"hedge_wins"`
	HedgesDenied  int64 `json:"hedges_denied"`
	Failovers     int64 `json:"failovers"`
	StaleServes   int64 `json:"stale_serves"`
	ActiveProbes  int64 `json:"active_probes"`

	BudgetTokens   float64 `json:"budget_tokens"`
	BudgetCapacity float64 `json:"budget_capacity"`
	BudgetSpent    int64   `json:"budget_spent"`
	BudgetDenied   int64   `json:"budget_denied"`

	HasLastKnownGood bool `json:"has_last_known_good"`
	StaleServe       bool `json:"stale_serve"`
}

// ReplicaSetOptions configures a ReplicaSet.
type ReplicaSetOptions struct {
	// Health configures the per-replica health state machine.
	Health HealthOptions
	// HedgeDelay fixes the hedge delay; 0 derives it from the observed
	// fetch-latency p95 (clamped to [MinHedgeDelay, MaxHedgeDelay], with
	// DefaultHedgeDelay until enough samples exist). Negative disables
	// hedging.
	HedgeDelay time.Duration
	// MinHedgeDelay / MaxHedgeDelay clamp the p95-derived delay
	// (defaults DefaultMinHedgeDelay / DefaultMaxHedgeDelay).
	MinHedgeDelay time.Duration
	MaxHedgeDelay time.Duration
	// Budget is the token bucket that hedges and failovers draw from; nil
	// gets a default bucket. Pass the same bucket to the replicas'
	// HTTPSources (WithRetryBudget) to cap the source's total retry
	// amplification across every layer.
	Budget *RetryBudget
	// DisableStaleServe turns off the last-known-good fallback: when all
	// replicas fail, Fetch fails instead of serving a stale document.
	DisableStaleServe bool
	// Clock overrides time.Now for the health machinery (hedge timers use
	// real time; configure HedgeDelay explicitly in tests).
	Clock func() time.Time
}

func (o ReplicaSetOptions) withDefaults() ReplicaSetOptions {
	if o.MinHedgeDelay <= 0 {
		o.MinHedgeDelay = DefaultMinHedgeDelay
	}
	if o.MaxHedgeDelay <= 0 {
		o.MaxHedgeDelay = DefaultMaxHedgeDelay
	}
	if o.Clock != nil && o.Health.Clock == nil {
		o.Health.Clock = o.Clock
	}
	if o.Budget == nil {
		o.Budget = NewRetryBudget(RetryBudgetOptions{Clock: o.Clock})
	}
	return o
}

// ReplicaSet is a Wrapper over N interchangeable replicas of one logical
// source. Interchangeable means same document language: registration
// verifies every replica's DTD is equivalent to the first's
// (dtd.Equivalent), so the mediator's view DTD inference, pruning and
// validation hold no matter which replica answered.
//
// A fetch runs the tail-tolerance playbook: replicas are tried in health
// order (healthy → suspect → ejected-past-cooldown); a hedge fires at the
// next-best replica once the primary exceeds the hedge delay; a failover
// fires when an attempt fails; first success wins and cancels the rest.
// Hedges and failovers spend the shared RetryBudget — when the bucket is
// dry they are denied (counted, never blocking the primary), so a
// brownout cannot be amplified into a retry storm. When every reachable
// replica fails, the last known good document (DTD-validated at store
// time) is served and the fetch's stale note set (WithStaleNote).
type ReplicaSet struct {
	name     string
	schema   *dtd.DTD
	replicas []Wrapper
	health   []*health
	opts     ReplicaSetOptions
	budget   *RetryBudget
	latency  *obs.Histogram

	mu  sync.Mutex
	lkg *xmlmodel.Document

	attempts     atomic.Int64
	hedged       atomic.Int64
	hedgeWins    atomic.Int64
	hedgesDenied atomic.Int64
	failovers    atomic.Int64
	staleServes  atomic.Int64
	activeProbes atomic.Int64
}

// NewReplicaSet registers replicas as one logical source named name.
// Every replica must expose a DTD equivalent to the first one's; a
// mismatched replica is rejected by name — failing over to a source
// speaking a different schema would not be a failover, it would be a
// different view.
func NewReplicaSet(name string, replicas []Wrapper, opts ReplicaSetOptions) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("mediator: replica set %s: no replicas", name)
	}
	schema := replicas[0].Schema()
	for _, w := range replicas[1:] {
		if !dtd.Equivalent(schema, w.Schema()) {
			return nil, fmt.Errorf("mediator: replica set %s: replica %s's DTD is not equivalent to %s's",
				name, w.Name(), replicas[0].Name())
		}
	}
	o := opts.withDefaults()
	r := &ReplicaSet{
		name:     name,
		schema:   schema,
		replicas: replicas,
		opts:     o,
		budget:   o.Budget,
		latency:  obs.NewHistogram(),
	}
	for range replicas {
		r.health = append(r.health, newHealth(o.Health))
	}
	return r, nil
}

// Name implements Wrapper.
func (r *ReplicaSet) Name() string { return r.name }

// Schema implements Wrapper.
func (r *ReplicaSet) Schema() *dtd.DTD { return r.schema }

// Budget exposes the shared retry budget (for wiring into the replicas'
// HTTPSources and for metrics).
func (r *ReplicaSet) Budget() *RetryBudget { return r.budget }

// launchKind tags why an attempt was started, for win accounting.
type launchKind int

const (
	launchPrimary launchKind = iota
	launchHedge
	launchFailover
)

type attemptResult struct {
	kind launchKind
	doc  *xmlmodel.Document
	err  error
}

// Fetch implements Wrapper: it fetches from the healthiest replica with
// hedging and failover, and sets the context's stale note when the returned
// document is the last known good rather than a live answer.
func (r *ReplicaSet) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	order := r.candidateOrder()
	results := make(chan attemptResult, len(order))
	next, outstanding := 0, 0
	var lastErr error

	// launchNext starts an attempt at the next acquirable candidate.
	// acquire happens at launch time (not up front) so probe slots are
	// claimed only by attempts that actually run.
	launchNext := func(kind launchKind) bool {
		for next < len(order) {
			i := order[next]
			next++
			ok, probe := r.health[i].acquire()
			if !ok {
				continue
			}
			outstanding++
			go r.attempt(actx, i, kind, probe, results)
			return true
		}
		return false
	}

	if !launchNext(launchPrimary) {
		return r.staleOrErr(ctx, fmt.Errorf("every replica ejected"))
	}

	var hedgeC <-chan time.Time
	if delay := r.hedgeDelay(); delay >= 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeC = t.C
	}

	for {
		select {
		case res := <-results:
			outstanding--
			if res.err == nil {
				if res.kind == launchHedge {
					r.hedgeWins.Add(1)
					obs.AddEvent(ctx, "replica.hedge_win", obs.String("source", r.name))
				}
				r.storeLKG(res.doc)
				return res.doc, nil
			}
			lastErr = res.err
			// Failover: the attempt failed, try the next candidate — extra
			// load, so it spends a budget token.
			if next < len(order) {
				if r.budget.Allow() {
					if launchNext(launchFailover) {
						r.failovers.Add(1)
						obs.AddEvent(ctx, "replica.failover", obs.String("source", r.name))
					}
				}
			}
			if outstanding == 0 {
				return r.staleOrErr(ctx, lastErr)
			}
		case <-hedgeC:
			hedgeC = nil // one hedge per fetch
			if next >= len(order) {
				continue
			}
			if !r.budget.Allow() {
				r.hedgesDenied.Add(1)
				obs.AddEvent(ctx, "replica.hedge_denied", obs.String("source", r.name))
				continue
			}
			if launchNext(launchHedge) {
				r.hedged.Add(1)
				obs.AddEvent(ctx, "replica.hedge", obs.String("source", r.name))
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// attempt fetches from replica i and records the outcome in its health.
// A failure caused by the attempt context (the caller went away, or a
// sibling already won and cancelled us) says nothing about the replica's
// health, so it only releases a held probe slot.
func (r *ReplicaSet) attempt(ctx context.Context, i int, kind launchKind, probe bool, out chan<- attemptResult) {
	r.attempts.Add(1)
	start := time.Now()
	doc, err := r.replicas[i].Fetch(ctx)
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		if probe {
			r.health[i].releaseProbe()
		}
		out <- attemptResult{kind: kind, err: err}
		return
	}
	r.health[i].record(err != nil)
	if err == nil {
		r.latency.Observe(time.Since(start))
	}
	out <- attemptResult{kind: kind, doc: doc, err: err}
}

// candidateOrder returns replica indices sorted healthiest-first
// (healthy, then suspect, then ejected/probing), stable so equally
// healthy replicas keep their registration order.
func (r *ReplicaSet) candidateOrder() []int {
	rank := make([]int, len(r.replicas))
	for i, h := range r.health {
		switch s, _ := h.snapshot(); s {
		case ReplicaHealthy:
			rank[i] = 0
		case ReplicaSuspect:
			rank[i] = 1
		default:
			rank[i] = 2
		}
	}
	order := make([]int, len(r.replicas))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rank[order[a]] < rank[order[b]] })
	return order
}

// hedgeDelay returns the delay before a hedged read fires, or a negative
// duration when hedging is disabled.
func (r *ReplicaSet) hedgeDelay() time.Duration {
	if r.opts.HedgeDelay != 0 {
		return r.opts.HedgeDelay
	}
	snap := r.latency.Snapshot()
	if snap.Count >= hedgeSampleFloor {
		d := time.Duration(snap.P95 * float64(time.Second))
		if d < r.opts.MinHedgeDelay {
			d = r.opts.MinHedgeDelay
		}
		if d > r.opts.MaxHedgeDelay {
			d = r.opts.MaxHedgeDelay
		}
		return d
	}
	return DefaultHedgeDelay
}

// storeLKG keeps doc as the last known good iff it validates against the
// set's DTD — the stale-serving guarantee is "schema-valid but possibly
// outdated", and that is checked here, at store time, not trusted.
func (r *ReplicaSet) storeLKG(doc *xmlmodel.Document) {
	if r.opts.DisableStaleServe || doc == nil {
		return
	}
	r.mu.Lock()
	same := r.lkg == doc
	r.mu.Unlock()
	if same {
		return // a replica confirmed (304) the document already checked and kept
	}
	if r.schema != nil && r.schema.Validate(doc) != nil {
		return
	}
	r.mu.Lock()
	r.lkg = doc
	r.mu.Unlock()
}

// staleOrErr is the all-replicas-failed terminal: the last known good
// document, noted stale, when stale serving is on and one exists, the error
// otherwise.
func (r *ReplicaSet) staleOrErr(ctx context.Context, cause error) (*xmlmodel.Document, error) {
	if !r.opts.DisableStaleServe {
		r.mu.Lock()
		doc := r.lkg
		r.mu.Unlock()
		if doc != nil {
			r.staleServes.Add(1)
			obs.AddEvent(ctx, "replica.stale_serve", obs.String("source", r.name))
			if note, _ := ctx.Value(staleNoteKey{}).(*atomic.Bool); note != nil {
				note.Store(true)
			}
			return doc, nil
		}
	}
	return nil, fmt.Errorf("mediator: source %s: all replicas failed: %w", r.name, cause)
}

// HasLastKnownGood reports whether a stale fallback document is cached.
func (r *ReplicaSet) HasLastKnownGood() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lkg != nil
}

// StaleServeEnabled reports whether the last-known-good fallback is on.
func (r *ReplicaSet) StaleServeEnabled() bool { return !r.opts.DisableStaleServe }

// CheckReplicas runs one active health pass: every replica that is not
// healthy (suspect, or ejected past its cooldown) is probed with a
// timeout-bounded fetch and its outcome recorded, so recovery is noticed
// within one check interval even with no query traffic. Returns the
// number of probes performed.
func (r *ReplicaSet) CheckReplicas(ctx context.Context, timeout time.Duration) int {
	probes := 0
	for i, h := range r.health {
		if s, _ := h.snapshot(); s == ReplicaHealthy {
			continue
		}
		ok, probe := h.acquire()
		if !ok {
			continue
		}
		probes++
		r.activeProbes.Add(1)
		pctx, cancel := context.WithTimeout(ctx, timeout)
		doc, err := r.replicas[i].Fetch(pctx)
		cancel()
		if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			if probe {
				h.releaseProbe()
			}
			continue
		}
		h.record(err != nil)
		if err == nil {
			r.storeLKG(doc)
		}
	}
	return probes
}

// RunHealthChecks runs CheckReplicas every interval until ctx is done.
// Run it in a goroutine per ReplicaSet (cmd/mixserve does).
func (r *ReplicaSet) RunHealthChecks(ctx context.Context, interval, timeout time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.CheckReplicas(ctx, timeout)
		}
	}
}

// ReplicaStatus snapshots the set's health, counters and budget.
func (r *ReplicaSet) ReplicaStatus() ReplicaSetStatus {
	st := ReplicaSetStatus{
		Source:           r.name,
		Attempts:         r.attempts.Load(),
		HedgedFetches:    r.hedged.Load(),
		HedgeWins:        r.hedgeWins.Load(),
		HedgesDenied:     r.hedgesDenied.Load(),
		Failovers:        r.failovers.Load(),
		StaleServes:      r.staleServes.Load(),
		ActiveProbes:     r.activeProbes.Load(),
		BudgetTokens:     r.budget.Tokens(),
		BudgetCapacity:   r.budget.Capacity(),
		BudgetSpent:      r.budget.Spent(),
		BudgetDenied:     r.budget.Denied(),
		HasLastKnownGood: r.HasLastKnownGood(),
		StaleServe:       r.StaleServeEnabled(),
	}
	for i, h := range r.health {
		s, f := h.snapshot()
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Name: r.replicas[i].Name(), State: s.String(), Failures: f,
		})
		switch s {
		case ReplicaHealthy:
			st.Healthy++
			st.Available++
		case ReplicaSuspect:
			st.Available++
		}
	}
	return st
}

// Report implements Reporter: the set's status, then what its replicas
// report (a ReplicaSet of HTTPSources keeps feeding Stats.Retries, one of
// BreakerSources the breaker counters).
func (r *ReplicaSet) Report(rep *SourceReport) {
	rep.Replicas = append(rep.Replicas, r.ReplicaStatus())
	for _, w := range r.replicas {
		rep.Collect(w)
	}
}
