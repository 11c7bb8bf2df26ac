package mediator

import (
	"sync"
	"time"

	"repro/internal/automata"
	"repro/internal/automata/cache"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/obs"
)

// ViewStats is the per-view slice of a Stats snapshot.
type ViewStats struct {
	// Queries counts Query calls that reached this view (including ones
	// answered by the simplifier without touching data).
	Queries int64 `json:"queries"`
	// QueryNanos is the total wall-clock time spent in those calls.
	QueryNanos int64 `json:"query_nanos"`
	// Materializations counts materializations that computed at least one
	// part (cache misses).
	Materializations int64 `json:"materializations"`
	// MaterializeNanos is the total wall-clock time spent evaluating.
	MaterializeNanos int64 `json:"materialize_nanos"`
	// QueryLatency / MaterializeLatency are fixed-bucket latency
	// histograms of the same calls the counters above total: the flat
	// sums hide tail latency, the buckets (and their p50/p95/p99
	// estimates) expose it. Serialized to JSON here and to Prometheus
	// text exposition by internal/serve.
	QueryLatency       obs.HistogramSnapshot `json:"query_latency"`
	MaterializeLatency obs.HistogramSnapshot `json:"materialize_latency"`
}

// Stats is a point-in-time snapshot of the mediator's serving counters,
// exposed over HTTP at GET /metrics (internal/serve) and via expvar
// (cmd/mixserve).
type Stats struct {
	// Every materialization (Materialize call, or the masked one under a
	// Query) is counted once, by what it found in the part slots:
	// CacheHits when every kept part's result was cached, CacheMisses when
	// it had to compute at least one part itself, SingleflightDedups when
	// it computed nothing but waited on a part another call was already
	// computing — counted when it starts waiting, not when it returns. (A
	// waiter that takes over a part its computing caller abandoned adds a
	// miss.) StaleDiscards counts part results that completed after an
	// invalidation of their source and were therefore returned to their
	// waiters but not kept.
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	SingleflightDedups int64 `json:"singleflight_dedups"`
	StaleDiscards      int64 `json:"stale_discards"`
	Invalidations      int64 `json:"invalidations"`
	// SourceInvalidations counts InvalidateSource calls (scoped, delta-
	// maintained invalidations, as opposed to the global Invalidations).
	SourceInvalidations int64 `json:"source_invalidations"`

	// PartsRecomputed / PartsReused count, over the materializations that
	// missed, the view parts evaluated against their source vs. served
	// from their slot. Their ratio is the figure of merit of delta
	// maintenance: under invalidate-source traffic most parts should be
	// reused, not refetched.
	PartsRecomputed int64 `json:"parts_recomputed"`
	PartsReused     int64 `json:"parts_reused"`

	// Simplifier totals across all queries (Section 4.2's side effects).
	SimplifierPruned  int64 `json:"simplifier_pruned"`
	SimplifierDropped int64 `json:"simplifier_dropped"`
	SimplifierSkips   int64 `json:"simplifier_skips"`
	SimplifierErrors  int64 `json:"simplifier_errors"`

	// Retries sums the transient-failure retries of all registered
	// wrappers that expose a RetryCounter (HTTPSource).
	Retries int64 `json:"retries"`

	// DegradedViews counts view definitions whose DTD inference exhausted
	// its budget and registered a sound-but-looser DTD;
	// BudgetExhaustions counts budget-exhaustion events observed by the
	// mediator (currently one per degraded view definition).
	DegradedViews     int64 `json:"degraded_views"`
	BudgetExhaustions int64 `json:"budget_exhaustions"`
	// DegradedMaterializations counts materializations served without the
	// parts of breaker-open sources (partial view documents; the dropped
	// parts are not cached).
	DegradedMaterializations int64 `json:"degraded_materializations"`

	// BreakerTrips / BreakerRejections sum the circuit-breaker counters of
	// all registered wrappers that expose a BreakerCounter (BreakerSource):
	// transitions to the open state, and fetches rejected while open.
	BreakerTrips      int64 `json:"breaker_trips"`
	BreakerRejections int64 `json:"breaker_rejections"`

	// Replica-tier totals, summed over all registered wrappers that expose
	// a ReplicaReporter (ReplicaSet): hedged reads launched / won / denied
	// by the retry budget, failover launches, and fetches answered from a
	// last-known-good document. StaleMaterializations counts
	// materializations that included at least one stale part (uncached,
	// surfaced as X-Mix-Stale-Sources).
	HedgedFetches         int64 `json:"hedged_fetches"`
	HedgeWins             int64 `json:"hedge_wins"`
	HedgesDenied          int64 `json:"hedges_denied"`
	Failovers             int64 `json:"failovers"`
	StaleServes           int64 `json:"stale_serves"`
	StaleMaterializations int64 `json:"stale_materializations"`
	// Replicas holds the per-source replica-set status snapshots, keyed by
	// source name.
	Replicas map[string]ReplicaSetStatus `json:"replicas,omitempty"`

	// PartsPruned counts view parts skipped by query-time satisfiability
	// pruning (see prune.go) — sources never fetched because the query was
	// proven unable to touch them. Pruning preserves answers exactly, so
	// this is a pure saving, not a degradation.
	PartsPruned int64 `json:"parts_pruned"`
	// PruneVerdictCache snapshots the process-wide satisfiability-verdict
	// cache (infer.SatisfiabilityCacheStats): hits are queries whose
	// prune decision cost one lookup; misses include every Unknown verdict
	// recomputation, since Unknown is deliberately never cached.
	PruneVerdictCache cache.Stats `json:"prune_verdict_cache"`

	// StreamValidation snapshots the process-wide streaming-validation
	// counters (dtd.StreamValidationStats): documents, scanner events and
	// input bytes validated without tree construction.
	StreamValidation dtd.StreamStats `json:"stream_validation"`

	// AutomataCache snapshots the process-wide compiled-automata cache
	// (internal/automata/cache) that backs every content-model compilation
	// and language decision: DFA compilations for validation, containment
	// and equivalence checks during inference and tightness analysis.
	AutomataCache cache.Stats `json:"automata_cache"`

	// Views holds per-view counters, keyed by view name.
	Views map[string]ViewStats `json:"views"`
}

// statsCounters is the mutable backing store for Stats. It has its own
// mutex and its methods never touch Mediator.mu, so callers may invoke
// them while holding it (the reverse — holding statsCounters.mu while
// taking Mediator.mu — never happens).
type statsCounters struct {
	mu sync.Mutex

	cacheHits, cacheMisses, dedups, staleDiscards, invalidations int64
	sourceInvalidations, partsRecomputed, partsReused            int64
	simplifierPruned, simplifierDropped, simplifierSkips         int64
	simplifierErrors                                             int64
	degradedViews, budgetExhaustions, degradedMaterializations   int64
	staleMaterializations                                        int64
	partsPruned                                                  int64
	views                                                        map[string]*ViewStats
	// hists holds the live per-view histograms backing the snapshot
	// fields of ViewStats (the snapshot struct carries copies).
	hists map[string]*viewHists
}

// viewHists are the live latency histograms of one view.
type viewHists struct {
	query, materialize *obs.Histogram
}

func (s *statsCounters) add(field *int64, n int64) {
	s.mu.Lock()
	*field += n
	s.mu.Unlock()
}

func (s *statsCounters) view(name string) *ViewStats {
	if s.views == nil {
		s.views = map[string]*ViewStats{}
	}
	vs, ok := s.views[name]
	if !ok {
		vs = &ViewStats{}
		s.views[name] = vs
	}
	return vs
}

func (s *statsCounters) viewHists(name string) *viewHists {
	if s.hists == nil {
		s.hists = map[string]*viewHists{}
	}
	vh, ok := s.hists[name]
	if !ok {
		vh = &viewHists{query: obs.NewHistogram(), materialize: obs.NewHistogram()}
		s.hists[name] = vh
	}
	return vh
}

func (s *statsCounters) recordQuery(view string, d time.Duration) {
	s.mu.Lock()
	vs := s.view(view)
	vs.Queries++
	vs.QueryNanos += int64(d)
	h := s.viewHists(view).query
	s.mu.Unlock()
	h.Observe(d)
}

func (s *statsCounters) recordMaterialize(view string, d time.Duration) {
	s.mu.Lock()
	vs := s.view(view)
	vs.Materializations++
	vs.MaterializeNanos += int64(d)
	h := s.viewHists(view).materialize
	s.mu.Unlock()
	h.Observe(d)
}

func (s *statsCounters) recordSimplify(pruned, dropped int, skipped bool) {
	s.mu.Lock()
	s.simplifierPruned += int64(pruned)
	s.simplifierDropped += int64(dropped)
	if skipped {
		s.simplifierSkips++
	}
	s.mu.Unlock()
}

// Stats returns a consistent snapshot of the serving counters plus the
// summed retry counts of retry-aware wrappers.
func (m *Mediator) Stats() Stats {
	s := &m.stats
	s.mu.Lock()
	out := Stats{
		CacheHits:                s.cacheHits,
		CacheMisses:              s.cacheMisses,
		SingleflightDedups:       s.dedups,
		StaleDiscards:            s.staleDiscards,
		Invalidations:            s.invalidations,
		SourceInvalidations:      s.sourceInvalidations,
		PartsRecomputed:          s.partsRecomputed,
		PartsReused:              s.partsReused,
		SimplifierPruned:         s.simplifierPruned,
		SimplifierDropped:        s.simplifierDropped,
		SimplifierSkips:          s.simplifierSkips,
		SimplifierErrors:         s.simplifierErrors,
		DegradedViews:            s.degradedViews,
		BudgetExhaustions:        s.budgetExhaustions,
		DegradedMaterializations: s.degradedMaterializations,
		StaleMaterializations:    s.staleMaterializations,
		PartsPruned:              s.partsPruned,
		StreamValidation:         dtd.StreamValidationStats(),
		AutomataCache:            automata.CacheStats(),
		PruneVerdictCache:        infer.SatisfiabilityCacheStats(),
		Views:                    make(map[string]ViewStats, len(s.views)),
	}
	for name, vs := range s.views {
		snap := *vs
		if vh, ok := s.hists[name]; ok {
			snap.QueryLatency = vh.query.Snapshot()
			snap.MaterializeLatency = vh.materialize.Snapshot()
		}
		out.Views[name] = snap
	}
	s.mu.Unlock()

	m.mu.Lock()
	wrappers := make([]Wrapper, 0, len(m.wrappers))
	for _, w := range m.wrappers {
		wrappers = append(wrappers, w)
	}
	m.mu.Unlock()
	for _, w := range wrappers {
		if rc, ok := w.(RetryCounter); ok {
			out.Retries += rc.Retries()
		}
		if bc, ok := w.(BreakerCounter); ok {
			out.BreakerTrips += bc.BreakerTrips()
			out.BreakerRejections += bc.BreakerRejections()
		}
		if rr, ok := w.(ReplicaReporter); ok {
			rs := rr.ReplicaStatus()
			out.HedgedFetches += rs.HedgedFetches
			out.HedgeWins += rs.HedgeWins
			out.HedgesDenied += rs.HedgesDenied
			out.Failovers += rs.Failovers
			out.StaleServes += rs.StaleServes
			if out.Replicas == nil {
				out.Replicas = map[string]ReplicaSetStatus{}
			}
			out.Replicas[rs.Source] = rs
		}
	}
	return out
}

// ReplicaStatuses snapshots every registered replica-aware wrapper, keyed
// by source name (the /readyz readiness probe evaluates these).
func (m *Mediator) ReplicaStatuses() map[string]ReplicaSetStatus {
	m.mu.Lock()
	wrappers := make([]Wrapper, 0, len(m.wrappers))
	for _, w := range m.wrappers {
		wrappers = append(wrappers, w)
	}
	m.mu.Unlock()
	out := map[string]ReplicaSetStatus{}
	for _, w := range wrappers {
		if rr, ok := w.(ReplicaReporter); ok {
			rs := rr.ReplicaStatus()
			out[rs.Source] = rs
		}
	}
	return out
}
