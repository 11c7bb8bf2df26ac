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
// (cmd/mixserve). A scalar is declared here and nowhere else: the field
// holds the number (the live one, in statsCounters), its json tag is the
// JSON name, and its metric and help tags are the Prometheus series
// (obs.MetricWriter.Struct derives the kind from the name). Adding a counter
// is adding one tagged field and the line that increments it.
type Stats struct {
	// Every materialization (Materialize call, or the masked one under a
	// Query) is counted once, by what it found in the part slots:
	// CacheHits when every kept part's result was cached, CacheMisses when
	// it had to compute at least one part itself, SingleflightDedups when
	// it computed nothing but waited on a part another call was already
	// computing — counted when it starts waiting, not when it returns. (A
	// waiter that takes over a part its computing caller abandoned adds a
	// miss.) StaleDiscards counts part results that completed after an
	// invalidation of their source: returned to their waiters and kept only
	// as what the refetch is compared with, never served again.
	CacheHits          int64 `json:"cache_hits" metric:"mix_cache_hits_total" help:"Materializations whose every kept part was cached."`
	CacheMisses        int64 `json:"cache_misses" metric:"mix_cache_misses_total" help:"Materializations that computed at least one view part."`
	SingleflightDedups int64 `json:"singleflight_dedups" metric:"mix_singleflight_dedups_total" help:"Materializations that computed nothing but waited on a part computation already running, counted on joining."`
	StaleDiscards      int64 `json:"stale_discards" metric:"mix_stale_discards_total" help:"Part results not kept because their source was invalidated mid-flight."`
	Invalidations      int64 `json:"invalidations" metric:"mix_invalidations_total" help:"View cache invalidations."`
	// SourceInvalidations counts InvalidateSource calls (scoped, delta-
	// maintained invalidations, as opposed to the global Invalidations).
	SourceInvalidations int64 `json:"source_invalidations" metric:"mix_source_invalidations_total" help:"Per-source (delta) cache invalidations."`

	// PartsRecomputed / PartsReused count, over the materializations that
	// missed, the view parts evaluated against their source vs. served
	// from their slot. Their ratio is the figure of merit of delta
	// maintenance: under invalidate-source traffic most parts should be
	// reused, not refetched.
	PartsRecomputed int64 `json:"parts_recomputed" metric:"mix_parts_recomputed_total" help:"View parts evaluated against their source during materializations that missed."`
	PartsReused     int64 `json:"parts_reused" metric:"mix_parts_reused_total" help:"View parts served from their cache slot during materializations that missed."`
	// PartsRevalidated counts, among PartsRecomputed, the parts whose
	// refetch returned the document their slot already held: the result was
	// carried over, nothing was evaluated and the view's tag did not move.
	PartsRevalidated int64 `json:"parts_revalidated" metric:"mix_parts_revalidated_total" help:"Refetched view parts whose source returned the document already held (result carried over, not evaluated)."`

	// Simplifier totals across all queries (Section 4.2's side effects).
	SimplifierPruned  int64 `json:"simplifier_pruned" metric:"mix_simplifier_pruned_total" help:"Query conditions pruned by the DTD-based simplifier."`
	SimplifierDropped int64 `json:"simplifier_dropped" metric:"mix_simplifier_dropped_total" help:"Names dropped by the DTD-based simplifier."`
	SimplifierSkips   int64 `json:"simplifier_skips" metric:"mix_simplifier_skips_total" help:"Queries answered as unsatisfiable without touching data."`
	SimplifierErrors  int64 `json:"simplifier_errors" metric:"mix_simplifier_errors_total" help:"Queries that fell back to the unsimplified path."`

	// Retries sums the transient-failure retries of the registered sources'
	// wrappers (HTTPSource), wherever in a decorator stack they sit — as do
	// the breaker and replica totals below; see SourceReport.
	Retries int64 `json:"retries" metric:"mix_wrapper_retries_total" help:"Transient-failure retries across retry-aware wrappers."`
	// NotModified sums the fetches a remote answered 304 Not Modified: the
	// wrapper (HTTPSource) returned the document it had already validated
	// and nothing was shipped, scanned or parsed.
	NotModified int64 `json:"not_modified" metric:"mix_wrapper_not_modified_total" help:"Remote fetches answered 304 Not Modified (the validated document was reused)."`
	// UnchangedBodies sums the fetches a remote answered in full with the
	// bytes the wrapper already held: the body was read and compared, and
	// the validated document was returned again.
	UnchangedBodies int64 `json:"unchanged_bodies" metric:"mix_wrapper_unchanged_bodies_total" help:"Remote fetches answered 200 with the body already held (the validated document was reused)."`

	// DegradedViews counts view definitions whose DTD inference exhausted
	// its budget and registered a sound-but-looser DTD;
	// BudgetExhaustions counts budget-exhaustion events observed by the
	// mediator (currently one per degraded view definition).
	DegradedViews     int64 `json:"degraded_views" metric:"mix_degraded_views_total" help:"View definitions registered with a budget-degraded DTD."`
	BudgetExhaustions int64 `json:"budget_exhaustions" metric:"mix_budget_exhaustions_total" help:"Inference budget exhaustion events."`
	// DegradedMaterializations counts materializations served without the
	// parts of breaker-open sources (partial view documents; the dropped
	// parts are not cached).
	DegradedMaterializations int64 `json:"degraded_materializations" metric:"mix_degraded_materializations_total" help:"Materializations served without breaker-open sources."`

	// BreakerTrips / BreakerRejections sum the circuit-breaker counters
	// (BreakerSource): transitions to the open state, and fetches rejected
	// while open.
	BreakerTrips      int64 `json:"breaker_trips" metric:"mix_breaker_trips_total" help:"Circuit-breaker transitions to the open state."`
	BreakerRejections int64 `json:"breaker_rejections" metric:"mix_breaker_rejections_total" help:"Fetches rejected by an open circuit breaker."`

	// Replica-tier totals, summed over every ReplicaSet: hedged reads
	// launched / won / denied by the retry budget, failover launches, and
	// fetches answered from a last-known-good document.
	// StaleMaterializations counts materializations that included at least
	// one stale part (uncached, surfaced as X-Mix-Stale-Sources).
	HedgedFetches         int64 `json:"hedged_fetches" metric:"mix_hedged_fetches_total" help:"Hedged reads launched across replica sets."`
	HedgeWins             int64 `json:"hedge_wins" metric:"mix_hedge_wins_total" help:"Fetches won by a hedge or failover rather than the primary."`
	HedgesDenied          int64 `json:"hedges_denied" metric:"mix_hedges_denied_total" help:"Hedges denied because the retry budget was dry."`
	Failovers             int64 `json:"failovers" metric:"mix_replica_failovers_total" help:"Failover fetches launched after a replica failure."`
	StaleServes           int64 `json:"stale_serves" metric:"mix_stale_serves_total" help:"Fetches answered from a last-known-good document."`
	StaleMaterializations int64 `json:"stale_materializations" metric:"mix_stale_materializations_total" help:"Materializations containing at least one stale part."`
	// Replicas holds the per-source replica-set status snapshots, keyed by
	// source name.
	Replicas map[string]ReplicaSetStatus `json:"replicas,omitempty"`

	// PartsPruned counts view parts skipped by query-time satisfiability
	// pruning (see prune.go) — sources never fetched because the query was
	// proven unable to touch them. Pruning preserves answers exactly, so
	// this is a pure saving, not a degradation.
	PartsPruned int64 `json:"parts_pruned" metric:"mix_parts_pruned_total" help:"View parts skipped by query-time satisfiability pruning (sources never fetched)."`
	// PruneVerdictCache snapshots the process-wide satisfiability-verdict
	// cache (infer.SatisfiabilityCacheStats): hits are queries whose
	// prune decision cost one lookup; misses include every Unknown verdict
	// recomputation, since Unknown is deliberately never cached.
	PruneVerdictCache verdictCacheStats `json:"prune_verdict_cache"`

	// PlanHits / PlanMisses / PlanCacheSize snapshot this mediator's
	// query-plan memo (plan.go): a hit is a query whose simplification and
	// prune verdicts cost one lookup, a miss is an analysis that ran — once
	// per distinct (view, query), and again for every plan that is not kept
	// (simplifier error, Unknown verdict). A query that joined an analysis
	// already running is neither. On a workload of repeated queries the
	// verdict cache above goes quiet: no lookup is made at all.
	// PlanTextHits counts, among PlanHits, the queries that found their plan
	// by their text (Mediator.Answer); the texts are entries of PlanCacheSize.
	PlanHits      int64 `json:"plan_hits" metric:"mix_query_plan_hits_total" help:"Queries answered from a kept query plan (no simplification, no verdict lookup)."`
	PlanTextHits  int64 `json:"plan_text_hits" metric:"mix_query_plan_text_hits_total" help:"Queries whose kept plan was found by the request's own text (not parsed either)."`
	PlanMisses    int64 `json:"plan_misses" metric:"mix_query_plan_misses_total" help:"Query analyses run (includes plans not kept: simplifier errors, Unknown verdicts)."`
	PlanCacheSize int64 `json:"plan_cache_size" metric:"mix_query_plan_cache_size" help:"Entries of the query-plan memo: kept plans and the request texts that name them."`
	// AnswerPartsReused / AnswerPartsEvaluated count, over the queries answered
	// part by part (answerByPart), the parts taken from their slot's memo vs. walked.
	AnswerPartsReused    int64 `json:"answer_parts_reused" metric:"mix_answer_parts_reused_total" help:"View parts whose picks for a query came from the part slot's answer memo."`
	AnswerPartsEvaluated int64 `json:"answer_parts_evaluated" metric:"mix_answer_parts_evaluated_total" help:"View parts a query was evaluated over because their slot had no answer for it."`

	// AnswerBytesRendered / AnswerBytesCopied count the bytes sent from a part
	// slot's kept serialization, by the read that made it and by every read
	// after; AnswerBytesHeld is what the slots hold now.
	AnswerBytesRendered int64 `json:"answer_bytes_rendered" metric:"mix_answer_bytes_rendered_total" help:"Bytes serialized into a part slot, to be kept beside the picks they are of."`
	AnswerBytesCopied   int64 `json:"answer_bytes_copied" metric:"mix_answer_bytes_copied_total" help:"Bytes sent from a part slot's kept serialization instead of being serialized."`
	AnswerBytesHeld     int64 `json:"answer_bytes_held" metric:"mix_answer_bytes_held" help:"Serialized bytes the part slots hold now."`

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

// verdictCacheStats is a cache.Stats snapshot under the verdict cache's own
// series: cache.Stats declares the compiled-automata cache's, and this
// cache's are not those with another prefix (mix_prune_verdict_cache_size,
// and no series for dedups and evictions). Same fields, same JSON.
type verdictCacheStats struct {
	Hits      int64 `json:"hits" metric:"mix_prune_verdict_hits_total" help:"Satisfiability-verdict cache hits."`
	Misses    int64 `json:"misses" metric:"mix_prune_verdict_misses_total" help:"Satisfiability-verdict cache misses (includes uncacheable Unknown verdicts)."`
	Dedups    int64 `json:"dedups"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size" metric:"mix_prune_verdict_cache_size" help:"Entries currently in the satisfiability-verdict cache."`
	Capacity  int   `json:"capacity"`
}

// statsCounters is the mutable backing store for Stats: the counters the
// mediator itself increments live in the embedded Stats value (its other
// fields are filled in per snapshot), the per-view ones beside it. It has
// its own mutex and its methods never touch Mediator.mu, so callers may
// invoke them while holding it (the reverse — holding statsCounters.mu
// while taking Mediator.mu — never happens).
type statsCounters struct {
	mu sync.Mutex
	Stats
	views map[string]*ViewStats
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
	s.SimplifierPruned += int64(pruned)
	s.SimplifierDropped += int64(dropped)
	if skipped {
		s.SimplifierSkips++
	}
	s.mu.Unlock()
}

// Stats returns a consistent snapshot of the serving counters, plus the
// process-wide cache and validation counters and what the registered
// sources' wrappers report.
func (m *Mediator) Stats() Stats {
	s := &m.stats
	s.mu.Lock()
	out := s.Stats
	out.Views = make(map[string]ViewStats, len(s.views))
	for name, vs := range s.views {
		snap := *vs
		if vh, ok := s.hists[name]; ok {
			snap.QueryLatency = vh.query.Snapshot()
			snap.MaterializeLatency = vh.materialize.Snapshot()
		}
		out.Views[name] = snap
	}
	s.mu.Unlock()
	out.StreamValidation = dtd.StreamValidationStats()
	out.AutomataCache = automata.CacheStats()
	out.PruneVerdictCache = verdictCacheStats(infer.SatisfiabilityCacheStats())
	plans := m.plans.Stats()
	out.PlanHits, out.PlanMisses, out.PlanCacheSize = plans.Hits+out.PlanTextHits, plans.Misses, int64(plans.Size)
	m.mu.Lock()
	for _, slots := range m.slots {
		for _, c := range slots {
			if c != nil && !c.finished() {
				c = c.prev // what the slot holds while c runs
			}
			if c != nil && c.res.answers != nil && c.res.answers.bytes != nil {
				for _, b := range c.res.answers.bytes {
					out.AnswerBytesHeld += int64(len(b))
				}
			}
		}
	}
	m.mu.Unlock()

	rep := m.sourceReport()
	out.Retries = rep.Retries
	out.NotModified = rep.NotModified
	out.UnchangedBodies = rep.UnchangedBodies
	out.BreakerTrips = rep.BreakerTrips
	out.BreakerRejections = rep.BreakerRejections
	for _, rs := range rep.Replicas {
		out.HedgedFetches += rs.HedgedFetches
		out.HedgeWins += rs.HedgeWins
		out.HedgesDenied += rs.HedgesDenied
		out.Failovers += rs.Failovers
		out.StaleServes += rs.StaleServes
	}
	out.Replicas = rep.replicasBySource()
	return out
}

// ReplicaStatuses snapshots every replica set among the registered sources,
// keyed by source name (the /readyz readiness probe evaluates these).
func (m *Mediator) ReplicaStatuses() map[string]ReplicaSetStatus {
	return m.sourceReport().replicasBySource()
}

// SourceReport is what the wrappers of a source count, summed over a
// decorator stack: each wrapper that counts something, or wraps another
// wrapper, implements Reporter.
type SourceReport struct {
	Retries           int64
	NotModified       int64
	UnchangedBodies   int64
	BreakerTrips      int64
	BreakerRejections int64
	// Replicas has one status per ReplicaSet, outermost first.
	Replicas []ReplicaSetStatus
}

// Reporter is the one optional interface beside Wrapper. Report adds the
// wrapper's own figures to r and hands r to every wrapper it wraps
// (r.Collect), so no decorator hides what sits below it.
type Reporter interface {
	Report(r *SourceReport)
}

// Collect adds what w reports, if it reports anything, to r.
func (r *SourceReport) Collect(w Wrapper) {
	if rep, ok := w.(Reporter); ok {
		rep.Report(r)
	}
}

func (r *SourceReport) replicasBySource() map[string]ReplicaSetStatus {
	if len(r.Replicas) == 0 {
		return nil
	}
	out := make(map[string]ReplicaSetStatus, len(r.Replicas))
	for _, rs := range r.Replicas {
		out[rs.Source] = rs
	}
	return out
}

// sourceReport collects the reports of every registered source.
func (m *Mediator) sourceReport() *SourceReport {
	m.mu.Lock()
	wrappers := make([]Wrapper, 0, len(m.wrappers))
	for _, w := range m.wrappers {
		wrappers = append(wrappers, w)
	}
	m.mu.Unlock()
	rep := &SourceReport{}
	for _, w := range wrappers {
		rep.Collect(w)
	}
	return rep
}
