package load

import (
	"fmt"
	"io"
	"time"

	"repro/internal/mediator"
	"repro/internal/obs"
)

// SLO is the service-level objective a run is held to. Latency ceilings
// apply to the client-observed per-op histograms (the end-to-end number a
// user sees); the server-side /metrics histograms land in the report for
// drill-down. Zero values mean "use the default"; use Unchecked to skip a
// ceiling entirely.
type SLO struct {
	// P95 / P99 are latency ceilings applied to every op kind's client
	// latency histogram (defaults 250ms / 1s).
	P95, P99 time.Duration
	// MaxErrorRate caps errors/requests over the whole run (default 0 —
	// a healthy in-process run must not fail a single request).
	MaxErrorRate float64
	// MaxShedRate caps shed/planned — ops skipped because MaxInFlight was
	// saturated (default 0.01).
	MaxShedRate float64
	// ExpectFaults marks a fault-injection campaign: degraded responses
	// and breaker trips are then expected and not asserted to be zero.
	// Without it, any degraded materialization, breaker trip or breaker
	// rejection in the scraped server stats fails the run.
	ExpectFaults bool
}

// Unchecked is a sentinel for "no ceiling" (distinguished from 0 = use
// the default).
const Unchecked = time.Duration(-1)

// UncheckedRate skips a rate ceiling.
const UncheckedRate = float64(-1)

func (s SLO) withDefaults() SLO {
	if s.P95 == 0 {
		s.P95 = 250 * time.Millisecond
	}
	if s.P99 == 0 {
		s.P99 = time.Second
	}
	if s.MaxShedRate == 0 {
		s.MaxShedRate = 0.01
	}
	// MaxErrorRate's default IS zero: stay strict unless the caller opts
	// out with UncheckedRate.
	return s
}

// SLOCheck is one evaluated assertion.
type SLOCheck struct {
	Name   string  `json:"name"`
	Limit  float64 `json:"limit"`
	Actual float64 `json:"actual"`
	Pass   bool    `json:"pass"`
}

// OpStats aggregates one op kind's client-side outcome.
type OpStats struct {
	Count  int64 `json:"count"`
	Errors int64 `json:"errors"`
	// Shed counts ops skipped because MaxInFlight was saturated at their
	// scheduled time (open-loop overload signal).
	Shed int64 `json:"shed"`
	// PrunedResponses / DegradedResponses count responses carrying
	// X-Mix-Pruned-Sources / X-Mix-Degraded — the two must move
	// independently (pruning is exact, degradation is not).
	PrunedResponses   int64 `json:"pruned_responses"`
	DegradedResponses int64 `json:"degraded_responses"`
	// Latency is the client-observed latency histogram with interpolated
	// p50/p95/p99.
	Latency obs.HistogramSnapshot `json:"latency"`
}

// PruneCompare is the result of the -no-prune comparison run.
type PruneCompare struct {
	// Queries is the number of distinct stream queries re-answered against
	// the pruning-on and pruning-off twin mediators.
	Queries int `json:"queries"`
	// PrunedQueries counts those where pruning actually skipped sources.
	PrunedQueries int `json:"pruned_queries"`
	// Mismatches counts answer differences — always 0 for sound pruning.
	Mismatches int `json:"mismatches"`
}

// Report is one run's result, as mixload -out writes it.
type Report struct {
	// Echo of the run configuration.
	Seed            int64    `json:"seed"`
	TargetRPS       float64  `json:"target_rps"`
	DurationSeconds float64  `json:"duration_seconds"`
	Sources         int      `json:"sources"`
	Families        []string `json:"families"`
	FaultRate       float64  `json:"fault_rate,omitempty"`
	Breakers        bool     `json:"breakers,omitempty"`

	// Outcome.
	Planned        int64   `json:"planned_ops"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	Shed           int64   `json:"shed"`
	ErrorRate      float64 `json:"error_rate"`
	AchievedRPS    float64 `json:"achieved_rps"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Ops holds per-kind client-side stats keyed by op kind.
	Ops map[string]OpStats `json:"ops"`

	// Server is the /metrics snapshot scraped after the run — the
	// authoritative server-side counters and histograms.
	Server mediator.Stats `json:"server"`

	// PruneCompare is present when the run included the -no-prune
	// comparison.
	PruneCompare *PruneCompare `json:"prune_compare,omitempty"`

	// SLO lists the evaluated assertions; Pass is their conjunction.
	SLO  []SLOCheck `json:"slo"`
	Pass bool       `json:"pass"`
}

func newReport(o Options) *Report {
	fams := make([]string, 0, len(o.Families))
	for _, f := range o.Families {
		fams = append(fams, string(f))
	}
	return &Report{
		Seed:            o.Seed,
		TargetRPS:       o.RPS,
		DurationSeconds: o.Duration.Seconds(),
		Sources:         o.Sources,
		Families:        fams,
		FaultRate:       o.FaultRate,
		Breakers:        o.Breakers,
		Ops:             map[string]OpStats{},
	}
}

// Evaluate runs the SLO assertions over the report, filling SLO and Pass.
func (r *Report) Evaluate(slo SLO) {
	slo = slo.withDefaults()
	v := newVerdict(&r.SLO, &r.Pass)
	for _, k := range OpKinds() {
		st, ok := r.Ops[string(k)]
		if !ok || st.Count == 0 {
			continue
		}
		if slo.P95 != Unchecked {
			v.atMost(fmt.Sprintf("%s.p95_seconds", k), slo.P95.Seconds(), st.Latency.P95)
		}
		if slo.P99 != Unchecked {
			v.atMost(fmt.Sprintf("%s.p99_seconds", k), slo.P99.Seconds(), st.Latency.P99)
		}
	}
	if slo.MaxErrorRate != UncheckedRate {
		v.atMost("error_rate", slo.MaxErrorRate, r.ErrorRate)
	}
	if slo.MaxShedRate != UncheckedRate && r.Planned > 0 {
		v.atMost("shed_rate", slo.MaxShedRate, float64(r.Shed)/float64(r.Planned))
	}
	if !slo.ExpectFaults {
		// A fault-free run must see no degraded serving anywhere: the
		// scraped server counters are the ground truth the response
		// headers can only sample.
		v.atMost("server.degraded_materializations", 0, float64(r.Server.DegradedMaterializations))
		v.atMost("server.breaker_trips", 0, float64(r.Server.BreakerTrips))
		v.atMost("server.breaker_rejections", 0, float64(r.Server.BreakerRejections))
		var degraded int64
		for _, st := range r.Ops {
			degraded += st.DegradedResponses
		}
		v.atMost("client.degraded_responses", 0, float64(degraded))
	}
	if r.PruneCompare != nil {
		v.atMost("prune_compare.mismatches", 0, float64(r.PruneCompare.Mismatches))
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// WriteFile writes the report to path (mixload -out).
func (r *Report) WriteFile(path string) error { return writeFile(path, r) }

// Summary renders a short human-readable digest of the run.
func (r *Report) Summary() string {
	out := fmt.Sprintf("planned %d ops, sent %d (%.1f rps achieved, target %.1f), %d errors (rate %.4f), %d shed\n",
		r.Planned, r.Requests, r.AchievedRPS, r.TargetRPS, r.Errors, r.ErrorRate, r.Shed)
	for _, k := range OpKinds() {
		st, ok := r.Ops[string(k)]
		if !ok || st.Count == 0 {
			continue
		}
		out += fmt.Sprintf("  %-12s n=%-6d err=%-4d p50=%s p95=%s p99=%s pruned=%d degraded=%d\n",
			k, st.Count, st.Errors,
			fmtSeconds(st.Latency.P50), fmtSeconds(st.Latency.P95), fmtSeconds(st.Latency.P99),
			st.PrunedResponses, st.DegradedResponses)
	}
	if r.Server.SourceInvalidations > 0 || r.Server.PartsReused > 0 || r.Server.PartsRecomputed > 0 {
		out += fmt.Sprintf("  delta: %d source invalidations, %d parts recomputed, %d reused\n",
			r.Server.SourceInvalidations, r.Server.PartsRecomputed, r.Server.PartsReused)
	}
	if r.PruneCompare != nil {
		out += fmt.Sprintf("  prune-compare: %d queries (%d pruned), %d mismatches\n",
			r.PruneCompare.Queries, r.PruneCompare.PrunedQueries, r.PruneCompare.Mismatches)
	}
	return out + trailer("SLO", r.SLO, r.Pass)
}
