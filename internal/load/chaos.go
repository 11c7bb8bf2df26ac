package load

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ChaosOptions configures a replica chaos campaign (RunChaos): a fleet of
// logical sources, each backed by Replicas interchangeable leaf servers
// behind a ReplicaSet, driven through four phases — baseline, one replica
// flapping, full blackout of one source, recovery — while the campaign
// asserts the replica machinery's contract: flapping is invisible (zero
// errors, bounded tail latency), a blackout degrades to marked DTD-valid
// stale serving instead of errors, upstream load amplification stays
// under the retry-budget ceiling, and recovery is automatic.
type ChaosOptions struct {
	// Seed fixes the synthesized fleet and corpora.
	Seed int64
	// Sources is the number of logical sources (default 3); source 0 is
	// the chaos target.
	Sources int
	// Replicas is the number of interchangeable leaf servers per source
	// (default 3).
	Replicas int
	// RPS is the open-loop request rate against the top mediator
	// (default 120).
	RPS float64
	// Phase is the duration of each of the four phases (default 2s).
	Phase time.Duration
}

// The campaign's replica machinery, scaled to the campaign, not production.
const (
	// chaosFlapInterval is how often the flapping replica toggles between up
	// and down during the flap phase.
	chaosFlapInterval = 250 * time.Millisecond
	// chaosHedgeDelay is the ReplicaSet hedge delay: the p95 estimate needs
	// more warmup than a short campaign provides.
	chaosHedgeDelay = 20 * time.Millisecond
	// chaosEjectCooldown is how long an ejected replica is skipped before a
	// recovery probe.
	chaosEjectCooldown = 150 * time.Millisecond
	// chaosHealthInterval is the active health-check cadence.
	chaosHealthInterval = 100 * time.Millisecond
	// chaosBudgetCapacity and chaosBudgetRefill shape the shared retry
	// budget: tokens, and tokens per second.
	chaosBudgetCapacity = 20
	chaosBudgetRefill   = 5
	// chaosP99Factor is the allowed tail-latency inflation during the flap
	// phase relative to the baseline p99.
	chaosP99Factor = 2
)

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Sources <= 0 {
		o.Sources = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.RPS <= 0 {
		o.RPS = 120
	}
	if o.Phase <= 0 {
		o.Phase = 2 * time.Second
	}
	return o
}

// ChaosPhase is one phase's client-observed outcome.
type ChaosPhase struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// StaleResponses counts responses whose X-Mix-Stale-Sources header
	// named the chaos source.
	StaleResponses int64 `json:"stale_responses"`
	// FinalStale reports whether a synchronous probe issued after the
	// phase's traffic drained was still served stale.
	FinalStale bool `json:"final_stale"`
	// UpstreamHits counts wire-level requests that reached the chaos
	// source's replica servers during the phase (load amplification).
	UpstreamHits int64                 `json:"upstream_hits"`
	Latency      obs.HistogramSnapshot `json:"latency"`
	// What the checks and the summary read beside the archived keys: the
	// requests the open loop shed because every in-flight slot was taken,
	// how long the phase ran, how many active health probes went out
	// meanwhile, and whether the closing probe's answer was a valid document
	// under its own inlined DTD.
	shed       int
	seconds    float64
	probes     int64
	finalValid bool
}

// ChaosReport is one campaign's archived result (CHAOS_report.json).
type ChaosReport struct {
	Seed           int64   `json:"seed"`
	Sources        int     `json:"sources"`
	Replicas       int     `json:"replicas"`
	TargetRPS      float64 `json:"target_rps"`
	PhaseSeconds   float64 `json:"phase_seconds"`
	BudgetCapacity float64 `json:"budget_capacity"`
	BudgetRefill   float64 `json:"budget_refill"`

	// Phases holds the per-phase client outcomes keyed by phase name
	// (baseline, flap, blackout, recovery).
	Phases map[string]ChaosPhase `json:"phases"`
	// ReplicaSet is the chaos source's final status snapshot.
	ReplicaSet mediator.ReplicaSetStatus `json:"replica_set"`

	Checks []SLOCheck `json:"checks"`
	Pass   bool       `json:"pass"`
}

// WriteFile archives the report (CHAOS_report.json).
func (r *ChaosReport) WriteFile(path string) error { return writeFile(path, r) }

// Summary renders a short human-readable digest of the campaign.
func (r *ChaosReport) Summary() string {
	var b strings.Builder
	for _, name := range chaosPhaseNames {
		ph, ok := r.Phases[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-9s n=%-5d err=%-3d shed=%-3d stale=%-4d upstream=%-4d p50=%s p99=%s\n",
			name, ph.Requests, ph.Errors, ph.shed, ph.StaleResponses, ph.UpstreamHits,
			fmtSeconds(ph.Latency.P50), fmtSeconds(ph.Latency.P99))
	}
	fmt.Fprintf(&b, "  replica set: %d attempts, %d hedged (%d wins, %d denied), %d failovers, %d stale serves, budget %d spent / %d denied\n",
		r.ReplicaSet.Attempts, r.ReplicaSet.HedgedFetches, r.ReplicaSet.HedgeWins,
		r.ReplicaSet.HedgesDenied, r.ReplicaSet.Failovers, r.ReplicaSet.StaleServes,
		r.ReplicaSet.BudgetSpent, r.ReplicaSet.BudgetDenied)
	return b.String() + trailer("chaos", r.Checks, r.Pass)
}

var chaosPhaseNames = []string{"baseline", "flap", "blackout", "recovery"}

// chaosReplica is one leaf server with a kill switch: while down, every
// request answers 503 without touching the inner mediator. Hits counts
// wire-level requests either way — the amplification ceiling is asserted
// against what actually reached the wire.
type chaosReplica struct {
	inner http.Handler
	down  atomic.Bool
	// flapFrom, when nonzero (a UnixNano instant), overrides down: the
	// replica is up for one flapEvery after it, down for the next, and so
	// on — a function of the clock, so flapping needs no goroutine to stop.
	flapFrom  atomic.Int64
	flapEvery time.Duration
	hits      atomic.Int64
}

func (c *chaosReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.hits.Add(1)
	down := c.down.Load()
	if from := c.flapFrom.Load(); from != 0 {
		down = time.Duration(time.Now().UnixNano()-from)/c.flapEvery%2 == 1
	}
	if down {
		http.Error(w, "chaos: replica down", http.StatusServiceUnavailable)
		return
	}
	c.inner.ServeHTTP(w, r)
}

// chaosFixture owns the campaign's servers and mediator.
type chaosFixture struct {
	servers
	top    *mediator.Mediator
	topSrv *httptest.Server
	target []*chaosReplica // the replicas of the chaos source, source 0
	sets   []*mediator.ReplicaSet
}

// chaosTarget is the chaos source's name.
const chaosTarget = "site0"

// targetHits sums wire-level requests across the chaos source's replicas.
func (c *chaosFixture) targetHits() int64 {
	var n int64
	for _, rep := range c.target {
		n += rep.hits.Load()
	}
	return n
}

// blackout takes every replica of the chaos source down, or brings them
// all back.
func (c *chaosFixture) blackout(down bool) {
	for _, rep := range c.target {
		rep.down.Store(down)
	}
}

func newChaosFixture(o ChaosOptions) (_ *chaosFixture, err error) {
	c := &chaosFixture{top: mediator.New("chaos")}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var parts []mediator.ViewPart
	for i := 0; i < o.Sources; i++ {
		view := fmt.Sprintf("site%d", i)
		src, err := fleetSource("raw", o.Seed, i)
		if err != nil {
			return nil, err
		}
		// Every replica of a source serves the same synthesized document
		// through its own leaf mediator — genuinely interchangeable, which
		// is what NewReplicaSet's DTD-equivalence check demands.
		var wrappers []mediator.Wrapper
		for r := 0; r < o.Replicas; r++ {
			leaf := mediator.New(fmt.Sprintf("%s-r%d", view, r))
			part, err := addStatic(leaf, src, nil)
			if err != nil {
				return nil, err
			}
			if _, err := leaf.DefineUnionView(view, []mediator.ViewPart{part}); err != nil {
				return nil, err
			}
			cr := &chaosReplica{inner: serve.New(leaf), flapEvery: chaosFlapInterval}
			srv := httptest.NewServer(cr)
			c.servers = append(c.servers, srv)
			if i == 0 {
				c.target = append(c.target, cr)
			}
			hs, err := mediator.NewHTTPSource(srv.Client(), srv.URL, view,
				mediator.WithRetries(0)) // the ReplicaSet owns failover
			if err != nil {
				return nil, err
			}
			wrappers = append(wrappers, hs)
		}
		rs, err := mediator.NewReplicaSet(view, wrappers, mediator.ReplicaSetOptions{
			Health:     mediator.HealthOptions{EjectCooldown: chaosEjectCooldown},
			HedgeDelay: chaosHedgeDelay,
			Budget: mediator.NewRetryBudget(mediator.RetryBudgetOptions{
				Capacity:        chaosBudgetCapacity,
				RefillPerSecond: chaosBudgetRefill,
			}),
		})
		if err != nil {
			return nil, err
		}
		c.sets = append(c.sets, rs)
		if err := c.top.AddSource(rs); err != nil {
			return nil, err
		}
		parts = append(parts, entryPart(view))
	}
	if _, err := c.top.DefineUnionView("chaos", parts); err != nil {
		return nil, err
	}
	c.topSrv = httptest.NewServer(serve.New(c.top))
	c.servers = append(c.servers, c.topSrv)
	return c, nil
}

// probe is the campaign's one request: invalidate the chaos source (so its
// next materialization refetches through the ReplicaSet), GET the union
// view, and report whether the answer was served stale for that source.
func (c *chaosFixture) probe(ctx context.Context) (resp response, stale bool, err error) {
	c.top.InvalidateSource(chaosTarget)
	resp, err = send(ctx, http.MethodGet, c.topSrv.URL+"/views/chaos", "")
	stale = slices.Contains(strings.Split(resp.header.Get("X-Mix-Stale-Sources"), ","), chaosTarget)
	return resp, stale, err
}

// phase is one row of the campaign's table. Every phase sends the same
// probe and reads off the same outcome into rep.Phases[name]; what differs is
// only what enter flips first and exit (either may be nil) flips back.
func (c *chaosFixture) phase(rep *ChaosReport, name string, enter, exit func()) phase {
	hist := obs.NewHistogram()
	var requests, failed, staleN atomic.Int64
	record := func(resp response, stale bool, err error) {
		requests.Add(1)
		if err != nil || resp.status != http.StatusOK {
			failed.Add(1)
		}
		if stale {
			staleN.Add(1)
		}
	}
	var since time.Time
	var hits, probes int64
	return phase{
		name: name,
		enter: func() {
			hits, probes = c.targetHits(), c.sets[0].ReplicaStatus().ActiveProbes
			if enter != nil {
				enter()
			}
			since = time.Now()
		},
		fire: func(ctx context.Context, _ int) {
			t0 := time.Now()
			resp, stale, err := c.probe(ctx)
			hist.Observe(time.Since(t0))
			record(resp, stale, err)
		},
		exit: func(ctx context.Context, shed int) {
			// One more probe, the traffic drained and the fleet still as the
			// phase had it: where the phase ended.
			resp, stale, err := c.probe(ctx)
			record(resp, stale, err)
			doc, d, perr := dtd.ParseDocument(resp.body)
			rep.Phases[name] = ChaosPhase{
				Requests:       requests.Load(),
				Errors:         failed.Load(),
				StaleResponses: staleN.Load(),
				FinalStale:     stale,
				UpstreamHits:   c.targetHits() - hits,
				Latency:        hist.Snapshot(),
				shed:           shed,
				seconds:        time.Since(since).Seconds(),
				probes:         c.sets[0].ReplicaStatus().ActiveProbes - probes,
				finalValid:     err == nil && resp.status == http.StatusOK && perr == nil && d != nil && d.Validate(doc) == nil,
			}
			if exit != nil {
				exit()
			}
		},
	}
}

// RunChaos executes the four-phase replica chaos campaign and evaluates
// its checks. It is deterministic in fleet and corpora (Seed) but not in
// timing — the checks are therefore bounds, not exact counts.
func RunChaos(ctx context.Context, opts ChaosOptions) (*ChaosReport, error) {
	o := opts.withDefaults()
	c, err := newChaosFixture(o)
	if err != nil {
		return nil, err
	}
	defer c.close()

	// Active health checks notice recovery without query traffic, exactly
	// as cmd/mixserve wires them.
	hctx, hstop := context.WithCancel(ctx)
	defer hstop()
	for _, rs := range c.sets {
		go rs.RunHealthChecks(hctx, chaosHealthInterval, chaosHealthInterval)
	}

	rep := &ChaosReport{
		Seed:           o.Seed,
		Sources:        o.Sources,
		Replicas:       o.Replicas,
		TargetRPS:      o.RPS,
		PhaseSeconds:   o.Phase.Seconds(),
		BudgetCapacity: chaosBudgetCapacity,
		BudgetRefill:   chaosBudgetRefill,
		Phases:         map[string]ChaosPhase{},
	}

	flapper := c.target[0]
	err = runPhases(ctx, o.RPS, o.Phase, []phase{
		// A clean fleet; also warms the last-known-good copy the blackout
		// will serve from.
		c.phase(rep, "baseline", nil, nil),
		c.phase(rep, "flap",
			func() { flapper.flapFrom.Store(time.Now().UnixNano()) },
			func() { flapper.flapFrom.Store(0) }),
		c.phase(rep, "blackout", func() { c.blackout(true) }, nil),
		c.phase(rep, "recovery", func() { c.blackout(false) }, nil),
	})
	rep.ReplicaSet = c.sets[0].ReplicaStatus()
	if err != nil {
		return rep, err
	}

	// Evaluation. Tail-latency bounds get a small absolute slack (more
	// under the race detector) so scheduler noise on a loopback fixture
	// does not fail a structural property.
	slack := 0.025
	if raceEnabled {
		slack = 0.1
	}
	base, flap, blackout, rec := rep.Phases["baseline"], rep.Phases["flap"], rep.Phases["blackout"], rep.Phases["recovery"]
	v := newVerdict(&rep.Checks, &rep.Pass)
	v.atMost("baseline.errors", 0, float64(base.Errors))
	v.atMost("flap.errors", 0, float64(flap.Errors))
	v.atMost("flap.p99_seconds", chaosP99Factor*base.Latency.P99+slack, flap.Latency.P99)
	v.atMost("blackout.errors", 0, float64(blackout.Errors))
	v.atLeast("blackout.stale_responses", 1, float64(blackout.StaleResponses))
	// The stale-serving guarantee is "schema-valid but possibly outdated".
	v.atLeast("blackout.stale_answer_dtd_valid", 1, boolF(blackout.FinalStale && blackout.finalValid))
	// Load amplification ceiling: beyond one free primary attempt per
	// request, every upstream hit is either budget-funded (capacity plus
	// refill over the phase) or an active health probe.
	v.atMost("blackout.upstream_hits",
		float64(blackout.Requests)+chaosBudgetCapacity+chaosBudgetRefill*blackout.seconds+float64(blackout.probes)+8,
		float64(blackout.UpstreamHits))
	v.atMost("recovery.errors", 0, float64(rec.Errors))
	v.atMost("recovery.final_not_stale", 0, boolF(rec.FinalStale))
	return rep, nil
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
