package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/regex"
	"repro/internal/serve"
	"repro/internal/xmlmodel"
)

// ErrFaultInjected is the error injected by the harness's fault campaigns
// at the Fetch boundary.
var ErrFaultInjected = errors.New("load: injected source fault")

// Options configures one load run.
type Options struct {
	// Seed fixes the fleet, the corpora and the operation stream: two runs
	// with equal Options produce identical schemas, identical documents
	// and an identical op-for-op request plan.
	Seed int64
	// Sources is the fleet size (default 6). Families are assigned
	// round-robin from Families.
	Sources int
	// Families is the rotation of schema families (default: all).
	Families []Family
	// Depth / Width parameterize the synthesized schemas (SchemaOptions).
	Depth, Width int
	// DocMaxDepth / DocLengthBias tune corpus document size (gen.Options);
	// defaults 8 and 0.25 — a few dozen elements per source.
	DocMaxDepth   int
	DocLengthBias float64
	// RPS is the open-loop target request rate (default 100).
	RPS float64
	// Duration is the stream length (default 5s).
	Duration time.Duration
	// MaxInFlight bounds concurrent in-flight requests; an op that would
	// exceed it is shed (counted, not sent) rather than delaying the
	// open-loop schedule (default 128).
	MaxInFlight int
	// Mix weights the operation kinds (default DefaultMix).
	Mix []MixEntry
	// Target aims the stream at a remote mixserve base URL instead of the
	// in-process harness; View names the remote view to drive. Fault
	// injection and the pruning comparison need in-process sources and are
	// rejected in remote mode.
	Target string
	// View is the name of the view to drive (default "load"; required
	// meaningfully only in remote mode).
	View string
	// FaultRate, when positive, runs a fault-injection campaign: every
	// source is wrapped in a FaultSource whose seeded script fails each
	// fetch with this probability (and delays it up to FaultMaxDelay).
	FaultRate     float64
	FaultMaxDelay time.Duration
	// Breakers wraps every source in a circuit breaker, so fault campaigns
	// exercise degraded serving instead of hard 500s.
	Breakers bool
	// PruneCompare posts every distinct query of the stream to the server
	// after the run and verifies that the served bytes are internal/oracle's
	// reference's, the naive mediator's over the same documents.
	PruneCompare bool
	// SLO is evaluated against the finished run's report.
	SLO SLO
	// NoPrune disables query-time satisfiability pruning on the in-process
	// mediator (for explicit -no-prune comparison runs).
	NoPrune bool
}

// breakerCooldown is a breaker's cooldown under Options.Breakers: short
// enough that a bounded run sees trips and recoveries.
const breakerCooldown = 250 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.Sources <= 0 {
		o.Sources = 6
	}
	if len(o.Families) == 0 {
		o.Families = Families()
	}
	if o.DocMaxDepth == 0 {
		o.DocMaxDepth = 8
	}
	if o.DocLengthBias == 0 {
		o.DocLengthBias = 0.25
	}
	if o.RPS <= 0 {
		o.RPS = 100
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	if len(o.Mix) == 0 {
		o.Mix = DefaultMix()
	}
	if o.View == "" {
		o.View = "load"
	}
	return o
}

// Harness owns one load run's fixtures: the synthesized fleet, the
// mediator under test and its server (in-process mode), and the payload
// pools the planner draws from.
type Harness struct {
	opts    Options
	sources []*Source
	med     *mediator.Mediator // nil in remote mode
	server  *httptest.Server   // nil in remote mode
	base    string
	pools   *payloads
}

// NewHarness builds the fixtures for one run. In-process mode (empty
// Target) synthesizes Options.Sources sources, registers them (optionally
// behind fault injectors and breakers) under a union view, and serves the
// mediator over a loopback HTTP server, so the driven path is the same
// serve.Handler production traffic hits. Remote mode attaches to a
// running mixserve and derives its probe pool from the remote view DTD.
func NewHarness(opts Options) (*Harness, error) {
	opts = opts.withDefaults()
	h := &Harness{opts: opts}
	if opts.Target != "" {
		if opts.FaultRate > 0 || opts.Breakers || opts.PruneCompare || opts.NoPrune {
			return nil, fmt.Errorf("load: fault injection, breakers and pruning control need in-process sources; they cannot drive a remote target")
		}
		h.base = strings.TrimRight(opts.Target, "/")
		if err := h.preflight(); err != nil {
			return nil, err
		}
		if err := h.buildRemotePools(); err != nil {
			return nil, err
		}
		return h, nil
	}
	if opts.PruneCompare && opts.FaultRate > 0 {
		return nil, fmt.Errorf("load: the pruning comparison reads the served answers, which injected faults change")
	}
	if err := h.buildFleet(); err != nil {
		return nil, err
	}
	h.server = httptest.NewServer(serve.New(h.med))
	h.base = h.server.URL
	return h, nil
}

// Close releases the in-process server (no-op in remote mode).
func (h *Harness) Close() {
	if h.server != nil {
		h.server.Close()
	}
}

// Sources exposes the synthesized fleet (nil in remote mode); tests use
// it to cross-check corpora determinism and schema soundness.
func (h *Harness) Sources() []*Source { return h.sources }

// Plan returns the run's deterministic operation stream.
func (h *Harness) Plan() []Op {
	return plan(h.opts.Seed, h.opts.RPS, h.opts.Duration, h.opts.Mix, h.pools)
}

// buildFleet synthesizes the sources, wraps them per the fault/breaker
// options, registers the union view and builds the payload pools.
func (h *Harness) buildFleet() error {
	o := h.opts
	h.med = mediator.New("mixload")
	if o.NoPrune {
		h.med.SetPruning(false)
	}
	var parts []mediator.ViewPart
	scriptLen := int(o.RPS*o.Duration.Seconds()) + 1
	for i := 0; i < o.Sources; i++ {
		src, err := BuildSource(fmt.Sprintf("site%d", i), SourceOptions{
			Schema: SchemaOptions{
				Seed:   o.Seed + int64(i),
				Family: o.Families[i%len(o.Families)],
				Depth:  o.Depth,
				Width:  o.Width,
			},
			Gen: gen.Options{
				MaxDepth:   o.DocMaxDepth,
				LengthBias: o.DocLengthBias,
				AssignIDs:  true,
			},
		})
		if err != nil {
			return err
		}
		h.sources = append(h.sources, src)
		part, err := addStatic(h.med, src, func(w mediator.Wrapper) mediator.Wrapper {
			if o.FaultRate > 0 {
				w = mediator.NewFaultSource(w, mediator.RandomFaults(
					o.Seed+int64(i), scriptLen, o.FaultRate, o.FaultMaxDelay, ErrFaultInjected)...)
			}
			if o.Breakers {
				w = mediator.NewBreakerSource(w, mediator.BreakerOptions{Cooldown: breakerCooldown})
			}
			return w
		})
		if err != nil {
			return err
		}
		parts = append(parts, part)
	}
	if _, err := h.med.DefineUnionView(o.View, parts); err != nil {
		return err
	}
	h.pools = h.buildPools()
	return nil
}

// buildPools derives the query pools from the actual fleet schemas, so
// qualified probes name children that exist somewhere (and, in a
// heterogeneous fleet, are provably absent elsewhere — the prunable
// shapes).
func (h *Harness) buildPools() *payloads {
	view := h.opts.View
	p := &payloads{view: view}
	p.plain = []string{
		fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry/> </%s>`, view, view),
		fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry><name/></entry> </%s>`, view, view),
	}
	// One qualified probe per distinct entry child across the fleet: some
	// (name) hold everywhere, some (kind, profile0, description, the
	// seed-picked extras) only in part of the fleet — those prune.
	seen := map[string]bool{}
	var probes []string
	for _, s := range h.sources {
		for _, child := range modelNames(s.DTD.Types["entry"].Model) {
			if !seen[child] {
				seen[child] = true
				probes = append(probes, child)
			}
		}
	}
	sort.Strings(probes)
	for _, child := range probes {
		p.qualified = append(p.qualified,
			fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry> [<%s/>] </entry> </%s>`, view, child, view),
			fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry><%s/></entry> </%s>`, view, child, view),
		)
	}
	for _, s := range h.sources {
		p.sources = append(p.sources, s.Name)
	}
	p.infer = inferPool(h.opts.Seed)
	return p
}

// preflight checks the remote target's liveness and readiness probes
// before planning any traffic: a dead or not-ready mixserve should fail
// the run immediately with the server's own diagnosis, not as a wall of
// per-request errors. Servers predating the probes return 404, which is
// tolerated — the DTD fetch in buildRemotePools is then the only gate.
func (h *Harness) preflight() error {
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := send(context.Background(), http.MethodGet, h.base+probe, "")
		if err != nil {
			return fmt.Errorf("load: remote target %s probe: %w", probe, err)
		}
		if resp.status != http.StatusOK && resp.status != http.StatusNotFound {
			return fmt.Errorf("load: remote target %s: status %d: %s", probe, resp.status, strings.TrimSpace(resp.body))
		}
	}
	return nil
}

// buildRemotePools fetches the remote view's DTD and derives generic
// probes from its root content model.
func (h *Harness) buildRemotePools() error {
	view := h.opts.View
	resp, err := send(context.Background(), http.MethodGet, h.base+"/views/"+view+"/dtd", "")
	if err != nil {
		return fmt.Errorf("load: fetching remote view DTD: %w", err)
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("load: remote view DTD: status %d: %s", resp.status, strings.TrimSpace(resp.body))
	}
	d, err := dtd.Parse(resp.body)
	if err != nil {
		return fmt.Errorf("load: remote view DTD unparseable: %w", err)
	}
	p := &payloads{view: view}
	children := modelNames(d.Types[d.Root].Model)
	if len(children) == 0 {
		return fmt.Errorf("load: remote view %s has no element children to probe", view)
	}
	for _, c := range children {
		p.plain = append(p.plain,
			fmt.Sprintf(`r = SELECT X WHERE <%s> X:<%s/> </%s>`, d.Root, c, d.Root))
		for _, gc := range modelNames(d.Types[c].Model) {
			p.qualified = append(p.qualified,
				fmt.Sprintf(`r = SELECT X WHERE <%s> X:<%s> [<%s/>] </%s> </%s>`, d.Root, c, gc, c, d.Root))
		}
	}
	if len(p.qualified) == 0 {
		p.qualified = p.plain
	}
	// The remote fleet (GET /sources, one name per line) is the
	// invalidate-source pool. A failure leaves it empty — the op then
	// degrades to a global invalidate rather than failing the harness over
	// an optional endpoint.
	if resp, err := send(context.Background(), http.MethodGet, h.base+"/sources", ""); err == nil && resp.status == http.StatusOK {
		for _, line := range strings.Split(resp.body, "\n") {
			if line = strings.TrimSpace(line); line != "" {
				p.sources = append(p.sources, line)
			}
		}
	}
	p.infer = inferPool(h.opts.Seed)
	h.pools = p
	return nil
}

// inferPool synthesizes small /infer payloads: a DTD (DOCTYPE text)
// followed by a view definition over it — the format serve.postInfer
// consumes.
func inferPool(seed int64) []string {
	var out []string
	for i, fam := range []Family{FamilyDisjunctive, FamilyOptional} {
		d, err := Synthesize(SchemaOptions{Seed: seed + int64(i), Family: fam, Root: "probe", Width: 3, Depth: 3})
		if err != nil {
			continue // impossible for the built-in families; keep the pool usable
		}
		out = append(out, d.String()+"\n"+`v = SELECT X WHERE <probe> X:<entry><name/></entry> </probe>`)
	}
	return out
}

// modelNames collects the distinct atom names of a content model in
// first-occurrence order: one pass of the regex package's own rewriter that
// keeps every atom it is shown.
func modelNames(e regex.Expr) []string {
	var out []string
	(&regex.Rewriter{Atom: func(n regex.Name) regex.Expr {
		if !slices.Contains(out, n.Base) {
			out = append(out, n.Base)
		}
		return nil
	}}).Rewrite(e)
	return out
}

// Run executes the open-loop stream (openLoop: each op at its planned
// time, or shed) and returns the evaluated report.
func (h *Harness) Run(ctx context.Context) (*Report, error) {
	ops := h.Plan()
	rep := newReport(h.opts)

	type opRecord struct {
		hist         *obs.Histogram
		count, errs  atomic.Int64
		shed, pruned atomic.Int64
		degraded     atomic.Int64
	}
	recs := map[OpKind]*opRecord{}
	for _, k := range OpKinds() {
		recs[k] = &opRecord{hist: obs.NewHistogram()}
	}

	start := time.Now()
	shed := openLoop(ctx, len(ops), func(i int) time.Duration { return ops[i].At }, h.opts.MaxInFlight, func(i int) {
		op, rec := &ops[i], recs[ops[i].Kind]
		t0 := time.Now()
		resp, err := send(ctx, op.Method, h.base+op.Path, op.Body)
		rec.hist.Observe(time.Since(t0))
		rec.count.Add(1)
		if err != nil || resp.status >= 400 {
			rec.errs.Add(1)
		}
		if resp.header.Get("X-Mix-Pruned-Sources") != "" {
			rec.pruned.Add(1)
		}
		if resp.header.Get("X-Mix-Degraded") == "true" {
			rec.degraded.Add(1)
		}
	})
	elapsed := time.Since(start)
	for _, i := range shed {
		recs[ops[i].Kind].shed.Add(1)
	}

	rep.Planned = int64(len(ops))
	rep.ElapsedSeconds = elapsed.Seconds()
	for _, k := range OpKinds() {
		rec := recs[k]
		st := OpStats{
			Count:             rec.count.Load(),
			Errors:            rec.errs.Load(),
			Shed:              rec.shed.Load(),
			PrunedResponses:   rec.pruned.Load(),
			DegradedResponses: rec.degraded.Load(),
			Latency:           rec.hist.Snapshot(),
		}
		rep.Ops[string(k)] = st
		rep.Requests += st.Count
		rep.Errors += st.Errors
		rep.Shed += st.Shed
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Requests) / elapsed.Seconds()
	}

	// The server's own /metrics snapshot rides in the report.
	resp, err := send(ctx, http.MethodGet, h.base+"/metrics", "")
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("status %d", resp.status)
	}
	if err == nil {
		err = json.Unmarshal([]byte(resp.body), &rep.Server)
	}
	if err != nil {
		return nil, fmt.Errorf("load: scraping /metrics: %w", err)
	}
	if h.opts.PruneCompare {
		pc, err := h.pruneCompare(ctx)
		if err != nil {
			return nil, err
		}
		rep.PruneCompare = pc
	}
	rep.Evaluate(h.opts.SLO)
	return rep, ctx.Err()
}

// pruneCompare posts every distinct query of the pools to the server the run
// drove and compares each body with internal/oracle's reference over the same
// documents: pruning is proof-based, not heuristic, so none may differ.
func (h *Harness) pruneCompare(ctx context.Context) (*PruneCompare, error) {
	ref, versions, pc := oracle.NewReference(OracleFleet(h.opts.View, h.sources)), make([]int, len(h.sources)), &PruneCompare{}
	for _, body := range slices.Concat(h.pools.plain, h.pools.qualified) {
		resp, err := send(ctx, http.MethodPost, h.base+"/views/"+h.opts.View+"/query", body)
		if err != nil {
			return nil, err
		}
		_, want, err := ref.Answer(versions, h.opts.View, body)
		if err != nil {
			return nil, err
		}
		pc.Queries++
		if resp.header.Get("X-Mix-Pruned-Sources") != "" {
			pc.PrunedQueries++
		}
		if resp.status != http.StatusOK || resp.body != want {
			pc.Mismatches++
		}
	}
	return pc, nil
}

// OracleFleet is what internal/oracle checks a mediator over: the sources,
// each serving its document, under one union view of their entries.
func OracleFleet(view string, sources []*Source) *oracle.Fleet {
	f := &oracle.Fleet{Views: []oracle.View{{Name: view}}}
	for _, s := range sources {
		f.Sources = append(f.Sources, oracle.Source{Name: s.Name, DTD: s.DTD, Docs: []string{xmlmodel.MarshalElement(s.Doc.Root, -1)}})
		f.Views[0].Parts = append(f.Views[0].Parts, entryPart(s.Name))
	}
	return f
}
