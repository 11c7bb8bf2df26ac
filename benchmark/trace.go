package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The traced run prices the layers from the benchmark's own files: it
// calls each layer's public functions, in the order the handlers do, one
// call at a time in one goroutine, and records a span around every call.
// Spans inside the program are a later change.

// span is one timed call into a layer. Parent is the span that, in the
// real request, would have made this call; spans of one op share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// time runs f inside a span and returns the span's id and duration.
func (t *tracer) time(name string, op int64, parent int, f func()) (int, time.Duration) {
	return t.until(name, op, parent, func() time.Time { f(); return time.Now() })
}

// until is time for a call that says itself when its span ended.
func (t *tracer) until(name string, op int64, parent int, f func() time.Time) (int, time.Duration) {
	start := time.Now()
	end := f()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return id, end.Sub(start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples collects per-call costs by layer metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// sink is where one priced op's times go: always to a sample set, and —
// for an op replayed from the plan — to the additive table as well.
type sink struct {
	l    *layers
	into samples
	book bool
}

// incl records an inclusive time (a span with its children).
func (k sink) incl(layer string, d time.Duration) { k.into.add(layer+"_us", us(d)) }

// self records a layer's own time and books it to the table.
func (k sink) self(layer string, d time.Duration) {
	k.incl(layer, d)
	k.attribute(layer, d)
}

// attribute books d to a layer of the additive table. Differences of two
// separately timed calls are booked signed — clamping each one would bias
// the sums — so the layers add up to the loopback time exactly.
func (k sink) attribute(layer string, d time.Duration) {
	if k.book {
		k.l.self[layer] += d
		k.l.rows[len(k.l.rows)-1][layer] += d
	}
}

// begin opens the op's row of the table with its loopback time.
func (k sink) begin(loopback time.Duration) {
	if k.book {
		k.l.readOps++
		k.l.loopback += loopback
		k.l.rows = append(k.l.rows, map[string]time.Duration{})
		k.l.loopbacks = append(k.l.loopbacks, us(loopback))
	}
}

// layers is the state of one traced run.
type layers struct {
	c  runConfig
	st *stack
	d  *driver
	tr *tracer
	// replay holds per-call costs seen while replaying the plan; probe the
	// ones from calling a layer directly on the workload's fixtures. A
	// metric reports the replay's median where the plan exercised the
	// layer, the probe's otherwise.
	replay, probe samples
	// self sums, over the replayed read-class ops, the time attributed to
	// each layer; loopback sums their sequential end-to-end latency. The
	// shares are ratios of these sums, so they add up exactly.
	self     map[string]time.Duration
	loopback time.Duration
	readOps  int
	// rows keeps the same attribution per replayed read-class op, and
	// loopbacks each op's loopback time, for the median view of the table.
	rows      []map[string]time.Duration
	loopbacks []float64
	// stale[view] lists sources invalidated since the view was last
	// settled; restore re-invalidates them so that every repeated call of
	// one op starts from the cache state the first call found.
	stale       map[int]map[int]bool
	marshalB    float64
	marshalT    time.Duration
	evalEntries int
	evalT       time.Duration
}

// replayOps bounds the sequential replay; replayShare bounds its time.
const (
	replayOps   = 300
	replayShare = 0.25
)

// traceRun is the --trace 1 run.
func traceRun(c runConfig, st *stack, d *driver, values map[string]float64) error {
	l := &layers{c: c, st: st, d: d, tr: &tracer{t0: time.Now()},
		replay: samples{}, probe: samples{}, self: map[string]time.Duration{}, stale: map[int]map[int]bool{}}

	// 1. Sequential replay of the plan's first operations.
	deadline := time.Now().Add(c.span(replayShare))
	replayed := 0
	for ; replayed < replayOps && time.Now().Before(deadline); replayed++ {
		l.replayOp(st.fx.opAt(int64(replayed)))
	}
	d.next.Store(int64(replayed))
	fmt.Fprintf(c.out, "replayed %d planned ops sequentially (%d read-class)\n", replayed, l.readOps)

	// 2. Direct probes of every layer on this workload's fixtures.
	l.probeReads()
	l.probeInfer()
	l.probeSources()
	l.probeMediator()
	l.probeCluster()

	// 3. Concurrent passes, tracing off: one client, then the same measured
	// traffic as the untraced run at reduced length, with the program's
	// counters read on either side, then the open loop at R/2 and 2R.
	one := d.closedLoop(1, c.span(0.10))
	statsBefore, failedBefore := l.counters(), d.failed.Load()
	ld := measure(c, d, 0.4, nil)
	delta := l.counters().sub(statsBefore)
	values["throughput_rps"] = median(ld.throughput)
	values["cpu_ms_per_op"] = median(ld.cpuMs)
	values["infer.verdict_hit_ratio"] = ratio(delta.verdictHits, delta.verdictHits+delta.verdictMisses)
	values["mediator.parts_pruned_per_query"] = ratio(delta.partsPruned, delta.queries)
	values["mediator.cache_hit_ratio"] = ratio(delta.cacheHits, delta.cacheHits+delta.cacheMisses)
	values["mediator.singleflight_dedups"] = float64(delta.dedups)
	values["mediator.parts_reused_ratio"] = ratio(delta.partsReused, delta.partsReused+delta.partsRecomputed)
	values["mediator.fetches_per_read"] = ratio(delta.leafHits, delta.queries+delta.materializes)
	values["automata.cache_hit_ratio"] = ratio(delta.automataHits, delta.automataHits+delta.automataMisses)
	values["automata.cache_evictions"] = float64(delta.automataEvictions)
	values["cluster.forwarded_ratio"] = ratio(delta.forwarded, delta.queries+delta.materializes)
	values["proc.scaling_2c"] = median(ld.throughput) / (float64(len(one)) / c.span(0.10).Seconds())

	limit := time.Duration(c.w.limitMs * float64(time.Millisecond))
	rungs := []*rung{{rate: c.w.rate, dur: ld.pacedDur, samples: ld.paced, unsent: ld.unsent, failed: d.failed.Load() - failedBefore}}
	for _, f := range []float64{0.5, 2} {
		failedBefore := d.failed.Load()
		r := &rung{rate: c.w.rate * f, dur: c.span(0.10)}
		r.samples, r.unsent = d.openLoop(r.rate, r.dur)
		r.failed = d.failed.Load() - failedBefore
		rungs = append(rungs, r)
	}
	for _, r := range rungs {
		fmt.Fprintf(c.out, "rung %6.1f ops/s: %d sent, %d unsent, sustained=%v\n", r.rate, len(r.samples), r.unsent, r.sustained(limit))
	}
	atR := ld.paced
	values["max_ok_rate_rps"] = maxOKRate(rungs, limit)
	var lags []float64
	for _, s := range atR {
		lags = append(lags, ms(s.lag))
	}
	sort.Float64s(lags)
	values["loadgen.lag_p95_ms"], _, _ = supportedTail(lags, 95)
	readLat := latencies(atR, opKind.isRead)
	values["read_p50_ms"], _ = percentile(readLat, 50)
	values["read_p90_ms"], _, _ = supportedTail(readLat, 90)
	tail, used, _ := supportedTail(readLat, 99)
	values["read_tail_ms"] = tail
	fmt.Fprintf(c.out, "at R: read-class p%.1f = %.3f ms (the highest percentile up to p99 with %d samples beyond it, n=%d)\n", used, tail, tailSamples, len(readLat))
	printClasses(c.out, atR)

	end := readResources()
	values["proc.gc_cpu_pct"] = end.gcCPU * 100
	values["proc.peak_heap_mb"] = float64(end.heapSys) / 1e6

	// Per-call layer costs.
	for _, m := range perLayer {
		if _, done := values[m.name]; done {
			continue
		}
		if v := l.replay[m.name]; len(v) > 0 {
			values[m.name] = median(v)
		} else if v := l.probe[m.name]; len(v) > 0 {
			values[m.name] = median(v)
		}
	}
	values["infer.define_view_us"] = us(time.Duration(st.defineViewNs)) / float64(len(st.fx.views))
	if l.marshalT > 0 {
		values["xmlmodel.marshal_mbps"] = l.marshalB / 1e6 / l.marshalT.Seconds()
	}
	if l.evalEntries > 0 {
		values["engine.eval_ns_per_entry"] = float64(l.evalT) / float64(l.evalEntries)
	}

	// The additive table: where the replayed read-class ops' sequential
	// loopback time went.
	share := func(names ...string) float64 {
		var sum time.Duration
		for _, n := range names {
			sum += l.self[n]
		}
		return 100 * float64(sum) / float64(l.loopback)
	}
	values["share.engine_marshal_pct"] = share("engine.eval", "xmlmodel.marshal")
	values["share.source_pct"] = share("mediator.refetch")
	values["share.infer_automata_pct"] = share("infer.infer")
	// The same table by medians, which is how the per-call metrics read: a
	// layer's row is the median over the ops of what it got (nothing, where
	// it was not on the path). Medians do not add, so what the rows leave
	// of the median loopback latency is the residual — reported, never
	// hidden.
	rowMedian := map[string]float64{}
	rowSum := 0.0
	for name := range l.self {
		per := make([]float64, len(l.rows))
		for i, r := range l.rows {
			per[i] = us(r[name])
		}
		rowMedian[name] = median(per)
		rowSum += rowMedian[name]
	}
	values["residual_us"] = median(l.loopbacks) - rowSum
	values["share.residual_pct"] = 100 * values["residual_us"] / median(l.loopbacks)
	fmt.Fprintf(c.out, "where the %d replayed read-class ops' sequential loopback time went (mean %.1f us, median %.1f us):\n",
		l.readOps, us(l.loopback)/float64(l.readOps), median(l.loopbacks))
	fmt.Fprintf(c.out, "  %-26s %8s %12s %12s\n", "layer (self time)", "share", "mean us/op", "median us/op")
	var names []string
	for n := range l.self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(c.out, "  %-26s %7.2f%% %12.1f %12.1f\n", n, share(n), us(l.self[n])/float64(l.readOps), rowMedian[n])
	}
	fmt.Fprintf(c.out, "  %-26s %7.2f%% %12s %12.1f\n", "residual", values["share.residual_pct"], "", values["residual_us"])

	path := filepath.Join(c.traceDir, "trace-"+c.w.name+".json")
	if err := l.tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%d spans written to %s\n", len(l.tr.spans), path)
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// restore re-invalidates, on every owner, the sources of the view that
// were stale when the op began.
func (l *layers) restore(view int) {
	for s := range l.stale[view] {
		name := l.st.sourceName(l.st.fx.sources[s])
		for _, o := range l.st.owners[view] {
			_, _ = l.st.nodes[o].med.InvalidateSource(name) // the source is registered
		}
	}
}

// settle materializes the view on every owner outside any timed call and
// returns the fresh document.
func (l *layers) settle(view int) *xmlmodel.Document {
	var doc *xmlmodel.Document
	for _, o := range l.st.owners[view] {
		doc, _ = l.st.nodes[o].med.Materialize(background, l.st.fx.views[view].name)
	}
	delete(l.stale, view)
	return doc
}

// markStale notes that a source of the view was invalidated.
func (l *layers) markStale(view, source int) {
	if l.stale[view] == nil {
		l.stale[view] = map[int]bool{}
	}
	l.stale[view][source] = true
}

// coldThenWarm times call from the cache state the op found (re-invalidating
// what was stale) and once more warm. With nothing stale the two are the
// same call.
func (l *layers) coldThenWarm(o op, parent int, name string, call func()) (id int, cold, warm time.Duration) {
	stale := len(l.stale[o.view]) > 0
	if stale {
		l.restore(o.view)
		_, cold = l.tr.time(name+"(cold)", o.index, parent, call)
	}
	id, warm = l.tr.time(name, o.index, parent, call)
	if !stale {
		cold = warm
	}
	return id, cold, warm
}

// send sends the real request and times it until the response was
// complete: the driver verifies the answer after that (and recomputes one
// /infer response in sixteen), which is the benchmark's work, not a layer's.
func (l *layers) send(o op) (int, time.Duration) {
	return l.tr.until("loopback", o.index, 0, func() time.Time { return l.d.do(o) })
}

func (l *layers) replayOp(o op) {
	booked := sink{l: l, into: l.replay, book: true}
	switch o.kind {
	case opInvalidateSource:
		l.send(o)
		l.markStale(l.st.viewOf(o.source), o.source)
	case opInvalidate:
		l.send(o)
		for v := range l.st.fx.views {
			if l.st.isOwner(v, o.node) {
				for s := range l.st.fx.views[v].sources {
					l.markStale(v, v*l.st.fx.w.sourcesPerView+s)
				}
			}
		}
	case opMaterialize:
		l.send(o)
		l.settle(o.view)
	case opQuery, opQualified:
		l.layeredRead(o, booked)
	case opInferHot, opInferUnique:
		l.layeredInfer(o, booked)
	}
}

// record serves one request on a recorder, as the HTTP server would call
// the handler.
func record(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// layeredRead prices one query: the real request over loopback, then the
// handler on a recorder, then each layer below it, each from the cache
// state the real request found. The calls below the handler re-enact what
// it does; should the product stop doing it that way, the re-enactment's
// answer or its pruned sources differ from the handler's and the op fails.
func (l *layers) layeredRead(o op, k sink) {
	st, tr := l.st, l.tr
	v := st.fx.views[o.view]
	n := st.nodes[o.node]

	root, tLoop := l.send(o)
	k.begin(tLoop)
	l.restore(o.view)
	var rec *httptest.ResponseRecorder
	hID, tHandler := tr.time("serve.handler", o.index, root, func() { rec = record(n.handler, "POST", "/views/"+v.name+"/query", o.payload) })
	var q *xmas.Query
	_, tParse := tr.time("xmas.parse", o.index, hID, func() { q, _ = xmas.Parse(o.payload) })
	k.incl("serve.handler", tHandler)
	k.self("nethttp.loopback", tLoop-tHandler)
	k.self("xmas.parse", tParse)

	var res *xmlmodel.Document
	var tEval time.Duration
	if st.isOwner(o.view, o.node) {
		var stats *mediator.QueryStats
		qID, tCold, tWarm := l.coldThenWarm(o, hID, "mediator.query", func() { res, stats, _ = n.med.Query(background, v.name, q) })
		was := l.stale[o.view]
		full := l.settle(o.view)
		// What the query pruned it did not fetch: a part that was stale stays
		// stale, and a later read that needs it pays for the fetch — as in
		// the concurrent run.
		for s := range was {
			if stats.SkippedUnsatisfiable || slices.Contains(stats.PrunedSources, st.sourceName(st.fx.sources[s])) {
				l.markStale(o.view, s)
			}
		}
		l.restore(o.view)
		view, _ := n.med.View(v.name)
		sq := q
		_, tSimplify := tr.time("infer.simplify", o.index, qID, func() {
			if s, rep, err := infer.SimplifyQuery(q, view.DTD); err == nil && rep.Class != infer.Unsatisfiable {
				sq = s
			}
		})
		var refuted []string
		_, tSat := tr.time("infer.satisfiability", o.index, qID, func() {
			probes := rootProbes(sq)
			for _, p := range view.Parts {
				all := len(probes) > 0
				for _, probe := range probes {
					if verdict, _ := infer.SatisfiabilityCached(background, probe, p.DTD); verdict != infer.VerdictUnsatisfiable {
						all = false
						break
					}
				}
				if all {
					refuted = append(refuted, p.Source)
				}
			}
		})
		sort.Strings(refuted)
		if got, want := strings.Join(refuted, ","), rec.Header().Get("X-Mix-Pruned-Sources"); got != want && !stats.SkippedUnsatisfiable {
			l.d.fail(o, "the traced re-enactment prunes %q, the handler %q", got, want)
		}
		if !stats.SkippedUnsatisfiable && len(stats.PrunedSources) < len(v.sources) {
			kept := l.keptDocument(o.view, full, stats.PrunedSources)
			_, tEval = tr.time("engine.eval", o.index, qID, func() { res, _ = engine.Eval(sq, kept) })
			l.evalEntries += len(kept.Root.Children)
			l.evalT += tEval
			k.self("engine.eval", tEval)
		}
		k.incl("mediator.query", tWarm)
		k.self("mediator.query_self", tWarm-tSimplify-tSat-tEval)
		k.self("infer.simplify", tSimplify)
		k.self("infer.satisfiability", tSat)
		k.attribute("mediator.refetch", tCold-tWarm)
		tMarshal := l.marshal(o, hID, res, rec, k)
		k.self("serve.self", tHandler-tParse-tCold-tMarshal)
		return
	}

	// Forwarded: the entry node fetches the owner's materialization,
	// evaluates the unsimplified query locally and serializes.
	fwd, err := n.cluster.Forward(background, v.name)
	if err != nil {
		l.d.fail(o, "building the forward transport: %v", err)
		return
	}
	var doc *xmlmodel.Document
	fID, tCold, tWarm := l.coldThenWarm(o, hID, "cluster.forward_fetch", func() { doc, _, _ = fwd.Fetch(background) })
	l.settle(o.view)
	if doc != nil {
		_, tEval = tr.time("engine.eval", o.index, fID, func() { res, _ = engine.Eval(q, doc) })
		l.evalEntries += len(doc.Root.Children)
		l.evalT += tEval
	}
	k.self("cluster.forward_fetch", tWarm)
	k.self("engine.eval", tEval)
	k.attribute("mediator.refetch", tCold-tWarm)
	tMarshal := l.marshal(o, hID, res, rec, k)
	k.self("serve.self", tHandler-tParse-tCold-tEval-tMarshal)
}

// marshal times the serialization of the re-enacted answer, which must be
// the handler's, and, in a second call, counts its allocations.
func (l *layers) marshal(o op, parent int, res *xmlmodel.Document, rec *httptest.ResponseRecorder, k sink) time.Duration {
	if res == nil {
		l.d.fail(o, "the traced re-enactment has no answer; the handler said %d", rec.Code)
		return 0
	}
	var out string
	_, t := l.tr.time("xmlmodel.marshal", o.index, parent, func() { out = xmlmodel.MarshalElement(res.Root, 2) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = xmlmodel.MarshalElement(res.Root, 2)
	runtime.ReadMemStats(&after)
	if out != rec.Body.String() {
		l.d.fail(o, "the traced re-enactment's %d-byte answer is not the handler's %d-byte one", len(out), rec.Body.Len())
	}
	k.self("xmlmodel.marshal", t)
	k.into.add("xmlmodel.marshal_allocs", float64(after.Mallocs-before.Mallocs))
	l.marshalB += float64(len(out))
	l.marshalT += t
	return t
}

// keptDocument rebuilds the document a pruned query was evaluated over:
// the materialization without the children of the pruned sources' parts.
func (l *layers) keptDocument(view int, full *xmlmodel.Document, pruned []string) *xmlmodel.Document {
	if len(pruned) == 0 {
		return full
	}
	skip := map[string]bool{}
	for _, p := range pruned {
		skip[p] = true
	}
	root := &xmlmodel.Element{Name: full.Root.Name}
	at := 0
	first := view * l.st.fx.w.sourcesPerView
	for si, s := range l.st.fx.views[view].sources {
		n := 0
		for _, e := range s.docs[l.d.oracle.versions.current[first+si]].Root.Children {
			if e.Name == "entry" {
				n++
			}
		}
		if !skip[l.st.sourceName(s)] {
			root.Children = append(root.Children, full.Root.Children[at:at+n]...)
		}
		at += n
	}
	return &xmlmodel.Document{DocType: full.DocType, Root: root}
}

// rootProbes mirrors the mediator's pruning probes: one per root-level
// condition of the query, bindings stripped, the pick rebound to the root.
func rootProbes(q *xmas.Query) []*xmas.Query {
	if q.Root.Recursive {
		return nil
	}
	var probes []*xmas.Query
	for _, c := range q.Root.Children {
		child := c.Clone()
		child.WalkConds(func(n *xmas.Cond) { n.Var, n.IDVar = "", "" })
		child.Qualifier = false
		root := &xmas.Cond{Names: q.Root.Names, HasText: q.Root.HasText, Text: q.Root.Text, Var: "P", Children: []*xmas.Cond{child}}
		probes = append(probes, &xmas.Query{Name: q.Name, PickVar: "P", Root: root})
	}
	return probes
}

// layeredInfer prices one POST /infer. A unique payload is renamed afresh
// for every repeated call, so each call finds the caches as cold as the
// real request did.
func (l *layers) layeredInfer(o op, k sink) {
	tr := l.tr
	n := l.st.nodes[o.node]
	variant := func(tag int64) string {
		if o.kind == opInferHot {
			return o.payload
		}
		return l.st.fx.uniquePayload(o.query, 1<<40+o.index*8+tag)
	}
	root, tLoop := l.send(o)
	k.begin(tLoop)
	body := variant(1)
	var rec *httptest.ResponseRecorder
	hID, tHandler := tr.time("serve.handler", o.index, root, func() { rec = record(n.handler, "POST", "/infer", body) })
	body = variant(2)
	cut := strings.Index(body, "]>") + 2
	var src *dtd.DTD
	var q *xmas.Query
	_, tDTD := tr.time("dtd.parse", o.index, hID, func() { src, _ = dtd.Parse(body[:cut]) })
	_, tParse := tr.time("xmas.parse", o.index, hID, func() { q, _ = xmas.Parse(body[cut:]) })
	var res *infer.Result
	_, tInfer := tr.time("infer.infer", o.index, hID, func() { res, _ = infer.InferContext(background, q, src) })
	// A hot payload is the same on every call, so the re-enacted result
	// must render to what the handler answered.
	if o.kind == opInferHot && (res == nil || renderInfer(res) != rec.Body.String()) {
		l.d.fail(o, "the traced re-enactment's inference is not the handler's answer")
	}
	if o.kind == opInferHot {
		k.incl("infer.infer_hot", tInfer)
	} else {
		k.incl("infer.infer_unique", tInfer)
	}
	k.attribute("infer.infer", tInfer)
	k.incl("serve.handler", tHandler)
	k.self("nethttp.loopback", tLoop-tHandler)
	k.self("dtd.parse", tDTD)
	k.self("xmas.parse", tParse)
	k.self("serve.self", tHandler-tDTD-tParse-tInfer)
}

// probeReads prices the query path where the replay did not: every query
// of every view's pool, once, on an owner. The test is what the replay
// sampled, not what the mix holds — a short replay of a clustered plan may
// have reached forwarded queries only.
func (l *layers) probeReads() {
	fx := l.st.fx
	if len(l.replay["mediator.query_us"]) > 0 {
		return
	}
	for vi, v := range fx.views {
		for qi := range v.queries() {
			l.layeredRead(fx.readOp(vi, qi, l.st.owners[vi][0]), sink{l: l, into: l.probe})
		}
	}
}

// probeInfer prices inference where the replay did not: each payload of
// the pool (on a data workload, each view part's definition against its
// source DTD) as a hot payload — the second call on — and renamed as a
// unique one.
func (l *layers) probeInfer() {
	fx := l.st.fx
	if len(l.replay["infer.infer_hot_us"]) > 0 && len(l.replay["infer.infer_unique_us"]) > 0 {
		return
	}
	probe := sink{l: l, into: l.probe}
	for i, p := range fx.inferHot {
		hot := op{index: -1, kind: opInferHot, query: i, payload: p}
		l.layeredInfer(hot, sink{l: l, into: samples{}}) // the first call fills the caches
		l.layeredInfer(hot, probe)
		l.layeredInfer(op{index: -1, kind: opInferUnique, query: i, payload: fx.uniquePayload(i, 1<<41+int64(i))}, probe)
	}
}

// probeSources prices the source path per source body: the mediator's own
// Fetch, and its steps one by one.
func (l *layers) probeSources() {
	st := l.st
	const rounds = 5
	var bytes, validateT, parseT float64
	for si, s := range st.fx.sources {
		owner := st.nodes[st.owners[st.viewOf(si)][0]]
		w, err := owner.med.Wrapper(st.sourceName(s))
		if err != nil {
			continue
		}
		part := xmas.MustParse(partQuery(s.name))
		for r := 0; r < rounds; r++ {
			_, t := l.tr.time("source.fetch", -1, 0, func() { _, _ = w.Fetch(background) })
			l.probe.add("source.fetch_us", us(t))
			var body string
			_, t = l.tr.time("source.http", -1, 0, func() { _, body, _ = l.d.request("GET", st.leaf.url+"/views/"+s.name, "") })
			l.probe.add("source.http_us", us(t))
			l.probe.add("source.fetch_bytes", float64(len(body)))
			_, t = l.tr.time("dtd.validate_stream", -1, 0, func() { _ = w.Schema().ValidateStream(body) })
			l.probe.add("dtd.validate_stream_us", us(t))
			validateT += t.Seconds()
			_, t = l.tr.time("xmlmodel.scan", -1, 0, func() {
				sc := xmlmodel.NewScanner(body)
				for {
					ev, err := sc.Next()
					if err != nil || ev.Kind == xmlmodel.EventEOF {
						return
					}
				}
			})
			l.probe.add("xmlmodel.scan_us", us(t))
			var doc *xmlmodel.Document
			_, t = l.tr.time("xmlmodel.parse", -1, 0, func() { doc, _, _ = dtd.ParseDocument(body) })
			l.probe.add("xmlmodel.parse_us", us(t))
			parseT += t.Seconds()
			bytes += float64(len(body))
			_, t = l.tr.time("engine.part_eval", -1, 0, func() { _, _ = engine.Eval(part, doc) })
			l.probe.add("engine.part_eval_us", us(t))
		}
	}
	l.probe.add("dtd.validate_stream_mbps", bytes/1e6/validateT)
	l.probe.add("xmlmodel.parse_mbps", bytes/1e6/parseT)
}

// probeMediator prices materialization warm and cold, both kinds of
// invalidation, and what refetching one source adds to a query.
func (l *layers) probeMediator() {
	st := l.st
	for vi, v := range st.fx.views {
		med := st.nodes[st.owners[vi][0]].med
		q := xmas.MustParse(v.plain[0])
		l.settle(vi)
		for r := 0; r < 5; r++ {
			_, t := l.tr.time("mediator.materialize(warm)", -1, 0, func() { _, _, _ = med.MaterializeInfo(background, v.name) })
			l.probe.add("mediator.materialize_warm_us", us(t))
		}
		for r := 0; r < 3; r++ {
			_, t := l.tr.time("mediator.invalidate", -1, 0, med.Invalidate)
			l.probe.add("mediator.invalidate_us", us(t))
			// All parts fetch in parallel: this is the wall of the fan-out,
			// where source.fetch_us times sourcesPerView is its work.
			_, t = l.tr.time("mediator.materialize(cold)", -1, 0, func() { _, _, _ = med.MaterializeInfo(background, v.name) })
			l.probe.add("mediator.materialize_cold_us", us(t))
		}
		for _, s := range v.sources {
			name := st.sourceName(s)
			_, t := l.tr.time("mediator.invalidate_source", -1, 0, func() { _, _ = med.InvalidateSource(name) })
			l.probe.add("mediator.invalidate_source_us", us(t))
			_, cold := l.tr.time("mediator.query(cold)", -1, 0, func() { _, _, _ = med.Query(background, v.name, q) })
			_, warm := l.tr.time("mediator.query", -1, 0, func() { _, _, _ = med.Query(background, v.name, q) })
			l.probe.add("mediator.refetch_us", us(cold-warm))
		}
		l.settle(vi)
	}
}

// hopProbes is how many of a view's queries the hop probe sends.
const hopProbes = 8

// probeCluster prices ring lookup and the forward hop: the same read sent
// to an owner and to a node that has to forward it. A single-node
// workload gets a forward-only peer for this (see run).
func (l *layers) probeCluster() {
	st := l.st
	ringNode := st.nodes[len(st.nodes)-1].cluster
	const lookups = 10000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		ringNode.Ring().Owners(st.fx.views[i%len(st.fx.views)].name, 1)
	}
	l.probe.add("cluster.ring_owner_ns", float64(time.Since(start))/lookups)

	var local, hop, localKB, hopKB []float64
	for vi, v := range st.fx.views {
		outsider := -1
		for n := range st.nodes {
			if !st.isOwner(vi, n) {
				outsider = n
			}
		}
		fwd, err := st.nodes[outsider].cluster.Forward(background, v.name)
		if err != nil {
			continue
		}
		for qi := range v.queries() {
			if qi == hopProbes {
				break
			}
			for _, target := range []int{st.owners[vi][0], outsider} {
				o := st.fx.readOp(vi, qi, target)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, t := l.send(o)
				runtime.ReadMemStats(&after)
				kb := float64(after.TotalAlloc-before.TotalAlloc) / 1000
				if target == outsider {
					hop, hopKB = append(hop, us(t)), append(hopKB, kb)
				} else {
					local, localKB = append(local, us(t)), append(localKB, kb)
				}
			}
			_, t := l.tr.time("cluster.forward_fetch", -1, 0, func() { _, _, _ = fwd.Fetch(background) })
			l.probe.add("cluster.forward_fetch_us", us(t))
		}
	}
	l.probe.add("cluster.hop_overhead_us", median(hop)-median(local))
	l.probe.add("cluster.hop_alloc_kb", median(hopKB)-median(localKB))
}

// counters are the program's own counters, summed over the nodes, plus
// the leaf's hit count.
type counters struct {
	cacheHits, cacheMisses, dedups                  int64
	partsReused, partsRecomputed, partsPruned       int64
	verdictHits, verdictMisses                      int64
	automataHits, automataMisses, automataEvictions int64
	forwarded, leafHits                             int64
	queries, materializes                           int64 // sent by the driver
}

func (l *layers) counters() counters {
	var c counters
	for _, n := range l.st.nodes {
		s := n.med.Stats()
		c.cacheHits += s.CacheHits
		c.cacheMisses += s.CacheMisses
		c.dedups += s.SingleflightDedups
		c.partsReused += s.PartsReused
		c.partsRecomputed += s.PartsRecomputed
		c.partsPruned += s.PartsPruned
		if n.cluster != nil {
			c.forwarded += n.cluster.Metrics().Forwarded
		}
	}
	verdicts, compiled := infer.SatisfiabilityCacheStats(), automata.CacheStats()
	c.verdictHits, c.verdictMisses = verdicts.Hits, verdicts.Misses
	c.automataHits, c.automataMisses, c.automataEvictions = compiled.Hits, compiled.Misses, compiled.Evictions
	c.leafHits = l.st.leaf.hits.Load()
	c.queries = l.d.sent[opQuery].Load() + l.d.sent[opQualified].Load()
	c.materializes = l.d.sent[opMaterialize].Load()
	return c
}

func (a counters) sub(b counters) counters {
	return counters{
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses, dedups: a.dedups - b.dedups,
		partsReused: a.partsReused - b.partsReused, partsRecomputed: a.partsRecomputed - b.partsRecomputed, partsPruned: a.partsPruned - b.partsPruned,
		verdictHits: a.verdictHits - b.verdictHits, verdictMisses: a.verdictMisses - b.verdictMisses,
		automataHits: a.automataHits - b.automataHits, automataMisses: a.automataMisses - b.automataMisses, automataEvictions: a.automataEvictions - b.automataEvictions,
		forwarded: a.forwarded - b.forwarded, leafHits: a.leafHits - b.leafHits,
		queries: a.queries - b.queries, materializes: a.materializes - b.materializes,
	}
}
