// Package mediator implements the MIX mediator architecture of Section 1:
// wrappers export XML sources with their DTDs; the mediator administrator
// defines XMAS views over them; the View DTD Inference module derives each
// view's DTD at registration time; and incoming queries against a view are
// first simplified using the view DTD (pruning conditions the DTD
// guarantees and rejecting unsatisfiable queries without touching data)
// and then evaluated. Mediators stack: a mediator view, together with its
// inferred DTD, can serve as a source of a higher-level mediator ("it is
// important that the lower level mediators can derive and provide their
// view DTDs to the higher level ones").
//
// Union views over several sources reproduce the paper's motivating
// scenario of integrating many sites; their view DTD is the combination of
// the per-source inferred s-DTDs.
//
// The serving path is built for concurrent use on one cache, one fence and
// one lock rule. The only cached data are per-part results — a part's picks
// and what the last queries picked from them: every part of a defined view
// owns one slot (Mediator.slots), so the cache is bounded by the view
// definitions, and a view document or an answer is always a fresh
// concatenation, in part order, of its kept parts' slots. The only fence is
// the source generation (Mediator.srcGen): a part result is usable exactly
// while its source's generation is the one its fetch started under, so a
// result that raced an invalidation answers the callers already waiting on
// it and nothing else. An invalidation is a question, not a change: the
// fetch it forces answers it, and a part whose source hands back the very
// document its slot was evaluated from keeps its result. Mediator.mu guards
// the registry and the slots and is never held across a fetch or an
// evaluation. Concurrent callers needing the same part share one computation
// (whatever their prune masks), and every data-touching operation takes a
// context.Context that cancels remote fetches.
package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automata/cache"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Sentinel errors for name lookups. Callers (notably internal/serve)
// distinguish "no such view/source" from evaluation failures with
// errors.Is rather than by matching message text.
var (
	ErrUnknownView   = errors.New("unknown view")
	ErrUnknownSource = errors.New("unknown source")
)

// Wrapper is the interface a source exports to the mediator: data plus
// schema, both in the XML model ("wrappers conceptually export the source
// data translated into" the common model; here the model is XML+DTD rather
// than TSIMMIS's OEM). That is the whole contract. What a wrapper counts
// (retries, breaker trips, replica health) travels through the one optional
// interface Reporter, and a ReplicaSet serving its last known good document
// says so on the fetch context (WithStaleNote) — both pass through any stack
// of decorators.
type Wrapper interface {
	// Name identifies the source within the mediator.
	Name() string
	// Fetch returns the source's current document. Implementations that
	// touch the network must honor ctx cancellation.
	//
	// The document is read-only from the moment it is returned — to the
	// mediator, which evaluates over it and keeps the picked elements
	// themselves in its part slots, to every reader of a view or an answer,
	// and to the wrapper too: a source that changes returns a new document.
	// Returning the same *Document as the last time therefore says
	// "unchanged", and the mediator takes it at its word: the part is not
	// evaluated again and the view's tag (tag.go) does not move.
	Fetch(ctx context.Context) (*xmlmodel.Document, error)
	// Schema returns the source DTD.
	Schema() *dtd.DTD
}

// StaticSource is an in-memory wrapper over a fixed document. The document
// was validated once, by NewStaticSource, and is shared with everything
// evaluated from it, so it is never modified in place: a source that changes
// has its Doc replaced by another document (and is then invalidated).
type StaticSource struct {
	SourceName string
	Doc        *xmlmodel.Document
	DTD        *dtd.DTD
}

// NewStaticSource validates the document against the DTD and wraps it.
func NewStaticSource(name string, doc *xmlmodel.Document, d *dtd.DTD) (*StaticSource, error) {
	if err := d.Validate(doc); err != nil {
		return nil, fmt.Errorf("mediator: source %s: %v", name, err)
	}
	return &StaticSource{SourceName: name, Doc: doc, DTD: d}, nil
}

// Name implements Wrapper.
func (s *StaticSource) Name() string { return s.SourceName }

// Fetch implements Wrapper.
func (s *StaticSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Doc, nil
}

// Schema implements Wrapper.
func (s *StaticSource) Schema() *dtd.DTD { return s.DTD }

// ViewPart is one branch of a (possibly multi-source) view: a pick-element
// query against one named source. Callers of DefineUnionView populate
// Source and Query; the mediator fills the rest at definition time.
type ViewPart struct {
	Source string
	Query  *xmas.Query
	// DTD is the part's inferred view DTD: it describes the documents this
	// part alone would contribute under the view root. Query-time pruning
	// tests the incoming query's root conditions against it — a part whose
	// DTD refutes every condition cannot contribute to the answer and its
	// source is not fetched.
	DTD *dtd.DTD
	// Class is the part's classification against its source DTD; an
	// Unsatisfiable part is always empty and always prunable.
	Class    infer.Class
	prepared *engine.Prepared // Query as the engine evaluates it, readied once
}

// View is a registered view: its definition and the DTDs inferred for it.
type View struct {
	Name  string
	Parts []ViewPart
	// SDTD and DTD are the inferred view DTDs (Definition 3.1-sound;
	// tightened per Section 4).
	SDTD *sdtd.SDTD
	DTD  *dtd.DTD
	// DTDText is DTD as internal/serve sends it — alone by /dtd, ahead of
	// the document by the view itself — rendered once, here at definition:
	// a view's DTD never changes.
	DTDText string
	// Class classifies the view against the source DTDs; Unsatisfiable
	// views are always empty.
	Class infer.Class
	// NonTight reports that converting the s-DTD to the plain DTD lost
	// information (Section 4.3's merge signal).
	NonTight bool
	// Degraded reports that inference exhausted its resource budget and the
	// view DTDs above are sound but looser than unbounded inference would
	// produce (see internal/budget); DegradedReason carries the exhaustion
	// message and DegradedSources the parts whose inference degraded.
	Degraded        bool
	DegradedReason  string
	DegradedSources []string

	// tagPrefix is everything of the view's tags but the versions (tag.go).
	tagPrefix string
	// whole is the plan of the view's own document, every member of every
	// part: a part slot remembers it like any other answer.
	whole *queryPlan
}

// QueryStats reports how a query against a view was executed.
type QueryStats struct {
	// SkippedUnsatisfiable is set when the DTD classifier proved the query
	// empty and the data was never touched.
	SkippedUnsatisfiable bool
	// PrunedConditions / DroppedNames are the simplifier's rewrite counts.
	PrunedConditions int
	DroppedNames     int
	// SimplifierError records a SimplifyQuery failure. The query is then
	// answered through the unsimplified path, so benchmarks must not
	// mistake a broken simplifier (zero pruning, zero skips) for a fast
	// one; internal/serve surfaces this as X-Mix-Simplifier-Error.
	SimplifierError string
	// Provenance is that of the materialization the query ran against (or,
	// when every part was pruned, just the pruned sources); internal/serve
	// surfaces it as the X-Mix-Degraded/-Pruned-Sources/-Stale-Sources
	// headers.
	Provenance
}

// MaterializeInfo reports how a materialization went beyond its document.
type MaterializeInfo struct {
	Provenance
	// Tag identifies the document's content (tag.go). Only a complete
	// materialization has one: every part of the view, none dropped, none
	// stale. Equal tags mean byte-equal documents.
	Tag string
	// NotModified: the caller's tag (MaterializeIfChanged) is still the
	// view's, so no document was built; Tag is that tag.
	NotModified bool
}

// partCalc is one computation of a view part — fetch its source, evaluate
// its query — in progress or finished. It is what a part's slot holds:
// while it runs, callers needing the part wait on done; once finished, a
// calc left in its slot is the part's cached result. res is written
// exactly once, before done is closed, and res.children is immutable from
// then on (readers concatenate into a fresh root).
type partCalc struct {
	gen uint64 // the source's generation when the fetch started
	// prev is the finished — hence complete — calc this one took the slot
	// from, if any: what the part was before the invalidation that asks
	// whether it changed. Set by claimLocked, read by the caller running the
	// calc, and dropped (under m.mu) when the calc finishes, so a slot never
	// holds more than one result.
	prev *partCalc
	done chan struct{}
	res  partResult
	// abandoned: the calc failed after the ctx of the caller running it had
	// ended, so the failure is that caller's, not the source's.
	abandoned bool
}

func (c *partCalc) finished() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// plannedPart is one kept part of a materialization under way.
type plannedPart struct {
	calc      *partCalc
	lead, hit bool // this call runs calc / calc had finished when planned
	w         Wrapper
	res       partResult
	picks     []*xmlmodel.Element // res.children, or what a plan picks below them (answerByPart) …
	slot      int                 // … from this entry of res.answers, when not negative …
	bytes     []byte              // … with what they serialize to, when the slot keeps that …
	render    bool                // … or this read is to make it
}

// partResult is what one part contributes to a materialization.
type partResult struct {
	// children are the elements the part query picks from doc — elements of
	// doc itself, not copies (documents from Wrapper.Fetch are read-only).
	children []*xmlmodel.Element
	doc      *xmlmodel.Document
	answers  *answerMemo // what queries picked from children: made and handed on with them
	// ver is the content version: the generation of the calc that evaluated
	// children. It is the calc's own generation unless the fetch returned the
	// predecessor's document and the result was carried over — then it is an
	// earlier one — and it is what a tag says.
	ver     uint64
	err     error
	dropped bool // the source's breaker is open: the part is omitted (degraded view)
	stale   bool // children come from a last-known-good document (ReplicaSet)
}

// Mediator hosts wrappers and views.
type Mediator struct {
	name string

	mu       sync.Mutex
	wrappers map[string]Wrapper
	views    map[string]*View
	// srcGen[s] counts invalidations of source s. Invalidate bumps every
	// source; InvalidateSource bumps one source and, transitively, the views
	// re-exported as sources that depend on it.
	srcGen map[string]uint64
	// slots holds, per view, one slot per part (created in DefineUnionView):
	// the part's latest calc, usable — as a cached result once finished, as
	// a computation to wait on until then — while calc.gen equals the
	// source's generation, and after that only as what the refetch is
	// compared with (partCalc.prev). It is the only evaluated data the
	// mediator keeps.
	slots map[string][]*partCalc
	// deps is the static view→source dependency index, inverted: for each
	// source name, the set of views with at least one part over it. Built
	// at view-definition time; InvalidateSource walks it (transitively,
	// through views re-exported as sources via AsSource).
	deps map[string]map[string]bool
	// inferLimits bounds the view DTD inference run at view-definition time
	// (zero value: unlimited). See SetInferenceBudget.
	inferLimits budget.Limits
	// noPrune disables query-time per-part satisfiability pruning (see
	// prune.go; default: pruning on).
	noPrune bool
	// plans memoizes the static analysis of each distinct (view, query) —
	// see plan.go. It is the mediator's own, so it dies with it.
	plans *cache.Cache
	// nonce sets this mediator's tags apart from every other's (tag.go).
	nonce string

	stats statsCounters
}

// New creates an empty mediator.
func New(name string) *Mediator {
	return &Mediator{
		name:     name,
		wrappers: map[string]Wrapper{},
		views:    map[string]*View{},
		srcGen:   map[string]uint64{},
		slots:    map[string][]*partCalc{},
		deps:     map[string]map[string]bool{},
		plans:    cache.New(planMemoCapacity),
		nonce:    newNonce(),
	}
}

// Name returns the mediator's name.
func (m *Mediator) Name() string { return m.name }

// SetInferenceBudget bounds every subsequent view definition's DTD
// inference (deadline, DFA states, enumeration classes, refine steps; zero
// fields are unlimited). Exhaustion does not fail DefineView — the view is
// registered with a sound-but-looser DTD and marked Degraded, per the
// paper's soundness-over-tightness order (Definition 3.2).
func (m *Mediator) SetInferenceBudget(l budget.Limits) {
	m.mu.Lock()
	m.inferLimits = l
	m.mu.Unlock()
}

// InferenceBudget returns the limits set by SetInferenceBudget.
func (m *Mediator) InferenceBudget() budget.Limits {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inferLimits
}

// AddSource registers a wrapper.
func (m *Mediator) AddSource(w Wrapper) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.wrappers[w.Name()]; dup {
		return fmt.Errorf("mediator: source %s already registered", w.Name())
	}
	m.wrappers[w.Name()] = w
	return nil
}

// Wrapper returns the registered wrapper for a source name.
func (m *Mediator) Wrapper(name string) (Wrapper, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.wrappers[name]
	if !ok {
		return nil, fmt.Errorf("mediator: %w %s", ErrUnknownSource, name)
	}
	return w, nil
}

// Sources lists registered source names, sorted.
func (m *Mediator) Sources() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.wrappers))
	for n := range m.wrappers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefineView registers a single-source view and runs view DTD inference.
func (m *Mediator) DefineView(source string, q *xmas.Query) (*View, error) {
	return m.DefineUnionView(q.Name, []ViewPart{{Source: source, Query: q}})
}

// DefineUnionView registers a view that concatenates, under one root named
// `name`, the results of one pick-element query per source (the paper's
// "view that unions the structures exported by 100 sites" — but with
// structure: the inferred view DTD describes the union precisely). The
// per-part queries' own names are overridden by the view name.
func (m *Mediator) DefineUnionView(name string, parts []ViewPart) (*View, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("mediator: view %s has no parts", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.views[name]; dup {
		return nil, fmt.Errorf("mediator: view %s already defined", name)
	}
	v := &View{Name: name, tagPrefix: tagPrefixFor(m.nonce, name),
		whole: &queryPlan{root: &xmlmodel.Element{Name: name}}}
	// One budget for the whole view definition: the parts share the limits,
	// so a pathological source DTD cannot starve its siblings of nothing —
	// whatever it consumes, the remaining parts degrade soundly too.
	bud := m.inferLimits.Budget()
	inferCtx := budget.NewContext(context.Background(), bud)
	var partSDTDs []*sdtd.SDTD
	var classes []infer.Class
	for _, p := range parts {
		w, ok := m.wrappers[p.Source]
		if !ok {
			return nil, fmt.Errorf("mediator: %w %s", ErrUnknownSource, p.Source)
		}
		q := p.Query.Clone()
		q.Name = name
		res, err := infer.InferContext(inferCtx, q, w.Schema())
		if err != nil {
			return nil, fmt.Errorf("mediator: view %s over %s: %v", name, p.Source, err)
		}
		if res.Degraded {
			v.Degraded = true
			v.DegradedReason = res.DegradedReason
			v.DegradedSources = append(v.DegradedSources, p.Source)
		}
		partSDTDs = append(partSDTDs, res.SDTD)
		if res.NonTight {
			v.NonTight = true
		}
		classes = append(classes, res.Class)
		prepared, err := engine.Prepare(q)
		if err != nil {
			return nil, fmt.Errorf("mediator: view %s over %s: %v", name, p.Source, err)
		}
		v.Parts = append(v.Parts, ViewPart{Source: p.Source, Query: q, DTD: res.DTD, Class: res.Class, prepared: prepared})
	}
	// Union classification: the view is guaranteed non-empty when some
	// part's condition is valid; possibly non-empty when some part is
	// satisfiable; always empty only when every part is unsatisfiable.
	v.Class = infer.Unsatisfiable
	for _, c := range classes {
		if c > v.Class {
			v.Class = c
		}
	}
	union, err := UnionSDTDs(regex.N(name), partSDTDs, bud)
	if err != nil {
		return nil, fmt.Errorf("mediator: view %s: %v", name, err)
	}
	v.SDTD = union
	plain, events, err := union.Merge(bud)
	if err != nil {
		return nil, fmt.Errorf("mediator: view %s: %v", name, err)
	}
	for _, ev := range events {
		if ev.Distinct {
			v.NonTight = true
		}
	}
	v.DTD = plain
	v.DTDText = plain.String() + "\n"
	if ex := bud.Exhausted(); ex != nil && !v.Degraded {
		// The per-part inferences finished but the union or the final merge
		// degraded.
		v.Degraded = true
		v.DegradedReason = ex.Error()
	}
	m.views[name] = v
	m.slots[name] = make([]*partCalc, len(v.Parts))
	for _, p := range v.Parts {
		if m.deps[p.Source] == nil {
			m.deps[p.Source] = map[string]bool{}
		}
		m.deps[p.Source][name] = true
	}
	if v.Degraded {
		m.stats.add(&m.stats.DegradedViews, 1)
		m.stats.add(&m.stats.BudgetExhaustions, 1)
	}
	return v, nil
}

// View returns a registered view.
func (m *Mediator) View(name string) (*View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return nil, fmt.Errorf("mediator: %w %s", ErrUnknownView, name)
	}
	return v, nil
}

// Views lists registered view names, sorted.
func (m *Mediator) Views() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.views))
	for n := range m.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Materialize evaluates the view against its sources and returns the view
// document: a fresh root over the cached part results, which stay valid
// until their source is invalidated. Concurrent calls share part
// computations: one caller fetches and evaluates a part, the rest wait for
// its result (or their own ctx). A result whose source was invalidated
// while it was being computed is never served again: if complete, it stays
// in its slot only as what the refetch is compared with (runPart).
func (m *Mediator) Materialize(ctx context.Context, viewName string) (*xmlmodel.Document, error) {
	doc, _, err := m.MaterializeInfo(ctx, viewName)
	return doc, err
}

// MaterializeInfo is Materialize plus a report of how the materialization
// went: a view over a breaker-open source (see BreakerSource) is served
// without that source's parts — degraded availability instead of a failed
// view — and the info says so. A dropped part is never cached, so the
// first materialization after the breaker closes is complete again.
func (m *Mediator) MaterializeInfo(ctx context.Context, viewName string) (*xmlmodel.Document, *MaterializeInfo, error) {
	return m.MaterializeIfChanged(ctx, viewName, "")
}

// MaterializeIfChanged is MaterializeInfo for a caller that may already hold
// the document: ifNoneMatch is the value of an If-None-Match header (see
// TagListed). When it names the tag the view's materialization carries now
// no document is built: the result is a nil document and an info saying
// NotModified. With every part cached that is a cache hit, and counted and
// traced as one; after an invalidation it costs the refetches that find the
// sources unchanged, and is the miss it was.
func (m *Mediator) MaterializeIfChanged(ctx context.Context, viewName, ifNoneMatch string) (*xmlmodel.Document, *MaterializeInfo, error) {
	a, info, err := m.viewAnswer(ctx, viewName, ifNoneMatch, false)
	if a.parts == nil { // an error, or NotModified
		return nil, info, err
	}
	return viewDocument(viewName, a.parts), info, nil
}

// ViewAnswer is MaterializeIfChanged for a caller that sends the document: no
// root is built, and a part sent twice before brings its bytes.
func (m *Mediator) ViewAnswer(ctx context.Context, viewName, ifNoneMatch string) (Answer, *MaterializeInfo, error) {
	return m.viewAnswer(ctx, viewName, ifNoneMatch, true)
}

func (m *Mediator) viewAnswer(ctx context.Context, viewName, ifNoneMatch string, bytes bool) (Answer, *MaterializeInfo, error) {
	v, err := m.View(viewName)
	if err != nil {
		return Answer{}, nil, err
	}
	parts, info, err := m.resolveMasked(ctx, v, nil, nil, ifNoneMatch)
	if err != nil || info.NotModified {
		return Answer{View: v}, info, err
	}
	if bytes && info.Tag != "" { // else a part is dropped or stale, and no slot remembers this
		m.answerByPart(nil, v, v.whole, parts, true)
	}
	return Answer{View: v, root: v.whole.root, parts: parts}, info, nil
}

// Answer is a query's answer, or a view's document, for a caller that sends
// it: the shell whose tags enclose it and, part by part, what goes between
// them — elements, and where the part's slot keeps them, their bytes.
type Answer struct {
	View  *View
	root  *xmlmodel.Element
	parts []plannedPart
}

// answerIndent is how deep internal/serve indents, and so a slot's bytes are.
const answerIndent = 2

func (a *Answer) run(i int) ([]*xmlmodel.Element, []byte) { return a.parts[i].picks, a.parts[i].bytes }

// Write sends the answer as xmlmodel.WriteElement would send its document.
func (a *Answer) Write(w io.Writer) error {
	return xmlmodel.WriteRuns(w, a.root, answerIndent, len(a.parts), a.run)
}

// keepAll is the keep mask of a query's materialization that prunes nothing.
func keepAll(v *View) []bool { return slices.Repeat([]bool{true}, len(v.Parts)) }

// resolveMasked gives the parts of v selected by keep their results, which
// a view document or a query's answer is then put together from in part
// order, whatever the scheduling. Masked-out parts are never fetched — no
// goroutine, no breaker interaction, no retry; that is the point of
// pruning. A nil keep is the whole view, and only then does the result carry
// a tag (or come back NotModified, when ifNoneMatch names it): a query's
// materialization, masked or not, renders none; pruned is the plan's list of
// the sources it masks out. Under m.mu each kept part is resolved to its
// slot's calc: a finished one is reused without touching the source (delta
// maintenance: after InvalidateSource only the parts over that source are
// stale), a running one is joined, and a stale or empty slot gets a new calc
// this call runs. The first part failure cancels this call's sibling fetches
// — except a breaker-open rejection (ErrBreakerOpen), which drops just that
// part and lets the siblings complete: a dead source degrades the view, it
// does not take it down.
func (m *Mediator) resolveMasked(ctx context.Context, v *View, keep []bool, pruned []string, ifNoneMatch string) ([]plannedPart, *MaterializeInfo, error) {
	whole := keep == nil
	parts := make([]plannedPart, len(v.Parts))
	var leads, joins int
	m.mu.Lock()
	for i := range v.Parts {
		if !whole && !keep[i] {
			continue
		}
		p := &parts[i]
		p.calc, p.lead = m.claimLocked(v, i)
		p.w = m.wrappers[v.Parts[i].Source]
		switch {
		case p.lead:
			leads++
		case p.calc.finished():
			p.hit, p.res = true, p.calc.res
		default:
			joins++
		}
	}
	m.mu.Unlock()

	// The plan makes every call exactly one of miss, join or hit; a join is
	// counted now, while the computation it waits on is still running.
	var span *obs.Span
	switch {
	case leads > 0:
		m.stats.add(&m.stats.CacheMisses, 1)
		ctx, span = obs.StartSpan(ctx, "materialize",
			obs.String("view", v.Name), obs.Int("parts", int64(len(v.Parts))))
		if len(pruned) > 0 {
			span.SetAttr(obs.String("pruned_sources", strings.Join(pruned, ",")))
		}
		defer span.End()
	case joins > 0:
		m.stats.add(&m.stats.SingleflightDedups, 1)
		obs.AddEvent(ctx, "materialize.singleflight_join", obs.String("view", v.Name))
	default:
		m.stats.add(&m.stats.CacheHits, 1)
		obs.AddEvent(ctx, "materialize.cache_hit", obs.String("view", v.Name))
	}

	if leads+joins > 0 {
		if err := m.resolveParts(ctx, v, parts, leads > 0); err != nil {
			if span != nil {
				span.SetAttr(obs.String("error", err.Error()))
			}
			return nil, nil, err
		}
	}

	info := &MaterializeInfo{Provenance: Provenance{PrunedSources: pruned}}
	for i, p := range parts {
		if !whole && !keep[i] {
			continue
		}
		src := v.Parts[i].Source
		parts[i].picks = p.res.children
		if p.res.dropped {
			info.Degraded = true
			info.DegradedSources = append(info.DegradedSources, src)
		} else if p.res.stale && !slices.Contains(info.StaleSources, src) {
			info.StaleSources = append(info.StaleSources, src)
		}
	}
	sort.Strings(info.DegradedSources)
	sort.Strings(info.StaleSources)
	if info.Degraded {
		m.stats.add(&m.stats.DegradedMaterializations, 1)
		obs.AddEvent(ctx, "materialize.degraded",
			obs.String("dropped_sources", strings.Join(info.DegradedSources, ",")))
	}
	if len(info.StaleSources) > 0 {
		m.stats.add(&m.stats.StaleMaterializations, 1)
		obs.AddEvent(ctx, "materialize.stale",
			obs.String("stale_sources", strings.Join(info.StaleSources, ",")))
	}
	if whole && !info.Degraded && len(info.StaleSources) == 0 {
		// Every part a complete, live result — cached, joined, evaluated or
		// carried over: what the document is has been established, and a
		// caller that already holds it is not built another.
		info.Tag = v.tagOf(parts)
		info.NotModified = TagListed(ifNoneMatch, info.Tag)
	}
	return parts, info, nil
}

// viewDocument concatenates the resolved parts under a fresh root.
func viewDocument(name string, parts []plannedPart) *xmlmodel.Document {
	return &xmlmodel.Document{DocType: name, Root: &xmlmodel.Element{Name: name, Children: concat(parts)}}
}

// concat lists what the parts' runs hold (their children, or what answerByPart
// put in their place) exactly sized: nil when there is nothing, as the engine's.
func concat(parts []plannedPart) []*xmlmodel.Element {
	n := 0
	for i := range parts {
		n += len(parts[i].picks)
	}
	out := slices.Grow([]*xmlmodel.Element(nil), n)
	for i := range parts {
		out = append(out, parts[i].picks...)
	}
	return out
}

// resolveParts gives every planned part that is not a hit its result: the
// ones this call leads are run, the others waited for, side by side. The
// error is the first root-cause failure (a sibling's induced cancellation
// only when there is no other). led says this call leads at least one part:
// it is then the materialization that missed, timed and accounted for as
// one — which parts it reused, which it refetched, and which of those came
// back unchanged.
func (m *Mediator) resolveParts(ctx context.Context, v *View, parts []plannedPart, led bool) error {
	start := time.Now()
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := range parts {
		if parts[i].calc == nil || parts[i].hit {
			continue
		}
		wg.Add(1)
		go func(i int, p *plannedPart) {
			defer wg.Done()
			p.res = m.resolvePart(pctx, v, i, p.w, p.calc, p.lead)
			if p.res.err != nil {
				cancel() // abandon sibling fetches: the view cannot complete
			}
		}(i, &parts[i])
	}
	wg.Wait()
	if led {
		m.stats.recordMaterialize(v.Name, time.Since(start))
	}
	if err := firstPartError(parts); err != nil || !led {
		return err
	}
	var reused, recomputed, revalidated []string
	for i, p := range parts {
		switch {
		case p.hit:
			reused = append(reused, v.Parts[i].Source)
		case p.lead && !p.res.dropped:
			recomputed = append(recomputed, v.Parts[i].Source)
			if p.res.ver != p.calc.gen { // carried over, not evaluated
				revalidated = append(revalidated, v.Parts[i].Source)
			}
		}
	}
	m.stats.add(&m.stats.PartsReused, int64(len(reused)))
	m.stats.add(&m.stats.PartsRecomputed, int64(len(recomputed)))
	m.stats.add(&m.stats.PartsRevalidated, int64(len(revalidated)))
	obs.AddEvent(ctx, "materialize.delta",
		obs.String("reused", strings.Join(reused, ",")),
		obs.String("recomputed", strings.Join(recomputed, ",")),
		obs.String("revalidated", strings.Join(revalidated, ",")))
	return nil
}

// firstPartError prefers a root-cause error over a sibling's induced
// cancellation.
func firstPartError(parts []plannedPart) error {
	var first error
	for _, p := range parts {
		if p.res.err != nil && (first == nil ||
			errors.Is(first, context.Canceled) && !errors.Is(p.res.err, context.Canceled)) {
			first = p.res.err
		}
	}
	return first
}

// claimLocked resolves part i of v to the calc that answers it. The slot's
// calc does while it is at the source's current generation — finished, it
// is the cached result; running, it is joined. Otherwise (empty slot, or a
// calc that predates an invalidation and must gain no new waiters) a new
// calc takes the slot and the caller must run it (lead). A finished calc it
// displaces goes with it as prev: a calc still in its slot when finished is
// complete (runPart), so that is the part as it was before the invalidation.
// m.mu must be held.
func (m *Mediator) claimLocked(v *View, i int) (c *partCalc, lead bool) {
	gen := m.srcGen[v.Parts[i].Source]
	slots := m.slots[v.Name]
	old := slots[i]
	if old != nil && old.gen == gen {
		return old, false
	}
	if old != nil && !old.finished() {
		old = nil
	}
	slots[i] = &partCalc{gen: gen, prev: old, done: make(chan struct{})}
	return slots[i], true
}

// resolvePart returns part i's result for one caller: it runs c when the
// caller leads it, and otherwise waits for c or for the caller's own ctx —
// a waiter that gives up does not disturb the calc. A calc that failed
// because the caller running it gave up (that caller's client left, or a
// sibling part of its materialization failed) says nothing about the
// source, so a waiter whose own ctx is alive claims the part again instead
// of inheriting the cancellation. The result, and so the version in it, is
// that of the calc the caller ended on, not necessarily the one it was
// planned with.
func (m *Mediator) resolvePart(ctx context.Context, v *View, i int, w Wrapper, c *partCalc, lead bool) partResult {
	for {
		if lead {
			m.runPart(ctx, v, i, w, c)
			return c.res
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return partResult{err: ctx.Err()}
		}
		if !c.abandoned || ctx.Err() != nil {
			return c.res
		}
		m.mu.Lock()
		c, lead = m.claimLocked(v, i)
		m.mu.Unlock()
		if lead {
			m.stats.add(&m.stats.CacheMisses, 1) // a computation the plan did not foresee
		}
	}
}

// runPart computes c, publishes the result to its waiters and decides
// whether c stays in its slot: only a complete, live result does — as the
// part's cached result while its source generation is unchanged since the
// fetch started, and after that as what the refetch is compared with. This
// is the one write-back rule — it is why degraded parts do not outlive the
// outage that dropped them, last-known-good parts are retried rather than
// pinned, and an invalidation is never overwritten by what predates it.
func (m *Mediator) runPart(ctx context.Context, v *View, i int, w Wrapper, c *partCalc) {
	c.res = evalPart(ctx, v, i, w, c)
	c.abandoned = c.res.err != nil && ctx.Err() != nil
	complete := c.res.err == nil && !c.res.dropped && !c.res.stale
	m.mu.Lock()
	c.prev = nil
	current := m.srcGen[v.Parts[i].Source] == c.gen
	// A later caller may have claimed the slot since an invalidation
	// detached c: only remove c while the slot is still c's.
	if slots := m.slots[v.Name]; !complete && slots[i] == c {
		slots[i] = nil
	}
	close(c.done)
	m.mu.Unlock()
	if complete && !current {
		m.stats.add(&m.stats.StaleDiscards, 1)
	}
}

// evalPart fetches the source of part i for calc c and evaluates the part
// query over the document — unless that is the very document c's predecessor
// was evaluated from (Wrapper.Fetch: the same document says "unchanged"), in
// which case c takes over the predecessor's picks, version and answers, and
// nothing is evaluated or allocated. The picks are elements of the document
// itself: the slot and the source's validator share one tree.
func evalPart(ctx context.Context, v *View, i int, w Wrapper, c *partCalc) (res partResult) {
	p := v.Parts[i]
	// One span per source fetch: the trace of a slow or degraded request
	// shows which source stalled (fault injection, retries) or was dropped
	// by its breaker.
	fctx, fspan := obs.StartSpan(ctx, "source.fetch", obs.String("source", p.Source))
	// A last-known-good answer, from a ReplicaSet anywhere in w's stack,
	// comes back with its note instead of being indistinguishable from a
	// live one.
	fctx, stale := WithStaleNote(fctx)
	doc, err := w.Fetch(fctx)
	if res.stale = err == nil && stale.Load(); res.stale {
		fspan.Event("source.stale_serve", obs.String("source", p.Source))
	}
	if errors.Is(err, ErrBreakerOpen) {
		fspan.Event("breaker.open_drop", obs.String("source", p.Source))
		fspan.End()
		return partResult{dropped: true}
	}
	if err != nil {
		fspan.SetAttr(obs.String("error", err.Error()))
		fspan.End()
		return partResult{err: fmt.Errorf("mediator: fetching %s: %w", p.Source, err)}
	}
	res.doc, res.ver = doc, c.gen
	// A last-known-good document is not the source's answer: never carried.
	if prev := c.prev; prev != nil && prev.res.doc == doc && !res.stale {
		fspan.SetAttr(obs.Bool("unchanged", true))
		fspan.End()
		res.children, res.ver, res.answers = prev.res.children, prev.res.ver, prev.res.answers
		return res
	}
	fspan.End()
	_, espan := obs.StartSpan(ctx, "part.eval", obs.String("source", p.Source))
	res.children, err = p.prepared.EvalElements(doc)
	res.answers = new(answerMemo)
	espan.End()
	if err != nil {
		return partResult{err: fmt.Errorf("mediator: evaluating view %s over %s: %v", v.Name, p.Source, err)}
	}
	return res
}

// prunedSources lists the source names of masked-out parts, sorted and
// deduplicated (a source is pruned only if every one of its parts is).
func prunedSources(v *View, keep []bool) []string {
	if keep == nil {
		return nil // the whole view
	}
	var out []string
	for i, p := range v.Parts {
		if keep[i] || slices.Contains(out, p.Source) {
			continue
		}
		kept := false
		for j, q := range v.Parts {
			kept = kept || keep[j] && q.Source == p.Source
		}
		if !kept {
			out = append(out, p.Source)
		}
	}
	sort.Strings(out)
	return out
}

// Invalidate announces a change of unknown extent: every source generation
// bumps, which is all it takes — the fence detaches every slot's calc. A
// running one still answers the callers already waiting on it, but gains no
// new waiters and is not kept; a finished one waits in its slot for the
// refetch that says whether its part changed at all (evalPart).
// InvalidateSource (delta.go) is the same for one source and what depends
// on it.
func (m *Mediator) Invalidate() {
	m.mu.Lock()
	for s := range m.wrappers {
		m.srcGen[s]++
	}
	m.mu.Unlock()
	m.stats.add(&m.stats.Invalidations, 1)
}

// Query runs a pick-element query against a view. The query is first
// simplified against the inferred view DTD: unsatisfiable queries return
// the empty result without materializing the view, and valid side
// conditions are pruned before evaluation. A simplifier failure is not
// fatal — the unsimplified query is evaluated instead — but it is recorded
// in QueryStats.SimplifierError and the mediator stats. That analysis runs
// once per distinct query (plan.go); a repeated query looks its plan up, and
// asks the engine only about the kept parts it has not asked (answerByPart).
//
// The result's root is new; the elements under it are the picked elements
// of the cached view parts themselves, not copies — as the documents
// Materialize returns share them. Cached elements are immutable: callers
// read and serialize the result and must not modify anything below its
// root.
func (m *Mediator) Query(ctx context.Context, viewName string, q *xmas.Query) (*xmlmodel.Document, *QueryStats, error) {
	a, stats, err := m.answer(ctx, viewName, q, nil)
	if err != nil {
		return nil, nil, err
	}
	res := engine.EmptyResult(q)
	res.Root.Children = concat(a.parts)
	return res, stats, nil
}

// Answer is Query for a caller that holds the query as the text it arrived in
// and sends the answer: a text seen before is not parsed (plan.go), no root and
// no pick list are built, and a part asked twice before brings its bytes.
func (m *Mediator) Answer(ctx context.Context, viewName string, text []byte) (Answer, *QueryStats, error) {
	return m.answer(ctx, viewName, nil, text)
}

// answer is Query and Answer: q, or when q is nil the query text spells.
func (m *Mediator) answer(ctx context.Context, viewName string, q *xmas.Query, text []byte) (Answer, *QueryStats, error) {
	// One critical section reads everything the query depends on.
	m.mu.Lock()
	v, ok := m.views[viewName]
	pruning, limits := !m.noPrune, m.inferLimits
	m.mu.Unlock()
	if !ok {
		return Answer{}, nil, fmt.Errorf("mediator: %w %s", ErrUnknownView, viewName)
	}
	ctx, span := obs.StartSpan(ctx, "query", obs.String("view", viewName))
	defer span.End()
	start := time.Now()
	defer func() { m.stats.recordQuery(viewName, time.Since(start)) }()
	plan, hit, byText, err := m.planFor(ctx, v, q, text, pruning, limits)
	if err != nil {
		return Answer{}, nil, err
	}
	// The plan says what the analysis concluded; counting it, and telling
	// the trace, is this request's.
	span.SetAttr(obs.Bool("plan_hit", hit), obs.Bool("plan_text_hit", byText))
	a := Answer{View: v, root: plan.root}
	stats := &QueryStats{
		PrunedConditions: plan.prunedConditions,
		DroppedNames:     plan.droppedNames,
		SimplifierError:  plan.simplifierError,
	}
	if plan.simplifierError != "" {
		m.stats.add(&m.stats.SimplifierErrors, 1)
		span.Event("query.simplifier_error", obs.String("error", plan.simplifierError))
	} else {
		m.stats.recordSimplify(plan.prunedConditions, plan.droppedNames, plan.unsatisfiable)
		span.SetAttr(obs.Int("pruned", int64(plan.prunedConditions)), obs.Int("dropped", int64(plan.droppedNames)))
		if plan.unsatisfiable {
			stats.SkippedUnsatisfiable = true
			span.Event("query.skipped_unsatisfiable")
			return a, stats, nil
		}
	}
	if pruned := len(plan.pruned); pruned > 0 {
		m.stats.add(&m.stats.PartsPruned, int64(pruned))
		span.SetAttr(obs.Int("parts_pruned", int64(pruned)))
		for _, p := range plan.pruned {
			span.Event("query.part_pruned", obs.String("source", p.source), obs.String("reason", p.reason))
		}
		if pruned == len(v.Parts) {
			// Every part refuted: the answer is empty without touching any
			// source — same shape as the unsatisfiable fast path above.
			stats.PrunedSources = plan.prunedSources
			span.Event("query.all_parts_pruned")
			return a, stats, nil
		}
	}
	parts, info, err := m.resolveMasked(ctx, v, plan.keep, plan.prunedSources, "")
	if err != nil {
		return Answer{}, nil, err
	}
	stats.Provenance = info.Provenance
	if plan.byPart && !info.Degraded && len(info.StaleSources) == 0 {
		m.answerByPart(span, v, plan, parts, q == nil)
		a.parts = parts
		return a, stats, nil
	}
	picks, err := plan.prepared.EvalElements(viewDocument(v.Name, parts))
	if err != nil {
		return Answer{}, nil, err
	}
	a.parts = []plannedPart{{picks: picks}} // the walk's picks are not of one part or another
	return a, stats, nil
}

// answerByPart gives parts — all complete, live results — what plan picks
// below each: what the part's memo says, and for the parts whose memo does not
// know the plan one walk over a root of just their children, which the memos
// then keep. For a caller that sends bytes, an entry found a second time is
// rendered — outside m.mu: racing renders make identical bytes and the last
// store wins — and one found after that brings them.
func (m *Mediator) answerByPart(span *obs.Span, v *View, plan *queryPlan, parts []plannedPart, bytes bool) {
	var reused, copied, rendered, copiedBytes, renderedBytes int
	m.mu.Lock()
	for i := range parts {
		p, a := &parts[i], parts[i].res.answers
		if p.slot = -1; p.calc != nil { // else masked out
			p.slot = slices.Index(a.plans[:], plan)
		}
		if p.slot < 0 {
			continue
		}
		p.picks, reused = a.picks[p.slot], reused+1
		switch {
		case !bytes || len(p.picks) == 0:
		case a.bytes != nil && a.bytes[p.slot] != nil:
			p.bytes = a.bytes[p.slot]
			copied, copiedBytes = copied+1, copiedBytes+len(p.bytes)
		case a.found&(1<<p.slot) != 0:
			p.render, rendered = true, rendered+1
		default:
			a.found |= 1 << p.slot
		}
	}
	m.mu.Unlock()
	evaluated := len(parts) - len(plan.pruned) - reused
	if evaluated > 0 && plan.prepared != nil { // a view's own plan picks every member: the run as it is
		root, ends := &xmlmodel.Element{Name: v.Name}, make([]int, len(parts))
		for i := range parts {
			if parts[i].slot < 0 {
				root.Children = append(root.Children, parts[i].res.children...) // none of a masked-out part
			}
			ends[i] = len(root.Children)
		}
		picks, cuts := plan.prepared.EvalSplit(root, ends)
		lo := 0
		for i, hi := range cuts {
			if p := &parts[i]; p.calc != nil && p.slot < 0 {
				p.picks = append([]*xmlmodel.Element(nil), picks[lo:hi]...) // a copy: a memo keeps no other part's elements alive
			}
			lo = hi
		}
	}
	for i := range parts {
		if p := &parts[i]; p.render {
			p.bytes = xmlmodel.MarshalElements(p.picks, answerIndent, 1)
			renderedBytes += len(p.bytes)
		}
	}
	if evaluated+rendered > 0 {
		m.mu.Lock()
		for i := range parts {
			switch p, a := &parts[i], parts[i].res.answers; {
			case p.calc == nil:
			case p.slot < 0: // evaluated: the oldest entry goes, bytes and all
				a.plans[a.next], a.picks[a.next], a.found = plan, p.picks, a.found&^(1<<a.next)
				if a.bytes != nil {
					a.bytes[a.next] = nil
				}
				a.next = (a.next + 1) % answerMemoPlans
			case p.render && a.plans[p.slot] == plan: // else replaced meanwhile
				if a.bytes == nil {
					a.bytes = new([answerMemoPlans][]byte)
				}
				a.bytes[p.slot] = p.bytes
			}
		}
		m.mu.Unlock()
	}
	if plan.prepared != nil {
		m.stats.add(&m.stats.AnswerPartsEvaluated, int64(evaluated))
		m.stats.add(&m.stats.AnswerPartsReused, int64(reused))
	}
	span.SetAttr(obs.Int("answer_reused", int64(reused)), obs.Int("answer_evaluated", int64(evaluated)))
	if bytes { // how the parts are sent; a trace record has room for 13 attributes
		m.stats.add(&m.stats.AnswerBytesCopied, int64(copiedBytes))
		m.stats.add(&m.stats.AnswerBytesRendered, int64(renderedBytes))
		span.SetNonZero(obs.Int("answer_copied", int64(copied)), obs.Int("answer_rendered", int64(rendered)),
			obs.Int("answer_streamed", int64(len(parts)-len(plan.pruned)-copied-rendered)))
	}
}

// QueryUnsimplified evaluates the query against the view without the
// DTD-based simplifier — the "living without structure" baseline used by
// the benchmarks.
func (m *Mediator) QueryUnsimplified(ctx context.Context, viewName string, q *xmas.Query) (*xmlmodel.Document, error) {
	doc, err := m.Materialize(ctx, viewName)
	if err != nil {
		return nil, err
	}
	return engine.Eval(q, doc)
}

// AsSource exposes a view (with its inferred DTD) as a wrapper, enabling
// stacked mediators.
func (m *Mediator) AsSource(viewName string) (Wrapper, error) {
	v, err := m.View(viewName)
	if err != nil {
		return nil, err
	}
	s := &viewSource{m: m, v: v}
	s.held.Store(&keptDocument{}) // no tag: nothing held yet
	return s, nil
}

type viewSource struct {
	m *Mediator
	v *View
	// held is the last tagged document handed out, and handed out again while
	// its tag is the view's: how a stacked mediator hears "unchanged".
	held atomic.Pointer[keptDocument]
}

func (s *viewSource) Name() string { return s.m.name + "/" + s.v.Name }

func (s *viewSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	held := s.held.Load()
	doc, info, err := s.m.MaterializeIfChanged(ctx, s.v.Name, held.tag)
	switch {
	case err != nil:
		return nil, err
	case info.NotModified:
		return held.doc, nil
	case info.Tag != "": // a degraded or stale document has none and is never held
		s.held.Store(&keptDocument{tag: info.Tag, doc: doc})
	}
	return doc, nil
}

func (s *viewSource) Schema() *dtd.DTD { return s.v.DTD }
