// Package mix is the public API of this reproduction of "Enhancing
// Semistructured Data Mediators with Document Type Definitions"
// (Papakonstantinou & Velikhov, ICDE 1999) — the MIX mediator's view-DTD
// inference, implemented in pure Go.
//
// The core workflow:
//
//	src, _ := mix.ParseDTD(dtdText)               // the source DTD
//	q, _ := mix.ParseQuery(xmasText)              // a pick-element XMAS view
//	res, _ := mix.Infer(q, src)                   // infer the view DTD
//	fmt.Println(res.SDTD)                         // specialized (tight) form
//	fmt.Println(res.DTD)                          // plain DTD (merged)
//
//	doc, _, _ := mix.ParseDocument(xmlText)       // a source document
//	view, _ := mix.Eval(q, doc)                   // materialize the view
//	err := res.DTD.Validate(view)                 // always nil: inference is sound
//
// Mediation (Section 1's architecture) lives behind NewMediator: register
// wrapped sources, define (possibly multi-source union) views — the view
// DTD is inferred at registration — and pose queries, which are first
// simplified against the view DTD (unsatisfiable queries never touch the
// data). Mediators stack via Mediator.AsSource.
//
// The formal quality notions of Section 3 are exposed too: Tighter decides
// the tightness order between DTDs, CheckSoundness samples Definition 3.1,
// and MeasureDTD / MeasureSDTD quantify structural tightness
// (Definition 3.7) by bounded enumeration.
package mix

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/automata"
	"repro/internal/automata/cache"
	"repro/internal/bench"
	"repro/internal/browse"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/oem"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/tightness"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Re-exported core types. Each alias points at the implementing package,
// whose documentation describes the semantics in terms of the paper.
type (
	// Document is an XML document in the paper's model (Definition 2.4).
	Document = xmlmodel.Document
	// Element is the paper's Definition 2.1 element.
	Element = xmlmodel.Element
	// DTD is a Document Type Definition (Definition 2.2).
	DTD = dtd.DTD
	// Type is one element type declaration: PCDATA or a content model.
	Type = dtd.Type
	// SDTD is a specialized DTD (Definition 3.8).
	SDTD = sdtd.SDTD
	// Name is a possibly specialization-tagged element name.
	Name = regex.Name
	// Expr is a regular expression over element names (a content model).
	Expr = regex.Expr
	// Query is a pick-element XMAS query or view definition (Section 2.1).
	Query = xmas.Query
	// Cond is one node of a tree containment condition.
	Cond = xmas.Cond
	// InferResult is the output of view DTD inference.
	InferResult = infer.Result
	// Class is the valid/satisfiable/unsatisfiable classification
	// (Section 4.2's side effect).
	Class = infer.Class
	// Mediator hosts wrapped sources and views (Section 1's architecture).
	Mediator = mediator.Mediator
	// Wrapper is a source: data plus DTD.
	Wrapper = mediator.Wrapper
	// ViewPart is one branch of a (possibly multi-source) view.
	ViewPart = mediator.ViewPart
	// MediatorStats is a snapshot of a mediator's serving counters.
	MediatorStats = mediator.Stats
	// AutomataCache is a snapshot of the compiled-automata cache counters.
	AutomataCache = cache.Stats
	// HTTPOption configures an HTTP-backed remote source.
	HTTPOption = mediator.HTTPOption
	// Generator samples random valid documents from a DTD.
	Generator = gen.Generator
	// GenOptions controls document generation.
	GenOptions = gen.Options
	// SoundnessReport summarizes a randomized Definition 3.1 check.
	SoundnessReport = tightness.SoundnessReport
	// PrecisionReport quantifies structural tightness at a size bound.
	PrecisionReport = tightness.PrecisionReport
	// TightnessWitness explains why one DTD is not tighter than another.
	TightnessWitness = tightness.Witness
	// DataGuide is a strong dataguide (Section 5's [GW97]) over element
	// trees read as OEM data (Appendix A).
	DataGuide = oem.DataGuide
	// BudgetLimits bounds inference-side automata work (wall-clock
	// deadline, DFA states, enumeration classes, refine steps); zero
	// fields are unlimited. Exhaustion degrades inference to a
	// sound-but-looser view DTD instead of failing (see InferResult's
	// Degraded fields).
	BudgetLimits = budget.Limits
	// Budget is a live, chargeable resource budget built from BudgetLimits.
	Budget = budget.Budget
	// BreakerOptions configures a per-source circuit breaker.
	BreakerOptions = mediator.BreakerOptions
	// ReplicaSet is a replica-aware source: health-checked failover,
	// hedged reads, a shared retry budget, and last-known-good stale
	// serving over N interchangeable (DTD-equivalent) replicas.
	ReplicaSet = mediator.ReplicaSet
	// ReplicaSetOptions configures a ReplicaSet.
	ReplicaSetOptions = mediator.ReplicaSetOptions
	// ReplicaSetStatus is a point-in-time replica-set health snapshot.
	ReplicaSetStatus = mediator.ReplicaSetStatus
	// HealthOptions configures the per-replica health state machine.
	HealthOptions = mediator.HealthOptions
	// RetryBudget is a token bucket capping retry/hedge amplification.
	RetryBudget = mediator.RetryBudget
	// RetryBudgetOptions configures a RetryBudget.
	RetryBudgetOptions = mediator.RetryBudgetOptions
	// Fault is one scripted misbehavior of a fault-injecting source.
	Fault = mediator.Fault
	// WireFault is one scripted wire-level fault of a faulty HTTP handler.
	WireFault = mediator.WireFault
)

// NewBudget builds a budget from limits; attach it to a context with
// BudgetContext and pass that to InferWithContext-style entry points.
func NewBudget(l BudgetLimits) *Budget { return budget.New(l) }

// BudgetContext attaches a budget to a context for budget-aware calls
// (infer.InferContext, tightness.EnumerateClassesContext).
func BudgetContext(ctx context.Context, b *Budget) context.Context {
	return budget.NewContext(ctx, b)
}

// NewBreakerSource guards a source with a circuit breaker: after
// consecutive fetch failures the source fails fast (ErrBreakerOpen) and
// union views are served degraded — without its parts — until a
// cooldown-spaced probe succeeds.
func NewBreakerSource(w Wrapper, opts BreakerOptions) Wrapper {
	return mediator.NewBreakerSource(w, opts)
}

// NewReplicaSet wraps N interchangeable replicas of one logical source
// (their DTDs must be equivalent — verified at registration) behind
// health-checked failover, hedged reads, a shared retry budget, and
// last-known-good stale serving. The result is a Wrapper; register it
// with Mediator.AddSource like any other source.
func NewReplicaSet(name string, replicas []Wrapper, opts ReplicaSetOptions) (*ReplicaSet, error) {
	return mediator.NewReplicaSet(name, replicas, opts)
}

// NewRetryBudget builds a token bucket that retries (WithRetryBudget) and
// hedges/failovers (ReplicaSetOptions.Budget) draw from.
func NewRetryBudget(opts RetryBudgetOptions) *RetryBudget {
	return mediator.NewRetryBudget(opts)
}

// NewFaultSource wraps a source with a deterministic scripted fault
// sequence (errors, latency) for resilience testing.
func NewFaultSource(w Wrapper, script ...Fault) Wrapper {
	return mediator.NewFaultSource(w, script...)
}

// NewFaultyHandler wraps an HTTP handler with scripted wire faults (5xx
// bursts, delays, mid-body truncation, payload corruption).
func NewFaultyHandler(h http.Handler, script ...WireFault) http.Handler {
	return mediator.NewFaultyHandler(h, script...)
}

// ErrBreakerOpen is returned by breaker-guarded sources while open.
var ErrBreakerOpen = mediator.ErrBreakerOpen

// Classification constants.
const (
	Unsatisfiable = infer.Unsatisfiable
	Satisfiable   = infer.Satisfiable
	Valid         = infer.Valid
)

// Verdict is a three-valued satisfiability verdict for a query against a
// source DTD: Unknown (fetch anyway), Unsatisfiable (a proof; prune), or
// VerdictSatisfiable. See infer.Satisfiability.
type Verdict = infer.Verdict

// Satisfiability verdict constants.
const (
	VerdictUnknown       = infer.VerdictUnknown
	VerdictUnsatisfiable = infer.VerdictUnsatisfiable
	VerdictSatisfiable   = infer.VerdictSatisfiable
)

// DTDClass identifies the tractable DTD classes (duplicate-free,
// disjunction-capsuled) on which the fast satisfiability decision
// procedure is exact; see infer.ClassifyDTD.
type DTDClass = infer.DTDClass

// DTD class constants.
const (
	ClassGeneral             = infer.ClassGeneral
	ClassDuplicateFree       = infer.ClassDuplicateFree
	ClassDisjunctionCapsuled = infer.ClassDisjunctionCapsuled
)

// Satisfiability decides whether any document valid under src can match
// the query: the verdict backing query-time per-part pruning. Budget
// exhaustion (attach one with BudgetContext) yields VerdictUnknown.
func Satisfiability(ctx context.Context, q *Query, src *DTD) Verdict {
	return infer.Satisfiability(ctx, q, src)
}

// SatisfiabilityCached is Satisfiability through the process-wide verdict
// cache (VerdictUnknown is never cached); the second result reports a hit.
func SatisfiabilityCached(ctx context.Context, q *Query, src *DTD) (Verdict, bool) {
	return infer.SatisfiabilityCached(ctx, q, src)
}

// ClassifyDTD reports the DTD's tractable class.
func ClassifyDTD(d *DTD) DTDClass { return infer.ClassifyDTD(d) }

// SatisfiabilityCacheStats snapshots the process-wide satisfiability-
// verdict cache counters (mediator.Stats embeds the same snapshot as
// PruneVerdictCache).
func SatisfiabilityCacheStats() AutomataCache { return infer.SatisfiabilityCacheStats() }

// PurgeSatisfiabilityCache drops every cached satisfiability verdict
// (counters are kept); call it after schema churn.
func PurgeSatisfiabilityCache() { infer.PurgeSatisfiabilityCache() }

// ErrRecursivePath is returned by Infer for views with recursive path
// expressions (Section 4.4, footnote 9).
var ErrRecursivePath = infer.ErrRecursivePath

// ParseDocument parses an XML document; when it carries a DOCTYPE with an
// internal subset the DTD is parsed too (nil otherwise).
func ParseDocument(input string) (*Document, *DTD, error) {
	return dtd.ParseDocument(input)
}

// ParseElement parses a single XML element.
func ParseElement(input string) (*Element, error) {
	return xmlmodel.ParseElement(input)
}

// MarshalDocument serializes a document, with its DTD inlined as a DOCTYPE
// internal subset when d is non-nil. Negative indent means compact output.
func MarshalDocument(doc *Document, d *DTD, indent int) string {
	return dtd.MarshalDocument(doc, d, indent)
}

// ParseDTD parses a "<!DOCTYPE root [ ... ]>" declaration.
func ParseDTD(input string) (*DTD, error) { return dtd.Parse(input) }

// ParseQuery parses a pick-element XMAS query in the paper's syntax.
func ParseQuery(input string) (*Query, error) { return xmas.Parse(input) }

// MustQuery is ParseQuery that panics on error; for examples and tests.
func MustQuery(input string) *Query { return xmas.MustParse(input) }

// MustDTD is ParseDTD that panics on error; for examples and tests.
func MustDTD(input string) *DTD {
	d, err := dtd.Parse(input)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseContentModel parses a content-model expression (DTD syntax,
// optionally with ^tags for specialized DTDs).
func ParseContentModel(input string) (Expr, error) { return regex.Parse(input) }

// Infer derives the view DTD — specialized and plain — for a pick-element
// view over the source DTD (Section 4).
func Infer(q *Query, src *DTD) (*InferResult, error) { return infer.Infer(q, src) }

// InferContext is Infer with cancellation and resource budgeting: attach a
// budget with BudgetContext and exhaustion degrades the result to a
// sound-but-looser view DTD (InferResult.Degraded) instead of failing.
func InferContext(ctx context.Context, q *Query, src *DTD) (*InferResult, error) {
	return infer.InferContext(ctx, q, src)
}

// NaiveInfer is the unrefined baseline of Example 3.1.
func NaiveInfer(q *Query, src *DTD) (*DTD, error) { return infer.NaiveInfer(q, src) }

// Refine is the paper's type refinement refine(r, n) (Definition 4.1):
// the sub-language of r whose words contain the given name.
func Refine(r Expr, name string) Expr { return infer.RefineName(r, name) }

// SimplifyQuery rewrites a query using DTD knowledge: prunes guaranteed
// conditions, drops impossible disjuncts, and classifies the query.
func SimplifyQuery(q *Query, src *DTD) (*Query, *infer.SimplifyReport, error) {
	return infer.SimplifyQuery(q, src)
}

// Eval materializes a view: the elements the pick variable binds to,
// grouped in document order under a root named after the query.
func Eval(q *Query, doc *Document) (*Document, error) { return engine.Eval(q, doc) }

// EvalElements returns the matched elements themselves (no copies).
func EvalElements(q *Query, doc *Document) ([]*Element, error) {
	return engine.EvalElements(q, doc)
}

// EmptyResult is the empty view document for a query — exactly the shape
// Eval returns when nothing matches, so fast paths that skip evaluation
// (unsatisfiable queries, fully pruned views) produce identical output.
func EmptyResult(q *Query) *Document { return engine.EmptyResult(q) }

// Tighter decides Definition 3.2: every document satisfying d1 satisfies
// d2. The witness explains a negative answer.
func Tighter(d1, d2 *DTD) (bool, *TightnessWitness) {
	ok, w, _ := tightness.Tighter(d1, d2, nil) // unlimited: cannot fail
	return ok, w
}

// TighterBudget is Tighter under a resource budget. The decision cannot
// soundly degrade, so budget exhaustion returns an error ("could not
// decide within budget") that callers must treat explicitly.
func TighterBudget(d1, d2 *DTD, b *Budget) (bool, *TightnessWitness, error) {
	return tightness.Tighter(d1, d2, b)
}

// EquivalentDTDs reports that two DTDs describe the same document set.
func EquivalentDTDs(d1, d2 *DTD) bool { return tightness.Equivalent(d1, d2) }

// WitnessDocument builds a concrete document valid under d1 but not d2 —
// a certificate that d1 is not tighter than d2 — or nil when d1 is
// tighter.
func WitnessDocument(d1, d2 *DTD) (*Document, error) {
	return tightness.WitnessDocument(d1, d2)
}

// EquivalentModels reports language equality of two content models.
func EquivalentModels(a, b Expr) bool {
	eq, _ := automata.Equivalent(a, b, nil) // unlimited: cannot fail
	return eq
}

// AutomataCacheStats snapshots the process-wide compiled-automata cache
// counters (hits, misses, singleflight dedups, evictions, size): every
// content-model compilation and language decision — validation,
// containment, equivalence, inference refinements — is served through it.
func AutomataCacheStats() AutomataCache { return automata.CacheStats() }

// PurgeAutomataCache drops every cached automaton (counters are kept).
// Long-running processes can call it after schema churn; benchmarks use it
// to measure the cold path.
func PurgeAutomataCache() { automata.PurgeCache() }

// CheckSoundness samples Definition 3.1 with `trials` random source
// documents.
func CheckSoundness(q *Query, src, viewDTD *DTD, viewSDTD *SDTD, trials int, seed int64) (*SoundnessReport, error) {
	return tightness.CheckSoundness(q, src, viewDTD, viewSDTD, trials, seed)
}

// MeasureDTD quantifies the structural tightness (Definition 3.7) of a
// plain view DTD by bounded enumeration.
func MeasureDTD(viewDTD *DTD, q *Query, src *DTD, viewBound, srcBound, limit int) (*PrecisionReport, error) {
	return tightness.MeasureDTD(viewDTD, q, src, viewBound, srcBound, limit)
}

// MeasureSDTD quantifies the structural tightness of a specialized view
// DTD.
func MeasureSDTD(viewSDTD *SDTD, q *Query, src *DTD, viewBound, srcBound, limit int) (*PrecisionReport, error) {
	return tightness.MeasureSDTD(viewSDTD, q, src, viewBound, srcBound, limit)
}

// NewMediator creates an empty mediator.
func NewMediator(name string) *Mediator { return mediator.New(name) }

// ComposeQuery rewrites a query over a view into an equivalent query over
// the view's source (the mediator's query/view composition step); see
// mediator.Compose for the composable fragment.
func ComposeQuery(viewDef, q *Query) (*Query, error) { return mediator.Compose(viewDef, q) }

// Composition sentinel errors.
var (
	ErrNotComposable    = mediator.ErrNotComposable
	ErrEmptyComposition = mediator.ErrEmptyComposition
)

// Lookup sentinel errors: matched with errors.Is to distinguish "no such
// view/source" from evaluation failures.
var (
	ErrUnknownView   = mediator.ErrUnknownView
	ErrUnknownSource = mediator.ErrUnknownSource
)

// NewStaticSource wraps an in-memory document + DTD as a mediator source,
// validating the document first.
func NewStaticSource(name string, doc *Document, d *DTD) (Wrapper, error) {
	return mediator.NewStaticSource(name, doc, d)
}

// NewGenerator builds a random-document generator for a DTD.
func NewGenerator(d *DTD, opts GenOptions) (*Generator, error) { return gen.New(d, opts) }

// OutlineDTD renders a DTD as an annotated structure tree — the display a
// DTD-driven query interface shows the user (Section 1's "DTD-based query
// interface").
func OutlineDTD(d *DTD) string { return browse.Outline(d, browse.OutlineOptions{}) }

// NewQueryBuilder starts a schema-guided query builder over the DTD: paths
// are validated step by step, and errors list the legal alternatives.
func NewQueryBuilder(d *DTD) *QueryBuilder { return browse.NewBuilder(d) }

// ExplainQuery renders the query with per-condition classifications and
// the simplifier's decisions — the DTD-aware "explain plan".
func ExplainQuery(q *Query, src *DTD) (string, error) { return browse.Explain(q, src) }

// CardinalityBounds derives [min, max] bounds on the view's size from the
// DTD alone — the selectivity estimate a DTD-aware optimizer gets for
// free (max -1 = unbounded).
func CardinalityBounds(q *Query, src *DTD) (browse.Cardinality, error) {
	return browse.CardinalityBounds(q, src)
}

// ParseSDTD parses the textual form of a specialized DTD (the format
// SDTD.String produces), making s-DTDs an exchange format between stacked
// mediators.
func ParseSDTD(input string) (*SDTD, error) { return sdtd.Parse(input) }

// NewHTTPSource registers a remote mediator view (served by mixserve /
// internal/serve) as a local source: distributed mediator stacking. A nil
// client gets a default-timeout one; transient failures (transport errors,
// 5xx) are retried with exponential backoff — tune with WithRetries /
// WithBackoff.
func NewHTTPSource(client *http.Client, baseURL, view string, opts ...HTTPOption) (Wrapper, error) {
	return mediator.NewHTTPSource(client, baseURL, view, opts...)
}

// WithRetries bounds how many times an HTTP source retries a transient
// failure (transport error or 5xx) before giving up.
func WithRetries(n int) HTTPOption { return mediator.WithRetries(n) }

// WithBackoff sets the initial retry backoff of an HTTP source; it doubles
// on each successive retry, up to a 30s cap.
func WithBackoff(d time.Duration) HTTPOption { return mediator.WithBackoff(d) }

// ErrBodyTooLarge reports a remote response larger than 16 MiB: an HTTP
// source fails with it, for errors.Is, instead of parsing a truncated body.
var ErrBodyTooLarge = mediator.ErrBodyTooLarge

// WithRetryBudget makes an HTTP source's retries spend tokens from the
// given budget: when the bucket is dry the fetch fails immediately
// instead of sleeping another backoff against a browned-out remote.
func WithRetryBudget(b *RetryBudget) HTTPOption { return mediator.WithRetryBudget(b) }

// QueryBuilder is re-exported from the browse package.
type QueryBuilder = browse.Builder

// BuildDataGuide constructs the strong dataguide of element trees that
// share a root label, each element read as an OEM object (Appendix A: one
// with character content is atomic, one with element content a list).
func BuildDataGuide(roots ...*Element) (*DataGuide, error) { return oem.Build(roots...) }

// ParsePath parses an OEM path query ("department.professor|gradStudent",
// "%" wildcard, trailing "*" recursive) — the TSIMMIS-style access pattern
// used by the dataguide comparison.
func ParsePath(s string) (*PathQuery, error) { return oem.ParsePath(s) }

// PathQuery is re-exported from the oem package.
type PathQuery = oem.PathQuery

// RunExperiments executes the paper-reproduction experiment harness
// (EXPERIMENTS.md); empty ids runs everything.
func RunExperiments(w io.Writer, quick bool, ids ...string) error {
	cfg := bench.DefaultConfig()
	cfg.Quick = quick
	return bench.Run(w, cfg, ids...)
}
