package infer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmas"
)

// ErrRecursivePath is returned when the view definition contains a
// recursive path step (<name*>): the one-level extension step of the
// list-inference algorithm makes inference inappropriate for such queries
// (Section 4.4, footnote 9), and Section 3.4 shows some of them have no
// tightest DTD at all.
var ErrRecursivePath = errors.New("infer: view has a recursive path expression; no tightest DTD may exist (Section 3.4)")

// ErrWorkerPanic is wrapped by the error of an inference or simplification
// that failed because a refinement worker panicked — this program's fault,
// where every other error but the context's own is the input's. The wrapping
// error ("infer: panic refining element …") names the element and the panic.
var ErrWorkerPanic = errors.New("infer: panic")

// Class is the side-effect classification of Section 4.2: how a tree
// condition relates to the source DTD.
type Class int

const (
	// Unsatisfiable: no document satisfying the DTD satisfies the
	// condition; the view DTD describes an empty answer.
	Unsatisfiable Class = iota
	// Satisfiable: some but (as far as the DTD shows) not all documents
	// satisfy the condition.
	Satisfiable
	// Valid: every document satisfying the DTD satisfies the condition.
	Valid
)

func (c Class) String() string {
	switch c {
	case Unsatisfiable:
		return "unsatisfiable"
	case Satisfiable:
		return "satisfiable"
	case Valid:
		return "valid"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Result is the output of view DTD inference.
type Result struct {
	// SDTD is the specialized view DTD (normalized: redundant
	// specializations collapsed).
	SDTD *sdtd.SDTD
	// DTD is the plain view DTD obtained by merging the s-DTD
	// (Section 4.3), with content models simplified.
	DTD *dtd.DTD
	// Class classifies the view's condition against the source DTD.
	Class Class
	// Merges lists the specialization merges performed when converting to
	// the plain DTD; entries with Distinct=true signal non-tightness
	// introduced by the merge, which the view inference module reports to
	// the user (Example 4.3).
	Merges []sdtd.MergeEvent
	// NonTight is true when at least one merge lost information: the plain
	// DTD is then strictly less tight than the s-DTD.
	NonTight bool
	// Degraded is true when the budget attached to the context (see
	// internal/budget) ran out during inference and the result fell back
	// to a sound-but-looser view DTD: refinement was skipped for some
	// element names (their specializations keep the unrefined source
	// types) and/or semantic reductions fell back to syntactic form.
	// Soundness is never sacrificed — only tightness, the trade the
	// paper's partial order (Definition 3.2) licenses.
	Degraded bool
	// DegradedNames lists the element names whose refinement was skipped
	// or cut short, sorted.
	DegradedNames []string
	// DegradedReason is the budget's exhaustion message (which resource
	// ran out, at what limit).
	DegradedReason string
}

// validityCheckSizeLimit bounds the combined AST size at which the
// valid-vs-satisfiable language comparison is still attempted; beyond it
// the classification falls back to Satisfiable (sound, less tight).
const validityCheckSizeLimit = 4096

// spec is the specialization inferred for one (condition, name) pair.
type spec struct {
	name  regex.Name // the allocated tagged name
	typ   dtd.Type   // its refined type
	class Class      // valid / satisfiable / unsatisfiable for this name
}

type inferencer struct {
	ctx     context.Context
	bud     *budget.Budget
	src     *dtd.DTD
	q       *xmas.Query
	nextTag map[string]int
	// full memoizes tightenCond results (full refinement, all children).
	full map[*xmas.Cond]map[string]*spec

	// mu guards the two fields below, which fan-out workers write.
	mu sync.Mutex
	// panicErr is the first panic recovered in a worker, as an error.
	panicErr error
	// degraded records element names whose refinement was skipped or cut
	// short by budget exhaustion.
	degraded map[string]bool
}

// recordPanic stores the first worker panic; later ones are dropped (one
// root cause is enough, and the first is the least likely to be fallout).
func (in *inferencer) recordPanic(err error) {
	in.mu.Lock()
	if in.panicErr == nil {
		in.panicErr = err
	}
	in.mu.Unlock()
}

// markDegraded records that n's specialization kept its unrefined source
// type (or a conservatively classified one) because the budget ran out.
// The skip is also a span event: refinement is a budget charge site, and
// the trace should name the elements whose tightening was abandoned.
func (in *inferencer) markDegraded(n string) {
	in.mu.Lock()
	in.degraded[n] = true
	in.mu.Unlock()
	obs.AddEvent(in.ctx, "infer.refine.skipped", obs.String("element", n))
}

// err reports the first fatal interrupt: a worker panic or a cancelled
// context. Budget exhaustion is deliberately NOT fatal — it degrades.
func (in *inferencer) err() error {
	in.mu.Lock()
	p := in.panicErr
	in.mu.Unlock()
	if p != nil {
		return p
	}
	return in.ctx.Err()
}

// Infer derives the view DTD for a pick-element query over the source DTD.
// It returns ErrRecursivePath for recursive views and an error for invalid
// queries; an unsatisfiable (empty) view is not an error — the result's
// Class says so and the DTD describes the empty view document.
func Infer(q *xmas.Query, src *dtd.DTD) (*Result, error) {
	return InferContext(context.Background(), q, src)
}

// InferContext is Infer with cancellation and budgeting: the per-name
// refinement fan-out (the hot loop of the tightening pass, which compiles
// and checks automata for every element name a condition can match) runs
// on up to GOMAXPROCS goroutines and stops early when the context is
// cancelled, in which case the context's error is returned. A panic in a
// worker is recovered and returned as an error naming the offending
// element, never crashing the process.
//
// A budget attached to the context (budget.NewContext) bounds the
// inference-side automata work. Budget exhaustion is NOT an error: the
// affected element names keep their unrefined source types — a sound but
// looser view DTD — and the Result reports Degraded with the names and
// reason. This is the paper's soundness-over-tightness trade made
// operational: a pathological source DTD yields a usable (sound) view
// DTD within the budget instead of an exponential construction.
func InferContext(ctx context.Context, q *xmas.Query, src *dtd.DTD) (*Result, error) {
	if errs := q.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("infer: invalid query: %v", errs[0])
	}
	if q.Root.HasRecursive() {
		return nil, ErrRecursivePath
	}
	if errs := src.Check(); len(errs) > 0 {
		return nil, fmt.Errorf("infer: inconsistent source DTD: %v", errs[0])
	}
	if _, clash := src.Types[q.Name]; clash {
		return nil, fmt.Errorf("infer: view name %q collides with a source element name", q.Name)
	}
	// One span per inference run. The budget's charge stream is routed to
	// this span for the duration of the run, so the trace of a degraded
	// request shows the per-resource totals (DFA states, refine steps,
	// classes) and the discrete hot-spot events (cold compiles,
	// exhaustion) that consumed the budget.
	ctx, span := obs.StartSpan(ctx, "infer",
		obs.String("view", q.Name), obs.String("source_root", src.Root))
	defer span.End()
	if span != nil {
		if b := budget.FromContext(ctx); b != nil {
			b.SetObserver(span)
			defer b.SetObserver(nil)
		}
	}
	in := newInferencer(ctx, q, src)
	view, err := in.specialized()
	if err != nil {
		return nil, err
	}
	view = view.Normalize(in.bud)

	plain, events, err := view.Merge(in.bud)
	if err != nil {
		return nil, fmt.Errorf("infer: %v", err)
	}
	nonTight := false
	for _, ev := range events {
		if ev.Distinct {
			nonTight = true
		}
	}
	class := in.queryClass()
	if err := in.err(); err != nil {
		return nil, err
	}
	res := &Result{
		SDTD:     view,
		DTD:      plain,
		Class:    class,
		Merges:   events,
		NonTight: nonTight,
	}
	if ex := in.bud.Exhausted(); ex != nil {
		res.Degraded = true
		res.DegradedReason = ex.Error()
		in.mu.Lock()
		res.DegradedNames = sortedKeys(in.degraded)
		in.mu.Unlock()
	}
	span.SetAttr(obs.String("class", res.Class.String()), obs.Bool("degraded", res.Degraded))
	if res.Degraded {
		span.Event("infer.degraded",
			obs.String("reason", res.DegradedReason),
			obs.Int("loose_names", int64(len(res.DegradedNames))))
	}
	return res, nil
}

func newInferencer(ctx context.Context, q *xmas.Query, src *dtd.DTD) *inferencer {
	return &inferencer{
		ctx:      ctx,
		bud:      budget.FromContext(ctx),
		src:      src,
		q:        q,
		nextTag:  map[string]int{},
		full:     map[*xmas.Cond]map[string]*spec{},
		degraded: map[string]bool{},
	}
}

// specialized assembles the view's s-DTD as refinement leaves it: every
// reachable type declared, the specializations not yet normalized.
func (in *inferencer) specialized() (*sdtd.SDTD, error) {
	path, err := in.q.PathToPick()
	if err != nil {
		return nil, err
	}

	// Result-list type inference (Section 4.4) yields the content model of
	// the view's top element over the pick specializations.
	listType := in.inferList(path)
	if err := in.err(); err != nil {
		// Cancelled or panicked mid-fan-out: specs may be half-computed;
		// bail before assembling anything from them.
		return nil, err
	}

	// Assemble the specialized view DTD.
	// Sized by the source: the view declares the names under the pick, their
	// specializations, and the view's own.
	view := sdtd.NewSized(regex.N(in.q.Name), len(in.src.Types))
	view.Declare(regex.N(in.q.Name), dtd.M(automata.Reduce(listType, in.bud)))
	pick := path[len(path)-1]
	in.declareSubtree(view, pick)
	if err := in.err(); err != nil {
		return nil, err
	}
	in.pull(view)
	pruneUnreachable(view)
	return view, nil
}

// effNames returns the names the condition can match among the DTD's
// declared names, in DTD declaration order (wildcard = all names, the
// paper's preprocessing of name variables).
func (in *inferencer) effNames(c *xmas.Cond) []string {
	if len(c.Names) == 0 {
		return in.src.Names()
	}
	var out []string
	for _, n := range in.src.Names() {
		if c.MatchesName(n) {
			out = append(out, n)
		}
	}
	return out
}

func (in *inferencer) allocTag(base string) regex.Name {
	in.nextTag[base]++
	return regex.T(base, in.nextTag[base])
}

// tightenCond computes, for every name the condition can match, the
// specialization obtained by refining the name's source type with all of
// the condition's subconditions (Figure 2). Results are memoized per
// condition node.
func (in *inferencer) tightenCond(c *xmas.Cond) map[string]*spec {
	if m, ok := in.full[c]; ok {
		return m
	}
	m := in.refineWith(c, c.Children)
	in.full[c] = m
	return m
}

// childSel is one child condition's contribution to its parent's
// refinement: the names it can match (with their allocated tags) and its
// own classification. Qualifier children carry the qualifier flag: they
// are existential filters that never join the injective distinct-children
// assignment, so they must not refine the content model — they only gate
// the classification.
type childSel struct {
	sel       map[string]regex.Name
	class     Class
	qualifier bool
}

// refineWith computes the per-name specializations of condition c using the
// given subset of its children (the full set for ordinary tightening; all
// but the path child when computing the side-refined types that feed list
// inference).
func (in *inferencer) refineWith(c *xmas.Cond, children []*xmas.Cond) map[string]*spec {
	out := map[string]*spec{}
	// Recurse into children once; shared across this condition's names.
	var sels []childSel
	for _, cc := range children {
		specs := in.tightenCond(cc)
		cs := childSel{sel: map[string]regex.Name{}, class: Valid, qualifier: cc.Qualifier}
		for _, base := range sortedKeys(specs) {
			sp := specs[base]
			if sp.class == Unsatisfiable {
				continue
			}
			cs.sel[base] = sp.name
			if sp.class != Valid {
				cs.class = Satisfiable
			}
		}
		if len(cs.sel) == 0 {
			cs.class = Unsatisfiable
		}
		sels = append(sels, cs)
	}

	// Tag allocation is serial and in name order, so the minted tags — and
	// with them the entire inferred s-DTD — stay deterministic regardless
	// of how the refinement work below is scheduled.
	names := in.effNames(c)
	for _, n := range names {
		out[n] = &spec{name: in.allocTag(n)}
	}
	// The per-name refinements are independent (they read only the source
	// DTD and the shared sels) and each one compiles and checks automata,
	// so they fan out across goroutines.
	in.fanOut(len(names), func(i int) string { return names[i] }, func(i int) {
		in.computeSpec(c, children, sels, names[i], out[names[i]])
	})
	// An interrupted fan-out (cancellation or a worker panic) leaves some
	// specs half-built: typ zero-valued (nil Model, not PCDATA). Later
	// phases would feed that nil into regex.Map and panic on the main
	// goroutine, so patch them into inert Unsatisfiable specs; the
	// interrupt itself is surfaced by the phase checks on in.err().
	for _, n := range names {
		sp := out[n]
		if sp.typ.Model == nil && !sp.typ.PCDATA {
			sp.typ = dtd.M(regex.Bot())
			sp.class = Unsatisfiable
		}
	}
	return out
}

// computeSpec fills in the type and classification of one name's
// specialization (the body of Figure 2's per-name loop). It must stay free
// of inferencer mutation: refineWith runs it concurrently for the names of
// one condition.
func (in *inferencer) computeSpec(c *xmas.Cond, children []*xmas.Cond, sels []childSel, n string, sp *spec) {
	srcType := in.src.Types[n]
	switch {
	case c.HasText:
		// A string condition needs PCDATA content; the DTD cannot
		// guarantee the particular string, so it is never valid.
		if srcType.PCDATA {
			sp.typ = dtd.PC()
			sp.class = Satisfiable
		} else {
			sp.class = Unsatisfiable
		}
	case len(children) == 0:
		// Pure existence of the name: the type is untouched and, given
		// an element of this name exists, the condition always holds.
		sp.typ = srcType
		sp.class = Valid
	case srcType.PCDATA:
		// Subconditions can never match inside character content.
		sp.class = Unsatisfiable
	default:
		if in.bud.Err() != nil {
			// Budget already exhausted: skip refinement entirely. The
			// unrefined source type is a superset of the refined language
			// (refinement only removes words), so the view DTD stays sound;
			// Satisfiable is the sound middle classification (never claims
			// Valid, never prunes as Unsatisfiable).
			in.markDegraded(n)
			sp.typ = srcType
			sp.class = Satisfiable
			break
		}
		t := srcType.Model
		class := Valid
		degraded := false
		for _, cs := range sels {
			if cs.class == Unsatisfiable {
				// A child no name can satisfy (qualifier or not) makes the
				// whole condition unsatisfiable here.
				t = regex.Bot()
				break
			}
			if cs.qualifier {
				continue // existential: handled below, never refines the model
			}
			if err := in.bud.ChargeRefine(int64(regex.Size(t))); err != nil {
				degraded = true
				break
			}
			t = automata.Reduce(Refine(t, cs.sel, in.bud), in.bud)
			if regex.IsFail(t) {
				break
			}
			if cs.class != Valid {
				class = Satisfiable
			}
		}
		if degraded || in.bud.Err() != nil {
			in.markDegraded(n)
			sp.typ = srcType
			sp.class = Satisfiable
			break
		}
		if regex.IsFail(t) {
			sp.class = Unsatisfiable
			break
		}
		// Qualifiers: keeping the model unrefined is sound (a superset of
		// the exact language), but the classification must account for
		// them. A qualifier none of whose admissible names can occur among
		// the children is unsatisfiable here; a possible one is never
		// guaranteed by the DTD alone, so Valid degrades to Satisfiable.
		qualUnsat := false
		for _, cs := range sels {
			if !cs.qualifier || cs.class == Unsatisfiable {
				continue
			}
			present := false
			for _, m := range regex.Names(t) {
				if _, ok := cs.sel[m.Base]; ok {
					present = true
					break
				}
			}
			if !present {
				qualUnsat = true
				break
			}
			if class == Valid {
				class = Satisfiable
			}
		}
		if qualUnsat {
			sp.class = Unsatisfiable
			break
		}
		// Valid iff the refinement did not shrink the image language:
		// "if the refinement included an elimination of a disjunct or a
		// refinement of a star expression, indicate that the condition
		// is not satisfied by all instances" (Figure 2).
		if class == Valid && !refinementIsValid(srcType.Model, sels, in.bud) {
			class = Satisfiable
		}
		sp.typ = dtd.M(t)
		sp.class = class
	}
	if sp.class == Unsatisfiable {
		sp.typ = dtd.M(regex.Bot())
	}
}

// fanOut runs f(0..n-1) on up to GOMAXPROCS goroutines, stopping early
// (without starting new items) when the inferencer's context is cancelled
// or a worker has panicked. A panic inside f is recovered and recorded as
// an error naming the offending item (via label), so one pathological
// element name fails the inference call instead of crashing the process.
// With a single processor — or a single item — it degrades to the plain
// serial loop, paying no goroutine overhead.
func (in *inferencer) fanOut(n int, label func(i int) string, f func(i int)) {
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				in.recordPanic(fmt.Errorf("%w refining element %q: %v", ErrWorkerPanic, label(i), r))
			}
		}()
		f(i)
	}
	stopped := func() bool {
		if in.ctx.Err() != nil {
			return true
		}
		in.mu.Lock()
		p := in.panicErr
		in.mu.Unlock()
		return p != nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stopped() {
				return
			}
			run(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n || stopped() {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// refinementIsValid decides whether every word of the model admits an
// injective assignment of the child selections to occurrences — i.e.
// whether the sequential refinement removed nothing from the language.
//
// When the selections' base-name sets are pairwise identical or disjoint
// (the overwhelmingly common shape), this reduces exactly to an occurrence
// count per group — every accepted word must carry at least `count`
// positions drawn from the group's names — decided on the model's DFA with
// a capped counter in O(states × alphabet × count). This avoids
// compiling the refined expression, whose "which position hosts the
// occurrence" alternation makes subset construction blow up on union-view
// scale models. Overlapping, non-identical selections fall back to the
// language-containment check, size-limited (too large ⇒ conservatively
// not valid; sound, merely less tight).
func refinementIsValid(model regex.Expr, sels []childSel, bud *budget.Budget) bool {
	type group struct {
		bases map[string]bool
		key   string
		count int
	}
	var groups []group
	for _, cs := range sels {
		bases := map[string]bool{}
		for b := range cs.sel {
			bases[b] = true
		}
		key := strings.Join(sortedKeys(bases), "\x00")
		found := false
		for i := range groups {
			if groups[i].key == key {
				groups[i].count++
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, group{bases: bases, key: key, count: 1})
		}
	}
	// Pairwise disjointness between distinct groups.
	disjoint := true
	for i := 0; i < len(groups) && disjoint; i++ {
		for j := i + 1; j < len(groups) && disjoint; j++ {
			for b := range groups[i].bases {
				if groups[j].bases[b] {
					disjoint = false
					break
				}
			}
		}
	}
	if disjoint {
		for _, g := range groups {
			ok, err := atLeastOccurrences(model, g.bases, g.count, bud)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
	// Fallback: explicit refinement + containment, bounded.
	t := model
	for _, cs := range sels {
		t = regex.Simplify(Refine(t, cs.sel, bud), bud)
		if regex.IsFail(t) {
			return false
		}
	}
	img := regex.Image(t)
	if regex.Size(img)+regex.Size(model) > validityCheckSizeLimit {
		return false // conservative
	}
	contained, err := automata.Contains(model, img, bud)
	return err == nil && contained
}

// atLeastOccurrences reports whether every word of L(model) contains at
// least k positions whose (untagged) name lies in bases. The DFA
// compilation is the expensive part, so it is budgeted; an exhausted
// budget returns an error and the caller answers conservatively.
func atLeastOccurrences(model regex.Expr, bases map[string]bool, k int, bud *budget.Budget) (bool, error) {
	d, err := automata.Compiled(model, bud)
	if err != nil {
		return false, err
	}
	counting := make([]bool, len(d.Alphabet))
	for ai, n := range d.Alphabet {
		counting[ai] = n.Tag == 0 && bases[n.Base]
	}
	// BFS over (state, min(count, k)).
	type ps struct{ s, c int }
	seen := map[ps]bool{{d.Start, 0}: true}
	queue := []ps{{d.Start, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if d.Accept[cur.s] && cur.c < k {
			return false, nil
		}
		for ai := range d.Alphabet {
			nc := cur.c
			if counting[ai] && nc < k {
				nc++
			}
			np := ps{d.Trans[cur.s][ai], nc}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true, nil
}

// queryClass classifies the whole condition against the source document
// type (the side effect of Section 4.2).
func (in *inferencer) queryClass() Class {
	root := in.q.Root
	if !root.MatchesName(in.src.Root) {
		return Unsatisfiable
	}
	sp, ok := in.tightenCond(root)[in.src.Root]
	if !ok {
		return Unsatisfiable
	}
	return sp.class
}

// declareSubtree declares in the view s-DTD every specialization of the
// pick condition and of all conditions below it — the types of the
// elements that can appear in the view.
func (in *inferencer) declareSubtree(view *sdtd.SDTD, c *xmas.Cond) {
	for _, base := range sortedKeys(in.tightenCond(c)) {
		sp := in.tightenCond(c)[base]
		if sp.class == Unsatisfiable {
			continue
		}
		view.Declare(sp.name, sp.typ)
	}
	for _, cc := range c.Children {
		in.declareSubtree(view, cc)
	}
}

// pull copies, for every untagged name referenced by a declared type but
// not yet declared, its source definition into the view s-DTD — the "pull"
// step of Figure 2 that completes the view DTD with the unrefined types.
func (in *inferencer) pull(view *sdtd.SDTD) {
	var missing []regex.Name
	refs := make([]regex.Name, 0, 16)
	for {
		missing = missing[:0]
		for _, n := range view.Names() {
			t := view.Types[n]
			if t.PCDATA || t.Model == nil {
				continue
			}
			refs = regex.AppendNames(refs[:0], t.Model)
			for _, m := range refs {
				if _, declared := view.Types[m]; !declared && !slices.Contains(missing, m) {
					missing = append(missing, m)
				}
			}
		}
		if len(missing) == 0 {
			return
		}
		for _, m := range missing {
			if m.Tag != 0 {
				// Cannot happen for inferred s-DTDs: every tag we mint is
				// declared alongside its use.
				panic(fmt.Sprintf("infer: undeclared tagged name %s", m))
			}
			src, ok := in.src.Types[m.Base]
			if !ok {
				panic(fmt.Sprintf("infer: name %s not in source DTD", m.Base))
			}
			view.Declare(m, src)
		}
	}
}

// pruneUnreachable drops declarations not reachable from the view root —
// the paper's first tightening step: keep "only the types for the names
// that may appear in the view documents".
func pruneUnreachable(view *sdtd.SDTD) {
	reach := map[regex.Name]bool{view.Root: true}
	work := []regex.Name{view.Root}
	refs := make([]regex.Name, 0, 16)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		t, ok := view.Types[n]
		if !ok || t.PCDATA || t.Model == nil {
			continue
		}
		refs = regex.AppendNames(refs[:0], t.Model)
		for _, m := range refs {
			if !reach[m] {
				reach[m] = true
				work = append(work, m)
			}
		}
	}
	for _, n := range view.Names() {
		if !reach[n] {
			delete(view.Types, n)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
