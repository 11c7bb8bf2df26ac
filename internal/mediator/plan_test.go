// Tests for the query-plan memo (plan.go): what a repeated query is spared,
// what it is not, and which plans are never kept. The differential over the
// load families is in plan_diff_test.go.
package mediator

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// TestPlanHitAllocs is the ratchet on what the memo leaves of a repeated
// query's static analysis: the key and the lookup. The key is built in a
// stack buffer; what is allocated is its string. The read that follows a
// hit takes everything the analysis concluded from the plan — the list of
// pruned sources too, which it used to work out again per read.
func TestPlanHitAllocs(t *testing.T) {
	m, _, _ := newLibMediator(t)
	v, err := m.View("cat")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := xmas.MustParse(qBooksText)
	if _, hit, _, err := m.planFor(ctx, v, q, nil, true, budget.Limits{}); err != nil || hit {
		t.Fatalf("first ask: hit=%v err=%v, want an analysis", hit, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, _, err := m.planFor(ctx, v, q, nil, true, budget.Limits{}); err != nil || !hit {
			t.Fatalf("repeat: hit=%v err=%v, want a plan hit", hit, err)
		}
	})
	if allocs > 2 { // measured 1
		t.Errorf("planning a repeated query costs %.0f allocations, want <= 2", allocs)
	}
	plan, _, _, _ := m.planFor(ctx, v, q, nil, true, budget.Limits{})
	read := testing.AllocsPerRun(200, func() {
		if _, qs, err := m.Query(ctx, "cat", q); err != nil || len(qs.PrunedSources) != 1 || &qs.PrunedSources[0] != &plan.prunedSources[0] {
			t.Fatalf("warm pruned query: stats %+v, err %v; want the plan's own list of pruned sources", qs, err)
		}
	})
	t.Logf("a plan hit: %v allocs; the warm pruned query around it: %v", allocs, read)
	if read > 22 { // measured 20; 22 while an untraced call site still built its attribute list, 26 when the read listed the pruned sources itself
		t.Errorf("a warm pruned query costs %.0f allocations, want <= 22", read)
	}
}

// TestPlanHitKeepsPruneEvents: the plan carries each pruned part's source
// and reason, so the trace of a repeated query says what was pruned and why
// exactly as the first one's did.
func TestPlanHitKeepsPruneEvents(t *testing.T) {
	m, _, _ := newLibMediator(t)
	tracer := obs.NewTracer(4)
	ask := func() *obs.SpanSnapshot {
		t.Helper()
		ctx, root := tracer.StartRequest(context.Background(), new(obs.RequestContext), "req", "")
		if _, _, err := m.Query(ctx, "cat", xmas.MustParse(qBooksText)); err != nil {
			t.Fatal(err)
		}
		root.End()
		span := tracer.Traces(1)[0].Span("query")
		if span == nil {
			t.Fatal("no query span recorded")
		}
		return span
	}
	attr := func(attrs []obs.Attr, key string) string {
		for _, a := range attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	for i, wantHit := range []string{"false", "true"} {
		span := ask()
		if got := attr(span.Attrs, "plan_hit"); got != wantHit {
			t.Errorf("ask %d: plan_hit = %q, want %q", i, got, wantHit)
		}
		if got := attr(span.Attrs, "parts_pruned"); got != "1" {
			t.Errorf("ask %d: parts_pruned = %q, want 1", i, got)
		}
		var pruned []obs.Event
		for _, ev := range span.Events {
			if ev.Name == "query.part_pruned" {
				pruned = append(pruned, ev)
			}
		}
		if len(pruned) != 1 || attr(pruned[0].Attrs, "source") != "libB" || attr(pruned[0].Attrs, "reason") != "verdict_unsatisfiable" {
			t.Errorf("ask %d: query.part_pruned events = %+v, want one for libB with reason verdict_unsatisfiable", i, pruned)
		}
	}
}

// TestPlanSurvivesInvalidateSource: an invalidation says a source's data
// changed, which no plan looked at. The repeat is a plan hit and still
// answers from the new document — the part slots' generation fence, not the
// memo, decides what is refetched.
func TestPlanSurvivesInvalidateSource(t *testing.T) {
	m := New("libs")
	d, err := dtd.Parse(libADTDText)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(text string) *xmlmodel.Document {
		doc, _, err := xmlmodel.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	src, err := NewStaticSource("libA", parse(libADocText), d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	addLibSource(t, m, "libB", libBDTDText, libBDocText)
	part := `SELECT I WHERE <library> I:<item/> </library>`
	if _, err := m.DefineUnionView("cat", []ViewPart{
		{Source: "libA", Query: xmas.MustParse(part)},
		{Source: "libB", Query: xmas.MustParse(part)},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, _, err := m.Query(ctx, "cat", xmas.MustParse(qBooksText))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Root.Children) != 2 {
		t.Fatalf("answer over the first document has %d items, want 2", len(first.Root.Children))
	}

	src.Doc = parse(`<library><item><book>Solaris</book></item></library>`)
	if _, err := m.InvalidateSource("libA"); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	second, qs, err := m.Query(ctx, "cat", xmas.MustParse(qBooksText))
	if err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if after.PlanHits != before.PlanHits+1 || after.PlanMisses != before.PlanMisses {
		t.Errorf("query after InvalidateSource must be a plan hit: hits %d -> %d, misses %d -> %d",
			before.PlanHits, after.PlanHits, before.PlanMisses, after.PlanMisses)
	}
	if got := xmlmodel.MarshalElement(second.Root, -1); !strings.Contains(got, "Solaris") || strings.Contains(got, "Dune") {
		t.Errorf("plan hit answered from the old document: %s", got)
	}
	if len(qs.PrunedSources) != 1 || qs.PrunedSources[0] != "libB" {
		t.Errorf("PrunedSources = %v, want [libB]", qs.PrunedSources)
	}

	m.Invalidate()
	if _, _, err := m.Query(ctx, "cat", xmas.MustParse(qBooksText)); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(); got.PlanHits != after.PlanHits+1 || got.PlanCacheSize != after.PlanCacheSize {
		t.Errorf("Invalidate touched the plans: hits %d -> %d, size %d -> %d",
			after.PlanHits, got.PlanHits, after.PlanCacheSize, got.PlanCacheSize)
	}
}

// TestPlanObeysSetPruning: the pruning setting is read per request, so a
// plan made under one setting never answers a request made under the other.
func TestPlanObeysSetPruning(t *testing.T) {
	m, _, fsB := newLibMediator(t)
	ctx := context.Background()
	ask := func(pruning bool, wantPruned int, wantFetchesB int64) {
		t.Helper()
		m.SetPruning(pruning)
		_, qs, err := m.Query(ctx, "cat", xmas.MustParse(qBooksText))
		if err != nil {
			t.Fatal(err)
		}
		if len(qs.PrunedSources) != wantPruned {
			t.Errorf("pruning=%v: PrunedSources = %v, want %d", pruning, qs.PrunedSources, wantPruned)
		}
		if got := fsB.Fetches(); got != wantFetchesB {
			t.Errorf("pruning=%v: libB fetches = %d, want %d", pruning, got, wantFetchesB)
		}
	}
	ask(true, 1, 0)
	ask(true, 1, 0) // a plan hit, still pruned
	ask(false, 0, 1)
	ask(false, 0, 1) // a plan hit (libB's part is cached), still unpruned
	ask(true, 1, 1)
	if st := m.Stats(); st.PlanMisses != 2 || st.PlanHits != 3 || st.PartsPruned != 3 {
		t.Errorf("misses = %d, hits = %d, parts pruned = %d; want one analysis per setting (2), 3 hits, 3 prunes",
			st.PlanMisses, st.PlanHits, st.PartsPruned)
	}
}

// generalLibMediator serves items whose content model, (a, a, b) | b, is
// outside the classes the fast satisfiability tier decides: a probe with two
// <a/> conditions reaches the budgeted classifier.
func generalLibMediator(t *testing.T) *Mediator {
	t.Helper()
	d := dtd.New("library")
	d.Declare("library", dtd.M(regex.Star{Sub: regex.Nm("item")}))
	d.Declare("item", dtd.M(regex.Or(regex.Cat(regex.Nm("a"), regex.Nm("a"), regex.Nm("b")), regex.Nm("b"))))
	d.Declare("a", dtd.PC())
	d.Declare("b", dtd.PC())
	doc, _, err := xmlmodel.Parse(`<library><item><a>1</a><a>2</a><b>3</b></item><item><b>4</b></item></library>`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStaticSource("lib", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	m := New("libs")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineUnionView("cat", []ViewPart{{Source: "lib", Query: xmas.MustParse(`SELECT I WHERE <library> I:<item/> </library>`)}}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlanWithUnknownVerdictNotKept: under a budget too small for the
// classifier the prune verdict is Unknown — one budget's opinion. Such a
// plan answers its own request (Unknown means fetch) and is analysed again
// every time, so the proof a larger budget reaches is not shadowed; that
// plan is then kept.
func TestPlanWithUnknownVerdictNotKept(t *testing.T) {
	infer.PurgeSatisfiabilityCache()
	m := generalLibMediator(t)
	ctx := context.Background()
	const text = `r = SELECT X WHERE <cat> X:<item><a/><a/></item> </cat>`
	ask := func() {
		t.Helper()
		res, _, err := m.Query(ctx, "cat", xmas.MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Root.Children) != 1 {
			t.Fatalf("answer has %d items, want the one with two <a>", len(res.Root.Children))
		}
	}
	m.SetInferenceBudget(budget.Limits{MaxRefineSteps: 1})
	v, _ := m.View("cat")
	if _, _, unknown := pruneParts(budget.NewContext(ctx, m.InferenceBudget().Budget()), v, xmas.MustParse(text)); !unknown {
		t.Fatal("fixture: the tiny budget must leave the prune verdict Unknown")
	}
	for i := 1; i <= 3; i++ {
		ask()
		if st := m.Stats(); st.PlanMisses != int64(i) || st.PlanHits != 0 || st.PlanCacheSize != 0 {
			t.Fatalf("ask %d under the tiny budget: misses = %d, hits = %d, kept = %d; want every ask analysed and nothing kept",
				i, st.PlanMisses, st.PlanHits, st.PlanCacheSize)
		}
	}
	m.SetInferenceBudget(budget.Limits{})
	ask()
	if st := m.Stats(); st.PlanMisses != 4 || st.PlanCacheSize != 1 {
		t.Fatalf("first ask under the unlimited budget: misses = %d, kept = %d; want a fourth analysis, kept", st.PlanMisses, st.PlanCacheSize)
	}
	// A definitive plan is a proof under any budget: going back to the tiny
	// one does not lose it.
	m.SetInferenceBudget(budget.Limits{MaxRefineSteps: 1})
	ask()
	if st := m.Stats(); st.PlanMisses != 4 || st.PlanHits != 1 {
		t.Errorf("repeat of a kept plan: misses = %d, hits = %d; want 4 and 1", st.PlanMisses, st.PlanHits)
	}
}

// TestPlanWithSimplifierErrorNotKept: a simplifier failure — here a panic in
// a refinement worker, which SimplifyQuery used to read as "unsatisfiable" —
// falls back to the unsimplified query, is reported on every ask, and leaves
// nothing resident.
func TestPlanWithSimplifierErrorNotKept(t *testing.T) {
	m, fsA, _ := newLibMediator(t)
	v, err := m.View("cat")
	if err != nil {
		t.Fatal(err)
	}
	// Passes DTD.Check, panics regex's tree walks on the nil item.
	v.DTD.Types["cat"] = dtd.M(regex.Concat{Items: []regex.Expr{regex.Atom{Name: regex.N("item")}, nil}})
	ctx := context.Background()
	q := xmas.MustParse(qBooksText)
	want, err := m.QueryUnsimplified(ctx, "cat", q)
	if err != nil {
		t.Fatal(err)
	}
	fetched := fsA.Fetches()
	for i := 1; i <= 2; i++ {
		res, qs, err := m.Query(ctx, "cat", q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(qs.SimplifierError, "panic refining element") {
			t.Errorf("ask %d: SimplifierError = %q, want the recovered panic", i, qs.SimplifierError)
		}
		if qs.SkippedUnsatisfiable || !res.Root.Equal(want.Root) || len(res.Root.Children) != 2 {
			t.Errorf("ask %d: a simplifier crash answered %v (skipped=%v), want the unsimplified answer %v",
				i, res.Root, qs.SkippedUnsatisfiable, want.Root)
		}
		if st := m.Stats(); st.PlanMisses != int64(i) || st.PlanHits != 0 || st.PlanCacheSize != 0 || st.SimplifierErrors != int64(i) {
			t.Errorf("ask %d: misses = %d, hits = %d, kept = %d, simplifier errors = %d; want an analysis and an error per ask, nothing kept",
				i, st.PlanMisses, st.PlanHits, st.PlanCacheSize, st.SimplifierErrors)
		}
	}
	if got := fsA.Fetches(); got != fetched {
		t.Errorf("libA fetched %d more times; its part was cached", got-fetched)
	}
}

// TestPlanSingleflight: goroutines first-asking one new query share one
// analysis — whoever arrives while it runs joins it (the memo's Dedups),
// whoever arrives later finds the plan — and agree on the answer.
func TestPlanSingleflight(t *testing.T) {
	m, _, _ := newLibMediator(t)
	ctx := context.Background()
	if _, err := m.Materialize(ctx, "cat"); err != nil {
		t.Fatal(err)
	}
	const askers = 8
	children := []string{"book", "disc", "shelf", "book/><disc", "*"}
	for round, child := range children {
		text := `r = SELECT X WHERE <cat> X:<item><` + child + `/></item> </cat>`
		want, err := m.QueryUnsimplified(ctx, "cat", xmas.MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		before := m.plans.Stats()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < askers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				res, _, err := m.Query(ctx, "cat", xmas.MustParse(text))
				if err != nil {
					t.Error(err)
					return
				}
				if !res.Root.Equal(want.Root) {
					t.Errorf("round %d: answer %v, want %v", round, res.Root, want.Root)
				}
			}()
		}
		close(start)
		wg.Wait()
		after := m.plans.Stats()
		if got := after.Misses - before.Misses; got != 1 {
			t.Errorf("round %d: %d analyses for one new query asked %d times, want 1", round, got, askers)
		}
		if got := (after.Hits - before.Hits) + (after.Dedups - before.Dedups); got != askers-1 {
			t.Errorf("round %d: %d askers were spared the analysis (hits + dedups), want %d", round, got, askers-1)
		}
	}
	if got := m.plans.Len(); got != len(children) {
		t.Errorf("%d plans kept, want one per distinct query (%d)", got, len(children))
	}
}

// A text a cluster node forwards for is planned once, by the memo an owner's
// texts go through: a repeat finds the plan by its text, racing first requests
// go on with the one kept, a text that does not parse is refused as the
// request's fault every time and kept never, and a text longer than
// maxPlanText is parsed for every request — on a forwarder as on an owner —
// and finds its plan by the parsed query only.
func TestParsePlanOncePerText(t *testing.T) {
	ctx := context.Background()
	m, _, _ := newLibMediator(t)
	const text = qBooksText
	p, err := m.ParsePlan(ctx, []byte(text))
	if err != nil || p.root.Name != "r" || len(p.root.Children) != 0 || !p.remember || p.prepared == nil {
		t.Fatalf("first plan: %+v, %v", p, err)
	}
	before := m.Stats()
	if again, err := m.ParsePlan(ctx, []byte(strings.Clone(text))); err != nil || again != p {
		t.Fatalf("the same text again: another plan %v, %v", again != p, err)
	}
	if after := m.Stats(); after.PlanTextHits != before.PlanTextHits+1 || after.PlanMisses != before.PlanMisses {
		t.Errorf("the same text again: %d text hits, %d analyses; want 1 and 0", after.PlanTextHits-before.PlanTextHits, after.PlanMisses-before.PlanMisses)
	}
	raced := []byte(`s = SELECT X WHERE <cat> X:<item/> </cat>`)
	plans := make([]*Plan, 8)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], _ = m.ParsePlan(ctx, raced)
		}()
	}
	wg.Wait()
	for _, q := range plans {
		if q == nil || q != plans[0] {
			t.Fatal("racing first requests for one text went on with different plans")
		}
	}
	before = m.Stats()
	for i := 0; i < 2; i++ {
		var textErr QueryTextError
		if _, err := m.ParsePlan(ctx, []byte(`r = SELECT X WHERE <cat> X:<item/>`)); !errors.As(err, &textErr) {
			t.Fatalf("unparseable text, try %d: %v is no QueryTextError", i, err)
		}
	}
	long := []byte(text + strings.Repeat(" ", maxPlanText))
	for i := 0; i < 2; i++ {
		if got, err := m.ParsePlan(ctx, long); err != nil || got != p {
			t.Fatalf("an over-long spelling of a planned text, ask %d: another plan %v, %v", i, got != p, err)
		}
		if _, _, err := m.Read(ctx, Request{View: "cat", Text: long}); err != nil {
			t.Fatal(err)
		}
	}
	if after := m.Stats(); after.PlanTextHits != before.PlanTextHits || after.PlanCacheSize != before.PlanCacheSize+1 {
		t.Errorf("%d plans found by text and %d entries kept since; want 0 and 1 — the owner's analysis of the over-long text, not the text",
			after.PlanTextHits-before.PlanTextHits, after.PlanCacheSize-before.PlanCacheSize)
	}
}
