package mediator

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The mediator's inference budget must reach every place the definition path
// and the request path spend automata work. These tests assert on budget
// state, plan counters, Degraded and bytes — never on elapsed time: the
// hostile models are kept small enough (2^9 .. 2^11 states) that the code
// they guard against would also finish, and be caught by what it leaves
// behind.

// blowupModel is (x|y)*, x, (x|y)^k: its minimal DFA has 2^(k+1) states.
func blowupModel(k int) regex.Expr {
	xy := regex.Or(regex.Nm("x"), regex.Nm("y"))
	tower := regex.Cat(regex.Rep(xy), regex.Nm("x"))
	for i := 0; i < k; i++ {
		tower = regex.Cat(tower, xy)
	}
	return tower
}

// addBlowupSource registers a source whose DTD hides blowupModel(k) behind an
// optional element no finite document contains (x and y are unrealizable), as
// internal/infer/degrade_test.go does: only static analysis ever meets it.
func addBlowupSource(t *testing.T, m *Mediator, name string, k int) {
	t.Helper()
	d := dtd.New("site")
	d.Declare("site", dtd.M(regex.Cat(regex.Nm("info"), regex.Maybe(regex.Nm("m")))))
	d.Declare("m", dtd.M(blowupModel(k)))
	d.Declare("x", dtd.M(regex.Nm("x")))
	d.Declare("y", dtd.M(regex.Nm("y")))
	d.Declare("info", dtd.PC())
	doc, _, err := xmlmodel.Parse(`<site><info>up</info></site>`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStaticSource(name, doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
}

// TestUnionSDTDsBudgetExhaustedKeepsSpecializationsApart: the union's
// Normalize asks whether the parts' same-named types are equivalent. Under a
// budget that cannot pay for the two m models' automata the question stays
// open, the specializations stay apart (sound, looser), the budget says so —
// and no automaton was built behind its back.
func TestUnionSDTDsBudgetExhaustedKeepsSpecializationsApart(t *testing.T) {
	part := func(k int) *sdtd.SDTD {
		s := sdtd.New(regex.N("v"))
		s.Declare(regex.N("v"), dtd.M(regex.Rep(regex.Nm("m"))))
		s.Declare(regex.N("m"), dtd.M(blowupModel(k)))
		s.Declare(regex.N("x"), dtd.PC())
		s.Declare(regex.N("y"), dtd.PC())
		return s
	}
	parts := []*sdtd.SDTD{part(9), part(10)}
	automata.PurgeCache()
	before := automata.CacheStats().Size
	bud := budget.New(budget.Limits{MaxStates: 64})
	union, err := UnionSDTDs(regex.N("v"), parts, bud)
	if err != nil {
		t.Fatal(err)
	}
	if bud.Exhausted() == nil {
		t.Fatalf("budget not exhausted (usage %+v): the union normalized outside it", bud.Usage())
	}
	if got := union.Specializations("m"); len(got) != 2 {
		t.Errorf("m specializations = %v, want the two unproven ones kept apart\n%s", got, union)
	}
	if got := union.Specializations("x"); len(got) != 1 {
		t.Errorf("x specializations = %v, want the PCDATA ones collapsed: that costs no budget", got)
	}
	if grew := automata.CacheStats().Size - before; grew != 0 {
		t.Errorf("automata cache grew by %d entries under a budget of 64 states", grew)
	}
	// A resident DFA is handed out for free, so a compile that one state
	// cannot pay for proves the model's automaton was never built.
	for _, k := range []int{9, 10} {
		if _, err := automata.Compiled(blowupModel(k), budget.New(budget.Limits{MaxStates: 1})); !errors.Is(err, budget.ErrExhausted) {
			t.Errorf("k = %d: compile under one state: err = %v, want exhaustion (the DFA is resident)", k, err)
		}
	}
}

// TestDefineUnionViewBudgetDegradesAtTheUnion: the same two models behind two
// sources. Each part's inference leaves m untouched (the query puts no
// condition on it), so what degrades the view is the union itself.
func TestDefineUnionViewBudgetDegradesAtTheUnion(t *testing.T) {
	m := New("edge")
	m.SetInferenceBudget(budget.Limits{MaxStates: 64})
	addBlowupSource(t, m, "a", 9)
	addBlowupSource(t, m, "b", 10)
	q := xmas.MustParse(`ms = SELECT M WHERE <site> M:<m/> </site>`)
	v, err := m.DefineUnionView("ms", []ViewPart{{Source: "a", Query: q}, {Source: "b", Query: q}})
	if err != nil {
		t.Fatalf("view definition must degrade, not fail: %v", err)
	}
	if !v.Degraded || v.DegradedReason == "" {
		t.Errorf("Degraded = %v, reason %q; want the view marked degraded", v.Degraded, v.DegradedReason)
	}
	if len(v.DegradedSources) != 0 {
		t.Errorf("DegradedSources = %v, want none: no part's inference degraded", v.DegradedSources)
	}
	if got := v.SDTD.Specializations("m"); len(got) != 2 {
		t.Errorf("m specializations = %v, want 2", got)
	}
	if st := m.Stats(); st.DegradedViews != 1 || st.BudgetExhaustions != 1 {
		t.Errorf("degraded_views = %d, budget_exhaustions = %d, want 1 and 1", st.DegradedViews, st.BudgetExhaustions)
	}
}

// TestDegradedViewQueryReturnsCancellation: a query's static analysis runs
// while the request lives. Against a degraded view — the one whose DTD kept a
// hostile model — a request that is already gone gets its context's error,
// not an answer computed for nobody.
func TestDegradedViewQueryReturnsCancellation(t *testing.T) {
	m := New("edge")
	m.SetInferenceBudget(budget.Limits{MaxStates: 64})
	addBlowupSource(t, m, "hostile", 8)
	v, err := m.DefineView("hostile", xmas.MustParse(`blow = SELECT M WHERE <site> M:<m> <x id=A/> <x id=B/> </m> </site> AND A != B`))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Degraded {
		t.Fatal("fixture: the view must be degraded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := xmas.MustParse(`r = SELECT X WHERE <blow> X:<m> <x/> </m> </blow>`)
	if res, _, err := m.Query(ctx, "blow", q); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query under a cancelled context: result %v, err %v; want context.Canceled", res, err)
	}
	if st := m.Stats(); st.PlanCacheSize != 0 {
		t.Errorf("plan_cache_size = %d, want 0: a cancelled analysis is not a plan", st.PlanCacheSize)
	}
}

// TestQueryBudgetExhaustedSimplificationNotKept: simplification runs under
// the mediator's budget. One it exhausts prunes nothing — so the answer is
// the unsimplified query's, byte for byte — and is one budget's opinion: the
// plan is not kept, the next request analyses again, and each exhaustion is
// counted.
func TestQueryBudgetExhaustedSimplificationNotKept(t *testing.T) {
	m := newDeptMediator(t)
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	// With no budget this is TestQueryAgainstView: the publication test is
	// pruned, on the word of an automaton.
	q := xmas.MustParse(`profs = SELECT X WHERE <withJournals> X:<professor><publication/></professor> </withJournals>`)
	ctx := context.Background()
	want, err := m.QueryUnsimplified(ctx, "withJournals", q)
	if err != nil {
		t.Fatal(err)
	}
	automata.PurgeCache() // a resident DFA would answer for free
	m.SetInferenceBudget(budget.Limits{MaxStates: 1})
	for i := int64(1); i <= 2; i++ {
		res, qs, err := m.Query(ctx, "withJournals", q)
		if err != nil {
			t.Fatal(err)
		}
		if qs.PrunedConditions != 0 || qs.SimplifierError != "" {
			t.Errorf("send %d: pruned = %d, simplifier error %q; want nothing pruned, nothing failed", i, qs.PrunedConditions, qs.SimplifierError)
		}
		if got, want := xmlmodel.Marshal(res, -1), xmlmodel.Marshal(want, -1); got != want {
			t.Errorf("send %d: answer differs from QueryUnsimplified's:\n%s\nwant\n%s", i, got, want)
		}
		if st := m.Stats(); st.PlanMisses != i || st.PlanHits != 0 || st.PlanCacheSize != 0 || st.BudgetExhaustions != i {
			t.Errorf("send %d: plan_misses = %d, plan_hits = %d, plan_cache_size = %d, budget_exhaustions = %d; want %d, 0, 0, %d",
				i, st.PlanMisses, st.PlanHits, st.PlanCacheSize, st.BudgetExhaustions, i, i)
		}
	}
	// The proof a larger budget reaches was not shadowed.
	m.SetInferenceBudget(budget.Limits{})
	if _, qs, err := m.Query(ctx, "withJournals", q); err != nil || qs.PrunedConditions != 1 {
		t.Errorf("unlimited: pruned = %v, err = %v; want the condition pruned", fmt.Sprint(qs), err)
	}
	if st := m.Stats(); st.PlanCacheSize != 1 {
		t.Errorf("unlimited: plan_cache_size = %d, want the plan kept", st.PlanCacheSize)
	}
}
