package infer

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/regex"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// TestSimplifyPrunesValidCondition: every professor has a publication
// (publication+ in D1), so the existence test is redundant and pruned.
func TestSimplifyPrunesValidCondition(t *testing.T) {
	q := xmas.MustParse(`v = SELECT X WHERE <department> X:<professor><publication/></professor> </department>`)
	out, rep, err := SimplifyQuery(q, mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != Valid {
		t.Errorf("class = %v", rep.Class)
	}
	if rep.PrunedConditions != 1 {
		t.Errorf("pruned = %d, want 1", rep.PrunedConditions)
	}
	pick := out.Root.Children[0]
	if len(pick.Children) != 0 {
		t.Errorf("publication condition not pruned: %s", out)
	}
}

func TestSimplifyKeepsSatisfiableCondition(t *testing.T) {
	// <journal/> inside publication is satisfiable, not valid: keep it.
	q := xmas.MustParse(`v = SELECT X WHERE <department><professor> X:<publication><journal/></publication> </professor></department>`)
	out, rep, err := SimplifyQuery(q, mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedConditions != 0 {
		t.Errorf("pruned = %d, want 0\n%s", rep.PrunedConditions, out)
	}
}

func TestSimplifyKeepsBindingConditions(t *testing.T) {
	// The publication conditions carry IDs used in !=; they must survive
	// even though primitive existence would be valid.
	q := xmas.MustParse(q2Text)
	out, rep, err := SimplifyQuery(q, mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedConditions != 0 {
		t.Errorf("pruned = %d, want 0", rep.PrunedConditions)
	}
	if len(out.Neq) != 1 {
		t.Errorf("Neq lost")
	}
}

func TestSimplifyKeepsTextConditions(t *testing.T) {
	q := xmas.MustParse(`v = SELECT X WHERE <department><name>CS</name> X:<professor/> </department>`)
	out, rep, err := SimplifyQuery(q, mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedConditions != 0 {
		t.Errorf("string conditions must never be pruned\n%s", out)
	}
}

func TestSimplifyDropsUnsatisfiableNames(t *testing.T) {
	q := xmas.MustParse(`v = SELECT X WHERE <department> X:<professor|dean|gradStudent/> </department>`)
	out, rep, err := SimplifyQuery(q, mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedNames != 1 {
		t.Errorf("dropped = %d, want 1 (dean)", rep.DroppedNames)
	}
	pick := out.Root.Children[0]
	if strings.Join(pick.Names, ",") != "professor,gradStudent" {
		t.Errorf("names = %v", pick.Names)
	}
}

func TestSimplifyUnsatisfiableQuery(t *testing.T) {
	q := xmas.MustParse(`v = SELECT X WHERE <department> X:<dean/> </department>`)
	_, rep, err := SimplifyQuery(q, mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != Unsatisfiable {
		t.Errorf("class = %v", rep.Class)
	}
}

func TestSimplifyGuardsSiblingOverlap(t *testing.T) {
	// Two sibling conditions on publication: pruning the bare one would
	// weaken the two-distinct-children requirement.
	q := xmas.MustParse(`v = SELECT X WHERE <department>
	  X:<professor> <publication/> <publication><journal/></publication> </professor>
	</department>`)
	out, rep, err := SimplifyQuery(q, mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedConditions != 0 {
		t.Errorf("sibling-overlapping condition must not be pruned\n%s", out)
	}
}

func TestSimplifyRecursiveQueryPassesThrough(t *testing.T) {
	sec := `<!DOCTYPE section [
	  <!ELEMENT section (prolog, section*, conclusion)>
	  <!ELEMENT prolog (#PCDATA)> <!ELEMENT conclusion (#PCDATA)>
	]>`
	q := xmas.MustParse(`v = SELECT X WHERE <section*> X:<prolog/> </>`)
	out, rep, err := SimplifyQuery(q, mustDTD(t, sec))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != Satisfiable || out.String() != q.String() {
		t.Errorf("recursive query must pass through unchanged")
	}
}

// TestSimplifyPreservesSemantics: on random documents, the simplified
// query returns exactly the same picks as the original.
func TestSimplifyPreservesSemantics(t *testing.T) {
	src := mustDTD(t, d1Text)
	queries := []string{
		`v = SELECT X WHERE <department> X:<professor><publication/></professor> </department>`,
		`v = SELECT X WHERE <department> X:<professor|dean|gradStudent/> </department>`,
		`v = SELECT X WHERE <department><name>CS</name> X:<gradStudent><publication><journal/></publication></gradStudent> </department>`,
		`v = SELECT X WHERE <department> X:<professor><firstName/><lastName/><teaches/></professor> </department>`,
		q2Text,
	}
	g, err := gen.New(src, gen.Options{Seed: 99, AssignIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	docs := g.Corpus(60)
	for _, qs := range queries {
		q := xmas.MustParse(qs)
		sq, _, err := SimplifyQuery(q, src)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		for i, doc := range docs {
			a, err := engine.Eval(q, doc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := engine.Eval(sq, doc)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Root.Equal(b.Root) {
				t.Fatalf("simplification changed semantics on doc %d:\noriginal: %s\nsimplified: %s\nquery:\n%s\nvs\n%s\ndoc: %s",
					i, xmlmodel.MarshalElement(a.Root, -1), xmlmodel.MarshalElement(b.Root, -1), q, sq,
					xmlmodel.MarshalElement(doc.Root, -1))
			}
		}
	}
}

// A qualifier the DTD guarantees for every parent is redundant and gets
// pruned — without the sibling-disjointness guard, since qualifiers never
// claim a distinct witness child. A qualifier the DTD merely allows stays.
func TestSimplifyPrunesGuaranteedQualifier(t *testing.T) {
	const libText = `<!DOCTYPE library [
	  <!ELEMENT library (item*)>
	  <!ELEMENT item (book, note?)>
	  <!ELEMENT book (#PCDATA)>
	  <!ELEMENT note (#PCDATA)>
	]>`
	q := xmas.MustParse(`r = SELECT X WHERE <library> X:<item> <book/> [<book/>] </item> </library>`)
	out, rep, err := SimplifyQuery(q, mustDTD(t, libText))
	if err != nil {
		t.Fatal(err)
	}
	// Every item has a book, so the qualifier is vacuous — and so is the
	// regular <book/> condition (its only sibling is a qualifier, which
	// never competes for a witness, so disjointness cannot be weakened).
	if rep.PrunedConditions != 2 {
		t.Errorf("pruned = %d, want 2 (both book conditions)\n%s", rep.PrunedConditions, out)
	}
	if item := out.Root.Children[0]; len(item.Children) != 0 {
		t.Errorf("guaranteed conditions survived simplification:\n%s", out)
	}

	// note is optional: [<note/>] is observable and must survive.
	q2 := xmas.MustParse(`r = SELECT X WHERE <library> X:<item> [<note/>] </item> </library>`)
	out2, rep2, err := SimplifyQuery(q2, mustDTD(t, libText))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PrunedConditions != 0 {
		t.Errorf("optional qualifier pruned (changes the answer):\n%s", out2)
	}
	item2 := out2.Root.Children[0]
	if len(item2.Children) != 1 || !item2.Children[0].Qualifier {
		t.Errorf("qualifier lost: %s", out2)
	}
}

// TestSimplifyReturnsWorkerPanic: a panic fanOut recovers while the root is
// being refined leaves an inert Unsatisfiable placeholder where the root's
// spec should be. SimplifyQuery must report the panic, not read the
// placeholder as "this query is provably empty" — the mediator would answer
// the empty result without touching a source. The content model below
// passes DTD.Check (no name in it is undeclared) and panics regex's tree
// walks on its nil item.
func TestSimplifyReturnsWorkerPanic(t *testing.T) {
	d := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> ]>`)
	d.Types["r"] = dtd.M(regex.Concat{Items: []regex.Expr{regex.Atom{Name: regex.N("a")}, nil}})
	if errs := d.Check(); len(errs) > 0 {
		t.Fatalf("the crafted DTD must get past Check to reach the fan-out: %v", errs)
	}
	q := xmas.MustParse(`v = SELECT X WHERE <r> X:<a/> </r>`)
	out, rep, err := SimplifyQuery(q, d)
	if err == nil {
		t.Fatalf("worker panic swallowed: query %v, report %+v", out, rep)
	}
	if !errors.Is(err, ErrWorkerPanic) || !strings.Contains(err.Error(), `panic refining element "r"`) {
		t.Errorf("error %q must name the element whose refinement panicked", err)
	}
}

// TestSimplifyBudgetExhaustedPrunesNothing: pruning the publication test of
// TestSimplifyPrunesValidCondition rests on an automaton (the refined model's
// image is equivalent to publication+'s, which no tree comparison shows), so
// a budget decides whether it happens. One state is spent during
// classification — the degradation path, which must record the element, not
// panic on it — and one state short of enough is spent in the prunability
// check itself. Either way the budget ends exhausted, nothing is pruned,
// nothing is dropped, and no error is returned: a sound answer, for the
// caller not to memoize. A cancelled context is an error.
func TestSimplifyBudgetExhaustedPrunesNothing(t *testing.T) {
	q := xmas.MustParse(`v = SELECT X WHERE <department> X:<professor><publication/></professor> </department>`)
	d := mustDTD(t, d1Text)
	run := func(ctx context.Context, l budget.Limits) (*SimplifyReport, *budget.Budget) {
		t.Helper()
		automata.PurgeCache() // a resident DFA is free, and would hide the charge
		bud := budget.New(l)
		out, rep, err := SimplifyQueryContext(budget.NewContext(ctx, bud), q, d)
		if err != nil {
			t.Fatalf("limits %+v: exhaustion must degrade, not fail: %v", l, err)
		}
		if rep.PrunedConditions == 0 && out.String() != q.String() {
			t.Errorf("limits %+v: nothing pruned, but the query changed:\n%s", l, out)
		}
		return rep, bud
	}
	ctx := context.Background()
	full, counted := run(ctx, budget.Limits{})
	need := counted.Usage().States
	if full.PrunedConditions != 1 || need == 0 {
		t.Fatalf("fixture: unlimited run pruned %d conditions for %d states; want 1, on the word of an automaton", full.PrunedConditions, need)
	}
	for _, states := range []int64{1, need - 1} {
		rep, bud := run(ctx, budget.Limits{MaxStates: states})
		if bud.Exhausted() == nil {
			t.Errorf("MaxStates %d of %d: budget not exhausted (usage %+v)", states, need, bud.Usage())
		}
		if rep.PrunedConditions != 0 || rep.DroppedNames != 0 || rep.Class == Unsatisfiable {
			t.Errorf("MaxStates %d of %d: report %+v; want nothing pruned, dropped or refuted", states, need, rep)
		}
	}
	if rep, bud := run(ctx, budget.Limits{MaxStates: need}); bud.Exhausted() != nil || *rep != *full {
		t.Errorf("MaxStates %d: report %+v, exhausted %v; want the unlimited run's %+v", need, rep, bud.Exhausted(), full)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if out, rep, err := SimplifyQueryContext(cancelled, q, d); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: query %v, report %+v, err %v; want context.Canceled", out, rep, err)
	}
}
