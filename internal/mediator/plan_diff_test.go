package mediator_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The differential test of the query-plan memo: a query answered from a kept
// plan must get the answer and the QueryStats it got when the plan was made,
// and those a mediator that never saw the query gives it. There is no switch
// that turns the memo off, so the reference is the cold memo itself: a
// second mediator over the same sources that is asked every query once.
//
// The fleet is one source per internal/load schema family under one union
// view, and the queries are generated the way internal/engine's anchoring
// test generates them: from a target element of the view document, the path
// conditions following its ancestor chain, side conditions modelled on the
// children actually there — so they are satisfiable often, prune often
// (each family has children the others lack) and use every field of the
// query tree the key has to tell apart.

const fleetView = "fleet"

func newFleet(t *testing.T) *mediator.Mediator {
	t.Helper()
	m := mediator.New("fleet")
	var parts []mediator.ViewPart
	for i, f := range load.Families() {
		name := string(f)
		src, err := load.BuildSource(name, load.SourceOptions{
			Schema: load.SchemaOptions{Seed: int64(i + 1), Family: f, Depth: 3, Width: 3},
			Gen:    gen.Options{AssignIDs: true, MaxDepth: 6, LengthBias: 0.5, TextPool: []string{"x", "y"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		static, err := mediator.NewStaticSource(name, src.Doc, src.DTD)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSource(static); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, mediator.ViewPart{
			Source: name,
			Query:  xmas.MustParse(fmt.Sprintf(`SELECT X WHERE <%s> X:<entry/> </%s>`, name, name)),
		})
	}
	if _, err := m.DefineUnionView(fleetView, parts); err != nil {
		t.Fatal(err)
	}
	return m
}

// planQueryGen builds one query along chain (view root … target element).
type planQueryGen struct {
	r     *rand.Rand
	names []string // every element name of the view document, plus one it lacks
	ids   []string
}

func (g *planQueryGen) coin(n int) bool { return g.r.Intn(n) == 0 }

func (g *planQueryGen) idVar(c *xmas.Cond) {
	c.IDVar = fmt.Sprintf("I%d", len(g.ids)+1)
	g.ids = append(g.ids, c.IDVar)
}

func (g *planQueryGen) query(chain []*xmlmodel.Element) *xmas.Query {
	q := &xmas.Query{Name: "r", PickVar: "P"}
	var parent *xmas.Cond
	for i, here := range chain {
		c := &xmas.Cond{Names: []string{here.Name}}
		switch {
		case i == 0: // the view root is what it is
		case g.coin(8):
			c.Names = nil
		case g.coin(6):
			if other := g.names[g.r.Intn(len(g.names))]; other != here.Name {
				c.Names = append(c.Names, other)
			}
		}
		if i > 0 && g.coin(12) {
			c.Recursive = true
		}
		if g.coin(4) {
			g.idVar(c)
		}
		if pick := i == len(chain)-1; pick && here.IsText && !c.Recursive && g.coin(2) {
			c.HasText, c.Text = true, here.Text
		} else {
			for n := g.r.Intn(3); n > 0; n-- {
				c.Children = slices.Insert(c.Children, g.r.Intn(len(c.Children)+1), g.sideCond(here))
			}
		}
		if parent == nil {
			q.Root = c
		} else {
			parent.Children = slices.Insert(parent.Children, g.r.Intn(len(parent.Children)+1), c)
		}
		parent = c
	}
	parent.Var = "P"
	if len(g.ids) > 1 && g.coin(3) {
		if a, b := g.ids[g.r.Intn(len(g.ids))], g.ids[g.r.Intn(len(g.ids))]; a != b {
			q.Neq = append(q.Neq, [2]string{a, b})
		}
	}
	if errs := q.Validate(); len(errs) > 0 {
		return nil
	}
	return q
}

// sideCond builds a side condition modelled on one of here's children.
func (g *planQueryGen) sideCond(here *xmlmodel.Element) *xmas.Cond {
	s := &xmas.Cond{Names: []string{g.names[g.r.Intn(len(g.names))]}, Qualifier: g.coin(3)}
	if len(here.Children) == 0 {
		return s
	}
	k := here.Children[g.r.Intn(len(here.Children))]
	if !g.coin(8) {
		s.Names[0] = k.Name
	}
	switch g.r.Intn(4) {
	case 0:
		if k.IsText {
			s.HasText, s.Text = true, k.Text
		}
	case 1:
		if len(k.Children) > 0 {
			gk := k.Children[g.r.Intn(len(k.Children))]
			sub := &xmas.Cond{Names: []string{gk.Name}}
			if g.coin(3) {
				g.idVar(sub)
			}
			s.Children = append(s.Children, sub)
		}
	}
	if g.coin(4) {
		g.idVar(s)
	}
	return s
}

// elementChains returns the ancestor chain, from the root, of every element
// down to maxDepth.
func elementChains(root *xmlmodel.Element, maxDepth int) [][]*xmlmodel.Element {
	var out [][]*xmlmodel.Element
	var walk func(e *xmlmodel.Element, above []*xmlmodel.Element)
	walk = func(e *xmlmodel.Element, above []*xmlmodel.Element) {
		chain := append(slices.Clone(above), e)
		out = append(out, chain)
		if len(chain) < maxDepth {
			for _, k := range e.Children {
				walk(k, chain)
			}
		}
	}
	walk(root, nil)
	return out
}

func TestPlanHitEqualsMissEqualsColdMemo(t *testing.T) {
	ctx := context.Background()
	m, ref := newFleet(t), newFleet(t)
	view, err := ref.Materialize(ctx, fleetView)
	if err != nil {
		t.Fatal(err)
	}
	chains := elementChains(view.Root, 5)
	names := []string{"absent"}
	for _, chain := range chains {
		if name := chain[len(chain)-1].Name; !slices.Contains(names, name) {
			names = append(names, name)
		}
	}

	type asked struct {
		answer string
		stats  *mediator.QueryStats
	}
	ask := func(on *mediator.Mediator, q *xmas.Query) asked {
		t.Helper()
		// A clone per ask: requests never share a parsed query.
		res, stats, err := on.Query(ctx, fleetView, q.Clone())
		if err != nil {
			t.Fatalf("%v\nquery:\n%s", err, q)
		}
		return asked{xmlmodel.MarshalElement(res.Root, -1), stats}
	}
	var cov struct{ kept, notKept, pruned, skipped, simplified, nonEmpty, neq int }
	r := rand.New(rand.NewSource(18))
	seen := map[string]bool{}
	for len(seen) < 400 {
		g := &planQueryGen{r: r, names: names}
		q := g.query(chains[r.Intn(len(chains))])
		// Told apart by their text, not by the key under test.
		if q == nil || seen[q.String()] {
			continue
		}
		seen[q.String()] = true

		before := m.Stats()
		miss := ask(m, q)
		if st := m.Stats(); st.PlanMisses != before.PlanMisses+1 || st.PlanHits != before.PlanHits {
			t.Fatalf("a query never asked before was not analysed: misses %d -> %d, hits %d -> %d\n%s",
				before.PlanMisses, st.PlanMisses, before.PlanHits, st.PlanHits, q)
		}
		hit := ask(m, q)
		switch st := m.Stats(); {
		case st.PlanHits == before.PlanHits+1 && st.PlanMisses == before.PlanMisses+1:
			cov.kept++
		case st.PlanHits == before.PlanHits && st.PlanMisses == before.PlanMisses+2:
			cov.notKept++ // an Unknown verdict: recursive probes get no other
		default:
			t.Fatalf("repeat was neither a plan hit nor a second analysis: %+v -> %+v", before, st)
		}
		cold := ask(ref, q)
		for _, other := range []struct {
			what string
			asked
		}{{"the plan hit", hit}, {"the cold-memo mediator", cold}} {
			if other.answer != miss.answer {
				t.Fatalf("%s answers differently from the first ask\nquery:\n%s\nfirst: %s\nother: %s", other.what, q, miss.answer, other.answer)
			}
			if !reflect.DeepEqual(other.stats, miss.stats) {
				t.Fatalf("%s reports different QueryStats\nquery:\n%s\nfirst: %+v\nother: %+v", other.what, q, miss.stats, other.stats)
			}
		}
		base, err := ref.QueryUnsimplified(ctx, fleetView, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := xmlmodel.MarshalElement(base.Root, -1); got != miss.answer {
			t.Fatalf("planned answer differs from the unsimplified evaluation\nquery:\n%s\nplanned: %s\nnaive:   %s", q, miss.answer, got)
		}

		if len(miss.stats.PrunedSources) > 0 {
			cov.pruned++
		}
		if miss.stats.SkippedUnsatisfiable {
			cov.skipped++
		}
		if miss.stats.PrunedConditions+miss.stats.DroppedNames > 0 {
			cov.simplified++
		}
		if base.Root.Children != nil {
			cov.nonEmpty++
		}
		if len(q.Neq) > 0 {
			cov.neq++
		}
	}
	if st := ref.Stats(); st.PlanHits != 0 {
		t.Errorf("the reference mediator had %d plan hits; it must see every query once", st.PlanHits)
	}
	for what, n := range map[string]int{
		"plans kept": cov.kept, "plans not kept": cov.notKept, "queries that pruned a source": cov.pruned,
		"queries skipped as unsatisfiable": cov.skipped, "queries the simplifier rewrote": cov.simplified,
		"non-empty answers": cov.nonEmpty, "queries with !=": cov.neq,
	} {
		if n < 5 {
			t.Errorf("vacuous: only %d %s among %d queries (%+v)", n, what, len(seen), cov)
		}
	}
}
