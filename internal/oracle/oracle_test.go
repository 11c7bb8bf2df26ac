package oracle_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/mediator"
	"repro/internal/oracle"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/tightness"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// secondVersion draws every source's second document.
var secondVersion = gen.Options{AssignIDs: true, MaxDepth: 6, LengthBias: 0.5, TextPool: []string{"x", "y"}}

// familyFleet is one source per internal/load schema family, each with two
// documents, under one union view of their entries.
func familyFleet(t *testing.T) *oracle.Fleet {
	t.Helper()
	var sources []*load.Source
	for i, f := range load.Families() {
		src, err := load.BuildSource(string(f), load.SourceOptions{
			Schema: load.SchemaOptions{Seed: int64(i + 1), Family: f, Depth: 3, Width: 3}, Gen: secondVersion})
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, src)
	}
	fleet := load.OracleFleet("fleet", sources)
	for i := range fleet.Sources {
		opts := secondVersion
		opts.Seed = int64(100 + i)
		g, err := gen.New(sources[i].DTD, opts)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Sources[i].Docs = append(fleet.Sources[i].Docs, xmlmodel.MarshalElement(g.Document().Root, -1))
	}
	return fleet
}

// enumeratedFleet is one source per schema family at Width and Depth 2,
// serving in turn versions of its structural classes of at most maxElems
// elements (tightness.EnumerateClasses), under one union view of the entries.
func enumeratedFleet(t *testing.T, maxElems, versions int) *oracle.Fleet {
	t.Helper()
	f := &oracle.Fleet{Views: []oracle.View{{Name: "enumerated"}}}
	for i, fam := range load.Families() {
		name := "e" + string(fam)
		d, err := load.Synthesize(load.SchemaOptions{Seed: int64(i + 1), Family: fam, Root: name, Width: 2, Depth: 2})
		if err != nil {
			t.Fatal(err)
		}
		f.Sources = append(f.Sources, oracle.Source{Name: name, DTD: d, Docs: spread(tightness.EnumerateClasses(d, maxElems, 1000), versions)})
		f.Views[0].Parts = append(f.Views[0].Parts, mediator.ViewPart{Source: name,
			Query: xmas.MustParse(fmt.Sprintf(`SELECT X WHERE <%s> X:<entry/> </%s>`, name, name))})
	}
	return f
}

// spread is n of the classes, evenly spaced and ending on the last, as text.
func spread(classes []*xmlmodel.Element, n int) []string {
	var out []string
	for i := 1; i <= n; i++ {
		out = append(out, xmlmodel.MarshalElement(classes[i*len(classes)/n-1], -1))
	}
	return out
}

// tinyFleet is one source of a recursive DTD over two names, serving in turn
// versions of its structural classes of at most maxElems elements, under a
// view of its root's children: picks below same-named levels.
func tinyFleet(t *testing.T, maxElems, versions int) *oracle.Fleet {
	t.Helper()
	d, err := dtd.Parse(`<!DOCTYPE t [ <!ELEMENT t (a | b)*> <!ELEMENT a (a | b)*> <!ELEMENT b (a | b)*> ]>`)
	if err != nil {
		t.Fatal(err)
	}
	classes := tightness.EnumerateClasses(d, maxElems, 10000)
	return &oracle.Fleet{
		Sources: []oracle.Source{{Name: "t", DTD: d, Docs: spread(classes, versions)}},
		Views:   []oracle.View{{Name: "tiny", Parts: []mediator.ViewPart{{Source: "t", Query: xmas.MustParse(`SELECT X WHERE <t> X:<a|b/> </t>`)}}}},
	}
}

// blowupFleet is two sources whose DTDs hide (x|y)*, x, (x|y)^k behind an
// optional element no finite document contains (x and y are unrealizable),
// for k = 2 and 3, under a view of their roots: only the union's
// normalization asks whether the two models are equivalent, and nothing but
// an automaton answers it.
func blowupFleet(t *testing.T) *oracle.Fleet {
	t.Helper()
	f := &oracle.Fleet{Views: []oracle.View{{Name: "blowups"}}}
	for k := 2; k <= 3; k++ {
		d, err := dtd.Parse(`<!DOCTYPE site [ <!ELEMENT site (info, m?)> <!ELEMENT m ((x | y)*, x` +
			strings.Repeat(", (x | y)", k) + `)> <!ELEMENT x (x)> <!ELEMENT y (y)> <!ELEMENT info (#PCDATA)> ]>`)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("k%d", k)
		f.Sources = append(f.Sources, oracle.Source{Name: name, DTD: d, Docs: []string{"<site><info>up</info></site>", "<site><info>down</info></site>"}})
		f.Views[0].Parts = append(f.Views[0].Parts, mediator.ViewPart{Source: name, Query: xmas.MustParse(`SELECT S WHERE S:<site/>`)})
	}
	return f
}

func TestOracle(t *testing.T) { checkFleets(t, (*oracle.Oracle).Subjects, 1) }

// TestOracleAcrossTheHop: the same fleets and a third as many queries, asked
// of forwarders whose owners are funded single-node subjects
// (oracle.HopSubjects). `make race` repeats it.
func TestOracleAcrossTheHop(t *testing.T) { checkFleets(t, (*oracle.Oracle).HopSubjects, 3) }

// checkFleets checks the subjects made by subjects over each of the four
// fleets, asking 1/share of TestOracle's queries, and fails when anything
// was exercised too rarely to count.
func checkFleets(t *testing.T, subjects func(*oracle.Oracle) ([]*oracle.Subject, error), share int) {
	tally := oracle.Tally{}
	var cov oracle.Coverage
	nonEmpty := 0
	for _, c := range []struct {
		fleet *oracle.Fleet
		n     int
	}{{familyFleet(t), 150}, {enumeratedFleet(t, 9, 6), 100}, {tinyFleet(t, 7, 8), 120}, {blowupFleet(t), 20}} {
		o := oracle.New(c.fleet)
		subjects, err := subjects(o)
		if err != nil {
			t.Fatal(err)
		}
		view := c.fleet.Views[0].Name
		texts, err := o.Queries(rand.New(rand.NewSource(36)), view, c.n/share, &cov)
		if err != nil {
			t.Fatal(err)
		}
		// Last, for Check's closing rows: every member of the view, the
		// picks a root child's.
		texts = append(append([]string{""}, texts...), fmt.Sprintf(`r = SELECT X WHERE <%s> X:<*/> </%s>`, view, view))
		err = o.Check(subjects, view, texts, tally, func(s *oracle.Step) error {
			if s.Query != "" && s.Read == oracle.ReadFirst && s.Inval == oracle.InvalNone && s.Subject == subjects[0] && len(s.Want) > len("<v></v>\n") {
				nonEmpty++
			}
			return nil
		})
		o.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%v; coverage %v; %d non-empty", tally, cov, nonEmpty)
	if err := tally.Vacuous(5); err != nil {
		t.Error(err)
	}
	for f, n := range cov {
		if n < 5 {
			t.Errorf("vacuous: only %d queries with a %s", n, oracle.Feature(f))
		}
	}
	if nonEmpty < 5 {
		t.Errorf("vacuous: only %d non-empty answers", nonEmpty)
	}
}

// TestOracleWorkerPanicIsNoEmptyAnswer: a view whose DTD makes a refinement
// worker panic (internal/infer's TestSimplifyReturnsWorkerPanic builds it: a
// content model that passes DTD.Check with a nil item). The simplifier must
// report the panic and the query be answered unsimplified, as the reference
// answers it; a panic read as "provably empty" answers nothing.
func TestOracleWorkerPanicIsNoEmptyAnswer(t *testing.T) {
	d, err := dtd.Parse(`<!DOCTYPE s [ <!ELEMENT s (a*)> <!ELEMENT a (#PCDATA)> ]>`)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New(&oracle.Fleet{
		Sources: []oracle.Source{{Name: "s", DTD: d, Docs: []string{"<s><a>x</a></s>", "<s><a>y</a><a>z</a></s>"}}},
		Views:   []oracle.View{{Name: "r", Parts: []mediator.ViewPart{{Source: "s", Query: xmas.MustParse(`SELECT X WHERE <s> X:<a/> </s>`)}}}},
	})
	defer o.Close()
	subjects, err := o.Subjects()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subjects {
		v, err := s.Mediator.View("r")
		if err != nil {
			t.Fatal(err)
		}
		crafted := v.DTD.Clone()
		crafted.Types["r"] = dtd.M(regex.Concat{Items: []regex.Expr{regex.Atom{Name: regex.N("a")}, nil}})
		v.DTD = crafted
	}
	reported := 0
	err = o.Check(subjects, "r", []string{`v = SELECT X WHERE <r> X:<a/> </r>`}, oracle.Tally{}, func(st *oracle.Step) error {
		if st.Header.Get("X-Mix-Simplifier-Error") != "" {
			reported++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reported == 0 {
		t.Error("vacuous: no answer reported the simplifier's error")
	}
}

// TestOracleCanonical: the s-DTDs internal/infer's TestNormalizeMatchesReference
// normalizes by hand — shapes inference does not produce (a union's
// retagging can) — among them classes where a member compared after a
// leaver mentions that leaver, which a half-updated partition splits for
// good.
func TestOracleCanonical(t *testing.T) {
	for _, text := range []string{
		`<!DOCTYPE r [
		  <!ELEMENT r (a^5, a^2, a^9, a^7, b^3, b)>
		  <!ELEMENT a^9 (b^3)> <!ELEMENT a^2 (b)> <!ELEMENT a^5 (b^3, b)> <!ELEMENT a^7 (b, b^3)>
		  <!ELEMENT b^3 (c^1)> <!ELEMENT b (c^4)> <!ELEMENT c^4 (#PCDATA)> <!ELEMENT c^1 (#PCDATA)>
		]>`,
		`<!DOCTYPE r^2 [
		  <!ELEMENT x^3 (y^1 | y^2)> <!ELEMENT r^2 (x^1, x^3, r^1?)> <!ELEMENT r^1 (x^3, x^1, r^2?)>
		  <!ELEMENT x^1 (y^2 | y^1)> <!ELEMENT y^1 (#PCDATA)> <!ELEMENT y^2 (z*)> <!ELEMENT z (#PCDATA)>
		]>`,
		`<!DOCTYPE r [
		  <!ELEMENT r (s, s^1, s^2)> <!ELEMENT s (s^1)> <!ELEMENT s^1 (t)> <!ELEMENT s^2 (s^1)>
		  <!ELEMENT t (#PCDATA)>
		]>`,
		`<!DOCTYPE r [
		  <!ELEMENT r (s, s^1, s^2, s^3, s^4)> <!ELEMENT s (s^1)> <!ELEMENT s^1 (t)> <!ELEMENT s^2 (s^1)>
		  <!ELEMENT s^3 (s^2)> <!ELEMENT s^4 (s^4 | s^1)> <!ELEMENT t (#PCDATA)>
		]>`,
	} {
		s, err := sdtd.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Canonical(s); err != nil {
			t.Error(err)
		}
	}
}
