package browse

import (
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/infer"
	"repro/internal/regex"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

const d1Text = `<!DOCTYPE department [
  <!ELEMENT department (name, professor+, gradStudent+, course*)>
  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
  <!ELEMENT gradStudent (firstName, lastName, publication+)>
  <!ELEMENT publication (title, author+, (journal|conference))>
  <!ELEMENT name (#PCDATA)> <!ELEMENT firstName (#PCDATA)>
  <!ELEMENT lastName (#PCDATA)> <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)> <!ELEMENT journal (#PCDATA)>
  <!ELEMENT conference (#PCDATA)> <!ELEMENT course (#PCDATA)>
  <!ELEMENT teaches (#PCDATA)>
]>`

func mustDTD(t *testing.T, s string) *dtd.DTD {
	t.Helper()
	d, err := dtd.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOccurrences(t *testing.T) {
	cases := []struct {
		model string
		name  string
		want  string
	}{
		{"a, b?", "a", "1"},
		{"a, b?", "b", "?"},
		{"a*", "a", "*"},
		{"a+", "a", "+"},
		{"a, a", "a", "2"},
		{"a, a+", "a", "2+"},
		{"(a|b)", "a", "?"},
		{"a, (a|b)", "a", "1..2"},
		{"(a, b)*", "b", "*"},
	}
	for _, c := range cases {
		occ := Occurrences(regex.MustParse(c.model))
		if got := occ[c.name].Mark(); got != c.want {
			t.Errorf("Occurrences(%s)[%s] = %q, want %q", c.model, c.name, got, c.want)
		}
	}
}

func TestOutline(t *testing.T) {
	out := Outline(mustDTD(t, d1Text), OutlineOptions{})
	for _, want := range []string{
		"department",
		"name 1 #PCDATA",
		"professor +",
		"publication +",
		"journal ?", // inside (journal|conference)
		"course *",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("outline misses %q:\n%s", want, out)
		}
	}
}

func TestOutlineRecursion(t *testing.T) {
	d := mustDTD(t, `<!DOCTYPE s [
	  <!ELEMENT s (p, s*, c)>
	  <!ELEMENT p (#PCDATA)> <!ELEMENT c (#PCDATA)>
	]>`)
	out := Outline(d, OutlineOptions{})
	if !strings.Contains(out, "↩ (recursive)") {
		t.Errorf("recursion not marked:\n%s", out)
	}
}

// TestBuilderReconstructsQ2 builds the paper's Q2 through the UI-substrate
// API and checks it infers the same view DTD as the hand-written query.
func TestBuilderReconstructsQ2(t *testing.T) {
	d := mustDTD(t, d1Text)
	q, err := NewBuilder(d).
		Pick("department/professor|gradStudent").
		WhereText("department/name", "CS").
		WhereAtLeast("department/professor|gradStudent/publication/journal", 2).
		Build("withJournals")
	if err != nil {
		t.Fatal(err)
	}
	res, err := infer.Infer(q, d)
	if err != nil {
		t.Fatal(err)
	}
	handWritten := xmas.MustParse(`withJournals =
	SELECT P
	WHERE <department><name>CS</name>
	        P:<professor|gradStudent>
	           <publication id=Pub1><journal/></publication>
	           <publication id=Pub2><journal/></publication>
	        </>
	      </department>
	AND Pub1 != Pub2`)
	want, err := infer.Infer(handWritten, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.DTD.String() != want.DTD.String() {
		t.Errorf("built query infers a different DTD:\n%s\nvs\n%s", res.DTD, want.DTD)
	}
	// And evaluates identically.
	doc, _, err := xmlmodel.Parse(`<department><name>CS</name>
	  <professor id="p1"><firstName>a</firstName><lastName>b</lastName>
	    <publication id="x1"><title>t</title><author>a</author><journal>J</journal></publication>
	    <publication id="x2"><title>t</title><author>a</author><journal>K</journal></publication>
	    <teaches>c</teaches></professor>
	  <gradStudent id="g1"><firstName>c</firstName><lastName>d</lastName>
	    <publication id="x3"><title>t</title><author>a</author><conference>C</conference></publication>
	  </gradStudent>
	</department>`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := engine.Eval(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Eval(handWritten, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Root.Equal(b.Root) {
		t.Errorf("built and hand-written queries disagree")
	}
}

// TestBuilderWhereAtLeastDepth: WhereAtLeast works when the distinct
// branch has inner structure ("publication/journal": distinct
// publications, each containing a journal).
func TestBuilderWhereAtLeastSemantics(t *testing.T) {
	d := mustDTD(t, d1Text)
	q, err := NewBuilder(d).
		Pick("department/professor").
		WhereAtLeast("department/professor/publication", 3).
		Build("prolific")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Neq) != 3 { // 3 choose 2
		t.Errorf("Neq pairs = %d, want 3", len(q.Neq))
	}
	res, err := infer.Infer(q, d)
	if err != nil {
		t.Fatal(err)
	}
	want := regex.MustParse("firstName, lastName, publication, publication, publication, publication*, teaches")
	if got := res.DTD.Types["professor"].Model; !regexEquiv(got, want) {
		t.Errorf("professor = %s, want ≡ %s", got, want)
	}
}

func regexEquiv(a, b regex.Expr) bool {
	eq, _ := automata.Equivalent(a, b, nil)
	return eq
}

func TestBuilderErrors(t *testing.T) {
	d := mustDTD(t, d1Text)
	cases := []struct {
		build func() (*xmas.Query, error)
		want  string
	}{
		{func() (*xmas.Query, error) {
			return NewBuilder(d).Pick("professor").Build("v")
		}, "must start at the document type"},
		{func() (*xmas.Query, error) {
			return NewBuilder(d).Pick("department/dean").Build("v")
		}, "not declared"},
		{func() (*xmas.Query, error) {
			return NewBuilder(d).Pick("department/journal").Build("v")
		}, "not a child of"},
		{func() (*xmas.Query, error) {
			return NewBuilder(d).Pick("department/professor").WhereText("department/professor", "x").Build("v")
		}, "does not hold character data"},
		{func() (*xmas.Query, error) {
			return NewBuilder(d).Build("v")
		}, "no pick path"},
		{func() (*xmas.Query, error) {
			return NewBuilder(d).Pick("department/professor").Where("course").Build("v")
		}, "must start at the document type"},
	}
	for _, c := range cases {
		_, err := c.build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
	}
	// Error messages list the legal children (the UI menu).
	_, err := NewBuilder(d).Pick("department/journal").Build("v")
	if err == nil || !strings.Contains(err.Error(), "course, gradStudent, name, professor") {
		t.Errorf("error should list legal children, got: %v", err)
	}
}

func TestBuilderWhereOnPickChainIsImplied(t *testing.T) {
	d := mustDTD(t, d1Text)
	q, err := NewBuilder(d).
		Pick("department/professor").
		Where("department/professor"). // implied by the pick itself
		Build("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.Children[0].Children) != 0 {
		t.Errorf("no extra condition expected: %s", q)
	}
}

func TestExplain(t *testing.T) {
	d := mustDTD(t, d1Text)
	q := xmas.MustParse(`v = SELECT X WHERE <department>
	  X:<professor|dean><firstName/><publication><journal/></publication></>
	</department>`)
	out, err := Explain(q, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"query v: satisfiable",
		"pruned",                   // firstName existence is implied
		"disjunct name(s) dropped", // dean
		"partial: professor possible; dean dropped", // per-condition annotation
		"rewritten query:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain misses %q:\n%s", want, out)
		}
	}
}

func TestExplainUnsatisfiable(t *testing.T) {
	d := mustDTD(t, d1Text)
	q := xmas.MustParse(`v = SELECT X WHERE <department> X:<dean/> </department>`)
	out, err := Explain(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unsatisfiable") || !strings.Contains(out, "no data access needed") {
		t.Errorf("explain:\n%s", out)
	}
}

func TestExplainRecursive(t *testing.T) {
	d := mustDTD(t, `<!DOCTYPE s [ <!ELEMENT s (p, s*, c)> <!ELEMENT p (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>`)
	q := xmas.MustParse(`v = SELECT X WHERE <s*> X:<p/> </>`)
	out, err := Explain(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "recursive step") {
		t.Errorf("explain:\n%s", out)
	}
}

func TestCardinalityBounds(t *testing.T) {
	d := mustDTD(t, d1Text)
	cases := []struct {
		q    string
		want string
	}{
		// Exactly one name per department.
		{`v = SELECT N WHERE <department> N:<name/> </department>`, "1..1"},
		// At least one professor, unbounded above.
		{`v = SELECT X WHERE <department> X:<professor/> </department>`, "1..∞"},
		// Courses may be absent.
		{`v = SELECT C WHERE <department> C:<course/> </department>`, "0..∞"},
		// Conditions make the members optional.
		{`v = SELECT X WHERE <department><name>CS</name> X:<professor/> </department>`, "0..∞"},
		// Unsatisfiable: always zero.
		{`v = SELECT X WHERE <department> X:<dean/> </department>`, "0..0"},
		// Members of both kinds: ≥2 overall.
		{`v = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`, "2..∞"},
	}
	for _, c := range cases {
		card, err := CardinalityBounds(xmas.MustParse(c.q), d)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if card.String() != c.want {
			t.Errorf("CardinalityBounds(%s) = %s, want %s", c.q, card, c.want)
		}
	}
}

// TestCardinalityConsistentWithSamples: sampled view sizes always fall in
// the computed bounds.
func TestCardinalityConsistentWithSamples(t *testing.T) {
	d := mustDTD(t, d1Text)
	g, err := gen.New(d, gen.Options{Seed: 77, AssignIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`v = SELECT X WHERE <department> X:<professor/> </department>`,
		`v = SELECT X WHERE <department><name>CS</name> X:<professor|gradStudent><publication><journal/></publication></> </department>`,
		`v = SELECT C WHERE <department> C:<course/> </department>`,
	}
	for _, qs := range queries {
		q := xmas.MustParse(qs)
		card, err := CardinalityBounds(q, d)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			view, err := engine.Eval(q, g.Document())
			if err != nil {
				t.Fatal(err)
			}
			n := len(view.Root.Children)
			if n < card.Min || (card.Max >= 0 && n > card.Max) {
				t.Fatalf("%s: view size %d outside %s", qs, n, card)
			}
		}
	}
}
