package mediator

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/tightness"
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

const deptDoc = `<department>
  <name>CS</name>
  <professor id="ana">
    <firstName>Ana</firstName><lastName>A</lastName>
    <publication id="a1"><title>t1</title><author>Ana</author><journal>J1</journal></publication>
    <publication id="a2"><title>t2</title><author>Ana</author><journal>J2</journal></publication>
    <teaches>cse100</teaches>
  </professor>
  <gradStudent id="cyd">
    <firstName>Cyd</firstName><lastName>C</lastName>
    <publication id="c1"><title>t5</title><author>Cyd</author><journal>J1</journal></publication>
    <publication id="c2"><title>t6</title><author>Cyd</author><journal>J3</journal></publication>
  </gradStudent>
</department>`

func newDeptMediator(t *testing.T) *Mediator {
	t.Helper()
	m := New("campus")
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStaticSource("cs-dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	return m
}

const q2Text = `withJournals =
SELECT P
WHERE <department><name>CS</name>
        P:<professor|gradStudent>
           <publication id=Pub1><journal/></publication>
           <publication id=Pub2><journal/></publication>
        </>
      </department>
AND Pub1 != Pub2`

func TestDefineViewInfersDTD(t *testing.T) {
	m := newDeptMediator(t)
	v, err := m.DefineView("cs-dept", xmas.MustParse(q2Text))
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != infer.Satisfiable {
		t.Errorf("class = %v", v.Class)
	}
	if !v.NonTight {
		t.Error("Q2's merge loses tightness; the view must say so")
	}
	doc, err := m.Materialize(context.Background(), "withJournals")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) != 2 {
		t.Fatalf("view size = %d", len(doc.Root.Children))
	}
	// The materialized view satisfies both inferred DTDs.
	if err := v.DTD.Validate(doc); err != nil {
		t.Errorf("view DTD: %v", err)
	}
	if err := v.SDTD.Satisfies(doc); err != nil {
		t.Errorf("view s-DTD: %v", err)
	}
}

func TestSourceValidationOnRegistration(t *testing.T) {
	d, _ := dtd.Parse(d1Text)
	bad, _, _ := xmlmodel.Parse(`<department><name>CS</name></department>`)
	if _, err := NewStaticSource("bad", bad, d); err == nil {
		t.Error("invalid source document must be rejected")
	}
}

func TestDuplicateRegistration(t *testing.T) {
	m := newDeptMediator(t)
	d, _ := dtd.Parse(d1Text)
	doc, _, _ := xmlmodel.Parse(deptDoc)
	src, _ := NewStaticSource("cs-dept", doc, d)
	if err := m.AddSource(src); err == nil {
		t.Error("duplicate source must be rejected")
	}
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err == nil {
		t.Error("duplicate view must be rejected")
	}
	if _, err := m.DefineView("nosuch", xmas.MustParse(`v2 = SELECT X WHERE X:<department/>`)); err == nil {
		t.Error("unknown source must be rejected")
	}
}

func TestQueryAgainstView(t *testing.T) {
	m := newDeptMediator(t)
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	// Professors in the view (all view members have ≥2 publications, so a
	// bare publication test is valid against the view DTD and pruned).
	q := xmas.MustParse(`profs = SELECT X WHERE <withJournals> X:<professor><publication/></professor> </withJournals>`)
	res, stats, err := m.Query(context.Background(), "withJournals", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Root.Children) != 1 || res.Root.Children[0].ID != "ana" {
		t.Errorf("result = %s", xmlmodel.MarshalElement(res.Root, -1))
	}
	if stats.PrunedConditions != 1 {
		t.Errorf("pruned = %d, want 1 (publication existence is implied)", stats.PrunedConditions)
	}
}

func TestQueryUnsatisfiableSkipsData(t *testing.T) {
	m := newDeptMediator(t)
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	q := xmas.MustParse(`v = SELECT X WHERE <withJournals> X:<course/> </withJournals>`)
	res, stats, err := m.Query(context.Background(), "withJournals", q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SkippedUnsatisfiable {
		t.Error("course can never appear in withJournals; the mediator must skip evaluation")
	}
	if len(res.Root.Children) != 0 {
		t.Error("result must be empty")
	}
	// The unsimplified baseline agrees on the answer.
	base, err := m.QueryUnsimplified(context.Background(), "withJournals", q)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Root.Equal(res.Root) {
		t.Error("baseline and simplified disagree")
	}
}

func TestStackedMediators(t *testing.T) {
	lower := newDeptMediator(t)
	if _, err := lower.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	wrapped, err := lower.AsSource("withJournals")
	if err != nil {
		t.Fatal(err)
	}
	upper := New("portal")
	if err := upper.AddSource(wrapped); err != nil {
		t.Fatal(err)
	}
	// The upper mediator defines a view over the lower mediator's view,
	// using the lower's INFERRED DTD as its source DTD.
	q := xmas.MustParse(`people = SELECT X WHERE <withJournals> X:<professor|gradStudent/> </withJournals>`)
	v, err := upper.DefineView(wrapped.Name(), q)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := upper.Materialize(context.Background(), "people")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) != 2 {
		t.Errorf("stacked view size = %d", len(doc.Root.Children))
	}
	if err := v.DTD.Validate(doc); err != nil {
		t.Errorf("stacked view DTD: %v", err)
	}
}

const d2SiteText = `<!DOCTYPE lab [
  <!ELEMENT lab (professor*)>
  <!ELEMENT professor (firstName, lastName, publication*)>
  <!ELEMENT publication (title, (journal|conference))>
  <!ELEMENT firstName (#PCDATA)> <!ELEMENT lastName (#PCDATA)>
  <!ELEMENT title (#PCDATA)> <!ELEMENT journal (#PCDATA)>
  <!ELEMENT conference (#PCDATA)>
]>`

const labDoc = `<lab>
  <professor id="eva">
    <firstName>Eva</firstName><lastName>E</lastName>
    <publication id="e1"><title>t9</title><journal>J9</journal></publication>
  </professor>
</lab>`

func TestUnionViewAcrossHeterogeneousSources(t *testing.T) {
	m := newDeptMediator(t)
	d2, err := dtd.Parse(d2SiteText)
	if err != nil {
		t.Fatal(err)
	}
	doc2, _, err := xmlmodel.Parse(labDoc)
	if err != nil {
		t.Fatal(err)
	}
	src2, err := NewStaticSource("bio-lab", doc2, d2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(src2); err != nil {
		t.Fatal(err)
	}
	v, err := m.DefineUnionView("allProfs", []ViewPart{
		{Source: "cs-dept", Query: xmas.MustParse(`SELECT X WHERE <department> X:<professor/> </department>`)},
		{Source: "bio-lab", Query: xmas.MustParse(`SELECT X WHERE <lab> X:<professor/> </lab>`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := m.Materialize(context.Background(), "allProfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root.Children) != 2 {
		t.Fatalf("union view size = %d", len(doc.Root.Children))
	}
	// cs professors come before lab professors (part order).
	if doc.Root.Children[0].ID != "ana" || doc.Root.Children[1].ID != "eva" {
		t.Errorf("order: %s, %s", doc.Root.Children[0].ID, doc.Root.Children[1].ID)
	}
	// The two professor shapes differ; the s-DTD keeps two specializations
	// while the plain DTD merges them (and flags it).
	if got := len(v.SDTD.Specializations("professor")); got != 2 {
		t.Errorf("professor specializations = %d, want 2\n%s", got, v.SDTD)
	}
	if !v.NonTight {
		t.Error("merging heterogeneous professor types must flag non-tightness")
	}
	if err := v.SDTD.Satisfies(doc); err != nil {
		t.Errorf("union s-DTD rejects its own view: %v", err)
	}
	if err := v.DTD.Validate(doc); err != nil {
		t.Errorf("union DTD rejects its own view: %v", err)
	}
	// The root model is the concatenation: d1 professors then lab ones.
	if v.Class != infer.Valid {
		t.Errorf("class = %v (department guarantees professors; lab may be empty but union still yields the cs part)", v.Class)
	}
}

func TestUnionViewEmptyParts(t *testing.T) {
	m := newDeptMediator(t)
	if _, err := m.DefineUnionView("empty", nil); err == nil {
		t.Error("empty union must be rejected")
	}
}

func TestViewDTDIsTighterThanNaive(t *testing.T) {
	m := newDeptMediator(t)
	v, err := m.DefineView("cs-dept", xmas.MustParse(q2Text))
	if err != nil {
		t.Fatal(err)
	}
	src, _ := dtd.Parse(d1Text)
	naive, err := infer.NaiveInfer(xmas.MustParse(q2Text), src)
	if err != nil {
		t.Fatal(err)
	}
	if !tightness.StrictlyTighter(v.DTD, naive) {
		t.Error("the registered view's DTD must beat the naive inference")
	}
}

func TestMaterializeCacheAndInvalidate(t *testing.T) {
	m := New("campus")
	d, _ := dtd.Parse(d1Text)
	doc, _, _ := xmlmodel.Parse(deptDoc)
	src, err := NewStaticSource("cs-dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSource(src) // empty script: counts fetches, injects nothing
	if err := m.AddSource(fs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	a, _ := m.Materialize(context.Background(), "withJournals")
	b, _ := m.Materialize(context.Background(), "withJournals")
	if !sameChildren(a, b) || fs.Fetches() != 1 {
		t.Errorf("materialization must be cached (fetches = %d, want 1)", fs.Fetches())
	}
	m.Invalidate()
	c, _ := m.Materialize(context.Background(), "withJournals")
	if fs.Fetches() != 2 {
		t.Errorf("Invalidate must drop the cache (fetches = %d, want 2)", fs.Fetches())
	}
	if !a.Root.Equal(c.Root) {
		t.Error("recomputed view differs")
	}
}

func TestSourcesAndViewsListing(t *testing.T) {
	m := newDeptMediator(t)
	if got := strings.Join(m.Sources(), ","); got != "cs-dept" {
		t.Errorf("sources = %s", got)
	}
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(m.Views(), ","); got != "withJournals" {
		t.Errorf("views = %s", got)
	}
	if _, err := m.View("nosuch"); err == nil {
		t.Error("unknown view lookup must fail")
	}
	if _, err := m.Materialize(context.Background(), "nosuch"); err == nil {
		t.Error("unknown view materialization must fail")
	}
	if _, err := m.AsSource("nosuch"); err == nil {
		t.Error("unknown view AsSource must fail")
	}
}

// failingSource simulates a wrapper whose Fetch fails (source down).
type failingSource struct{ dtd *dtd.DTD }

func (f *failingSource) Name() string { return "down" }
func (f *failingSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	return nil, errFetch
}
func (f *failingSource) Schema() *dtd.DTD { return f.dtd }

var errFetch = fmt.Errorf("source unavailable")

func TestFailingWrapperSurfacesErrors(t *testing.T) {
	m := New("frail")
	d, _ := dtd.Parse(d1Text)
	if err := m.AddSource(&failingSource{dtd: d}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("down", xmas.MustParse(
		`v = SELECT X WHERE <department> X:<professor/> </department>`)); err != nil {
		t.Fatalf("view definition needs only the schema: %v", err)
	}
	if _, err := m.Materialize(context.Background(), "v"); err == nil {
		t.Error("materialization must surface the fetch error")
	}
	if _, _, err := m.Query(context.Background(), "v", xmas.MustParse(`q = SELECT X WHERE <v> X:<professor/> </v>`)); err == nil {
		t.Error("query must surface the fetch error")
	}
	if _, err := m.QueryComposed(context.Background(), "v", xmas.MustParse(`q = SELECT X WHERE <v> X:<professor/> </v>`)); err == nil {
		t.Error("composed query must surface the fetch error")
	}
	// But a DTD-unsatisfiable query is answered without touching the
	// broken source at all.
	res, stats, err := m.Query(context.Background(), "v", xmas.MustParse(`q = SELECT X WHERE <v> X:<course/> </v>`))
	if err != nil || !stats.SkippedUnsatisfiable || len(res.Root.Children) != 0 {
		t.Errorf("unsatisfiable query should bypass the source: err=%v stats=%+v", err, stats)
	}
}

// viewIDs defines the view, materializes it, holds the result to both
// inferred DTDs and returns the IDs of its elements (name=text where an
// element has no ID).
func viewIDs(t *testing.T, m *Mediator, source, query string) string {
	t.Helper()
	v, err := m.DefineView(source, xmas.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := m.Materialize(context.Background(), v.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.DTD.Validate(doc); err != nil {
		t.Errorf("%s: view DTD rejects its own view: %v", v.Name, err)
	}
	if err := v.SDTD.Satisfies(doc); err != nil {
		t.Errorf("%s: view s-DTD rejects its own view: %v", v.Name, err)
	}
	return idList(doc)
}

func idList(doc *xmlmodel.Document) string {
	var ids []string
	for _, e := range doc.Root.Children {
		if e.ID == "" {
			ids = append(ids, e.Name+"="+e.Text)
		} else {
			ids = append(ids, e.ID)
		}
	}
	return strings.Join(ids, ",")
}

// TestEngineSemanticsAtTheMediator pins, one layer up, the three answers
// the engine's anchored evaluation corrected (engine package comment,
// DESIGN.md §5i): the inferred view DTDs must still describe the answers,
// and what cannot reach a view definition must stay refused there.
func TestEngineSemanticsAtTheMediator(t *testing.T) {
	m := newDeptMediator(t)
	// A "!=" between a variable under a qualifier and the pick no longer
	// depends on where the qualifier is declared: either way A can be the
	// other publication. (Declared first, it used to commit A to a1 and
	// lose a1 as a pick.)
	for _, q := range []string{
		`qualFirst = SELECT X WHERE <department> [<professor> <publication id=A/> </professor>] <professor> X:<publication/> </professor> </department> AND A != X`,
		`qualLast = SELECT X WHERE <department> <professor> X:<publication/> </professor> [<professor> <publication id=A/> </professor>] </department> AND A != X`,
	} {
		if got := viewIDs(t, m, "cs-dept", q); got != "a1,a2" {
			t.Errorf("%s\n  picks %q, want a1,a2", q, got)
		}
	}
	// A text condition binds its variables: no publication has a second
	// title for X once the qualifier's witness holds the one titled t1.
	// (The variable used to stay unbound, the "!=" unchecked.)
	if got := viewIDs(t, m, "cs-dept", `titles = SELECT X WHERE <department> <professor> <publication> [<title id=A>t1</title>] X:<title/> </publication> </professor> </department> AND A != X`); got != "" {
		t.Errorf("titles: picks %q, want none", got)
	}

	// A recursive pick binds every element of its chain — but only ever in
	// a query: a recursive view definition is refused at inference, so no
	// view DTD and no cached part is built from such an answer.
	book, err := dtd.Parse(`<!DOCTYPE book [
  <!ELEMENT book (section+)>
  <!ELEMENT section (title, section*)>
  <!ELEMENT title (#PCDATA)>
]>`)
	if err != nil {
		t.Fatal(err)
	}
	bookDoc, _, err := xmlmodel.Parse(`<book>
  <section id="s1"><title>a</title>
    <section id="s11"><title>b</title>
      <section id="s111"><title>c</title></section>
    </section>
  </section>
  <section id="s2"><title>d</title></section>
</book>`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStaticSource("book", bookDoc, book)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("book", xmas.MustParse(`deep = SELECT X WHERE <book> X:<section*/> </book>`)); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive view definition: err = %v, want infer's refusal", err)
	}
	if got := viewIDs(t, m, "book", `top = SELECT X WHERE <book> X:<section/> </book>`); got != "s1,s2" {
		t.Fatalf("top: picks %q", got)
	}
	q := xmas.MustParse(`all = SELECT X WHERE <top> X:<section*/> </top>`)
	res, _, err := m.Query(context.Background(), "top", q)
	if err != nil {
		t.Fatal(err)
	}
	if got := idList(res); got != "s1,s11,s111,s2" {
		t.Errorf("recursive pick over the view: %q, want the whole chains s1,s11,s111,s2", got)
	}
	base, err := m.QueryUnsimplified(context.Background(), "top", q)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Root.Equal(res.Root) {
		t.Error("baseline and simplified disagree on the recursive pick")
	}
}
