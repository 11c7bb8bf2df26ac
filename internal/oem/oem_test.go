package oem

import (
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/tightness"
	"repro/internal/xmlmodel"
)

const deptDoc = `<department>
  <name>CS</name>
  <professor>
    <firstName>Ana</firstName><lastName>A</lastName>
    <publication><title>t1</title><author>Ana</author><journal>J1</journal></publication>
    <teaches>cse100</teaches>
  </professor>
  <gradStudent>
    <firstName>Cyd</firstName><lastName>C</lastName>
    <publication><title>t5</title><author>Cyd</author><conference>C1</conference></publication>
  </gradStudent>
</department>`

func parseElem(t *testing.T, s string) *xmlmodel.Element {
	t.Helper()
	e, err := xmlmodel.ParseElement(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDataGuidePaths(t *testing.T) {
	o := parseElem(t, deptDoc)
	dg, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	paths := dg.Paths()
	want := []string{
		"department",
		"department.gradStudent",
		"department.gradStudent.firstName",
		"department.gradStudent.lastName",
		"department.gradStudent.publication",
		"department.gradStudent.publication.author",
		"department.gradStudent.publication.conference",
		"department.gradStudent.publication.title",
		"department.name",
		"department.professor",
		"department.professor.firstName",
		"department.professor.lastName",
		"department.professor.publication",
		"department.professor.publication.author",
		"department.professor.publication.journal",
		"department.professor.publication.title",
		"department.professor.teaches",
	}
	if strings.Join(paths, "\n") != strings.Join(want, "\n") {
		t.Errorf("paths:\n%s\nwant:\n%s", strings.Join(paths, "\n"), strings.Join(want, "\n"))
	}
}

func TestDataGuideGroupsAcrossObjects(t *testing.T) {
	// The guide node for a path summarizes ALL elements on it: professor
	// children union across professors (strong dataguide).
	a := parseElem(t, `<r><p><x>1</x></p><p><y>2</y></p></r>`)
	dg, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	p := dg.Root.Child("p")
	if p == nil || p.Count != 2 {
		t.Fatalf("p node = %+v", p)
	}
	if p.Child("x") == nil || p.Child("y") == nil {
		t.Error("p must summarize both x and y children")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(); err == nil {
		t.Error("empty build must fail")
	}
	a := parseElem(t, `<a/>`)
	b := parseElem(t, `<b/>`)
	if _, err := Build(a, b); err == nil {
		t.Error("mismatched roots must fail")
	}
}

func TestDataGuideSDTDAcceptsItsData(t *testing.T) {
	e, err := xmlmodel.ParseElement(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	s := dg.ToSDTD()
	if errs := s.Check(); len(errs) != 0 {
		t.Fatalf("guide s-DTD inconsistent: %v", errs)
	}
	if err := s.Satisfies(&xmlmodel.Document{Root: e}); err != nil {
		t.Errorf("dataguide schema rejects its own data: %v", err)
	}
	d, _, err := dg.ToDTD()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(&xmlmodel.Document{DocType: "department", Root: e}); err != nil {
		t.Errorf("merged dataguide DTD rejects its own data: %v", err)
	}
}

func TestMixedAtomicAndListNode(t *testing.T) {
	// A label that is atomic in one place and a list in another: the guide
	// node records both and the s-DTD gets two specializations.
	a := parseElem(t, `<r><m>text</m><m><x>1</x></m></r>`)
	dg, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	m := dg.Root.Child("m")
	if !m.Atomic || !m.HasList {
		t.Fatalf("m = %+v", m)
	}
	s := dg.ToSDTD()
	if got := len(s.Specializations("m")); got != 2 {
		t.Errorf("m specializations = %d, want 2\n%s", got, s)
	}
	e, _ := xmlmodel.ParseElement(`<r><m>text</m><m><x>1</x></m></r>`)
	if err := s.Satisfies(&xmlmodel.Document{Root: e}); err != nil {
		t.Errorf("Satisfies: %v", err)
	}
}

// TestDataguideLosesOrderAndCardinality quantifies Section 5: the
// dataguide-derived DTD accepts documents that violate D1's order and
// cardinality, so it is strictly looser than the true source DTD.
func TestDataguideLosesOrderAndCardinality(t *testing.T) {
	d1, err := dtd.Parse(`<!DOCTYPE department [
	  <!ELEMENT department (name, professor+, gradStudent+, course*)>
	  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
	  <!ELEMENT gradStudent (firstName, lastName, publication+)>
	  <!ELEMENT publication (title, author+, (journal|conference))>
	  <!ELEMENT name (#PCDATA)> <!ELEMENT firstName (#PCDATA)>
	  <!ELEMENT lastName (#PCDATA)> <!ELEMENT title (#PCDATA)>
	  <!ELEMENT author (#PCDATA)> <!ELEMENT journal (#PCDATA)>
	  <!ELEMENT conference (#PCDATA)> <!ELEMENT course (#PCDATA)>
	  <!ELEMENT teaches (#PCDATA)>
	]>`)
	if err != nil {
		t.Fatal(err)
	}
	// A document exercising every D1 construct, course included — the
	// dataguide only knows what the data shows it.
	e, err := xmlmodel.ParseElement(`<department>
	  <name>CS</name>
	  <professor>
	    <firstName>A</firstName><lastName>A</lastName>
	    <publication><title>t</title><author>a</author><author>b</author><journal>J</journal></publication>
	    <publication><title>t</title><author>a</author><conference>C</conference></publication>
	    <teaches>c1</teaches>
	  </professor>
	  <gradStudent>
	    <firstName>B</firstName><lastName>B</lastName>
	    <publication><title>t</title><author>a</author><journal>J</journal></publication>
	    <publication><title>t</title><author>a</author><conference>C</conference></publication>
	  </gradStudent>
	  <course>cse232</course>
	</department>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Validate(&xmlmodel.Document{DocType: "department", Root: e}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	dg, err := Build(e)
	if err != nil {
		t.Fatal(err)
	}
	guideDTD, _, err := dg.ToDTD()
	if err != nil {
		t.Fatal(err)
	}
	// D1 is strictly tighter than the dataguide-derived DTD.
	if ok, w, _ := tightness.Tighter(d1, guideDTD, nil); !ok {
		t.Errorf("the true DTD must be tighter than the dataguide schema: %v", w)
	}
	if ok, _, _ := tightness.Tighter(guideDTD, d1, nil); ok {
		t.Error("the dataguide schema must be strictly looser")
	}
	// Concretely: order violated (gradStudent before name) still passes.
	scrambled, _ := xmlmodel.ParseElement(`<department>
	  <gradStudent><firstName>C</firstName><lastName>C</lastName>
	    <publication><title>t</title><author>a</author><conference>c</conference></publication>
	  </gradStudent>
	  <name>CS</name>
	</department>`)
	if err := guideDTD.Validate(&xmlmodel.Document{DocType: "department", Root: scrambled}); err != nil {
		t.Errorf("dataguide DTD should accept scrambled order (it cannot express order): %v", err)
	}
	if err := d1.Validate(&xmlmodel.Document{DocType: "department", Root: scrambled}); err == nil {
		t.Error("D1 must reject scrambled order")
	}
	// The dataguide professor model is a starred disjunction.
	prof := guideDTD.Types["professor"]
	wantShape := regex.MustParse("(firstName | lastName | publication | teaches)*")
	if eq, _ := automata.Equivalent(prof.Model, wantShape, nil); !eq {
		t.Errorf("professor guide model = %s, want ≡ %s", prof.Model, wantShape)
	}
}
