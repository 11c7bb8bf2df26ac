package infer

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmas"
)

// D1 is the paper's department DTD (Example 3.1).
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

// D11 is the DTD of Example 4.4 (gradStudent has exactly one publication).
const d11Text = `<!DOCTYPE department [
  <!ELEMENT department (name, professor+, gradStudent+, course*)>
  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
  <!ELEMENT gradStudent (firstName, lastName, publication)>
  <!ELEMENT publication (title, author*, (journal|conference))>
  <!ELEMENT name (#PCDATA)> <!ELEMENT firstName (#PCDATA)>
  <!ELEMENT lastName (#PCDATA)> <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)> <!ELEMENT journal (#PCDATA)>
  <!ELEMENT conference (#PCDATA)> <!ELEMENT course (#PCDATA)>
  <!ELEMENT teaches (#PCDATA)>
]>`

const q2Text = `withJournals =
SELECT P
WHERE <department><name>CS</name>
        P:<professor|gradStudent>
           <publication id=Pub1><journal/></publication>
           <publication id=Pub2><journal/></publication>
        </>
      </department>
AND Pub1 != Pub2`

const q3Text = `publist =
SELECT P
WHERE <department><name>CS</name>
        <professor|gradStudent>
          P:<publication><journal/></publication>
        </>
      </department>`

// must unwraps an automata answer asked with a nil budget, which cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func mustDTD(t *testing.T, s string) *dtd.DTD {
	t.Helper()
	d, err := dtd.Parse(s)
	if err != nil {
		t.Fatalf("parse DTD: %v", err)
	}
	return d
}

func mustInfer(t *testing.T, qs, ds string) *Result {
	t.Helper()
	res, err := Infer(xmas.MustParse(qs), mustDTD(t, ds))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return res
}

func wantModel(t *testing.T, d *dtd.DTD, name, want string) {
	t.Helper()
	typ, ok := d.Types[name]
	if !ok {
		t.Fatalf("%s not declared in\n%s", name, d)
	}
	if typ.PCDATA {
		t.Fatalf("%s is PCDATA, want model %s", name, want)
	}
	if !must(automata.Equivalent(typ.Model, regex.MustParse(want), nil)) {
		t.Errorf("%s model = %s, want ≡ %s", name, typ.Model, want)
	}
}

// TestRefineExample41 reproduces Example 4.1:
// refine(name,(journal|conference)*, journal) = name,(j|c)*,journal,(j|c)*.
func TestRefineExample41(t *testing.T) {
	got := RefineName(regex.MustParse("name, (journal|conference)*"), "journal")
	want := regex.MustParse("name, (journal|conference)*, journal, (journal|conference)*")
	if !must(automata.Equivalent(got, want, nil)) {
		t.Errorf("refine = %s, want ≡ %s", got, want)
	}
	// Language check: every word of the result contains a journal.
	for _, w := range regex.Enumerate(regex.Simplify(got, nil), 4, 200) {
		found := false
		for _, n := range w {
			if n.Base == "journal" {
				found = true
			}
		}
		if !found {
			t.Errorf("refined word %v lacks journal", w)
		}
	}
}

// TestRefineExample42 reproduces Example 4.2: sequential tagged refinement
// forcing two distinct journals yields the two-order disjunction.
func TestRefineExample42(t *testing.T) {
	base := regex.MustParse("name, (journal|conference)*")
	r1 := Refine(base, map[string]regex.Name{"journal": regex.T("journal", 1)}, nil)
	want1 := regex.MustParse("name, (journal|conference)*, journal^1, (journal|conference)*")
	if !must(automata.Equivalent(r1, want1, nil)) {
		t.Fatalf("first refinement = %s", r1)
	}
	r2 := Refine(r1, map[string]regex.Name{"journal": regex.T("journal", 2)}, nil)
	want2 := regex.MustParse(
		"(name, (journal|conference)*, journal^1, (journal|conference)*, journal^2, (journal|conference)*) | " +
			"(name, (journal|conference)*, journal^2, (journal|conference)*, journal^1, (journal|conference)*)")
	if !must(automata.Equivalent(r2, want2, nil)) {
		t.Errorf("second refinement = %s\nwant ≡ %s", regex.Simplify(r2, nil), want2)
	}
}

func TestRefineBasics(t *testing.T) {
	cases := []struct {
		re, name string
		want     string // "" means FAIL
	}{
		{"a", "a", "a"},
		{"b", "a", ""},
		{"EMPTY", "a", ""},
		{"a?", "a", "a"},
		{"a*", "a", "a*, a, a*"},
		{"a+", "a", "a+"},
		{"a, b", "b", "a, b"},
		{"a | b", "a", "a"},
		{"(a|b)*", "b", "(a|b)*, b, (a|b)*"},
		{"b*, c", "a", ""},
	}
	for _, c := range cases {
		got := RefineName(regex.MustParse(c.re), c.name)
		if c.want == "" {
			if !must(automata.IsEmpty(got, nil)) {
				t.Errorf("refine(%s, %s) = %s, want fail", c.re, c.name, got)
			}
			continue
		}
		if !must(automata.Equivalent(got, regex.MustParse(c.want), nil)) {
			t.Errorf("refine(%s, %s) = %s, want ≡ %s", c.re, c.name, got, c.want)
		}
	}
}

// TestRefinePreservesMembership: L(refine(r,n)) = {w ∈ L(r) : n occurs in w}
// checked by bounded enumeration both ways.
func TestRefinePreservesMembership(t *testing.T) {
	exprs := []string{
		"a, (b|c)*", "(a|b)+, c?", "a*, b*, a*", "((a,b)|c)*", "a?, (b, a)+",
	}
	for _, es := range exprs {
		e := regex.MustParse(es)
		for _, target := range []string{"a", "b", "c"} {
			ref := RefineName(e, target)
			refDFA := must(automata.FromExprAlphabet(ref, []regex.Name{regex.N("a"), regex.N("b"), regex.N("c")}, nil))
			for _, w := range regex.Enumerate(e, 5, 500) {
				has := false
				for _, n := range w {
					if n.Base == target {
						has = true
					}
				}
				if got := refDFA.Match(w); got != has {
					t.Errorf("refine(%s,%s): word %v match=%v, want %v", es, target, w, got, has)
				}
			}
			// And the refinement is contained in the original.
			if !must(automata.Contains(ref, e, nil)) {
				t.Errorf("refine(%s,%s) ⊄ original", es, target)
			}
		}
	}
}

// TestE1InferQ2 reproduces Example 3.1 (DTD D2): order and cardinality of
// the result list, and type refinement of professor/gradStudent. The sound
// variant of D2's root type uses "*" where the paper prints "+": the
// conditions are satisfiable, not valid, so a view may lack professors
// (see DESIGN.md §5.1).
func TestE1InferQ2(t *testing.T) {
	res := mustInfer(t, q2Text, d1Text)
	if res.Class != Satisfiable {
		t.Errorf("class = %v, want satisfiable", res.Class)
	}
	// Root: professors before grad students — order discovered.
	wantModel(t, res.DTD, "withJournals", "professor*, gradStudent*")
	// Professor (merged): at least two publications, frame intact.
	wantModel(t, res.DTD, "professor", "firstName, lastName, publication, publication, publication*, teaches")
	wantModel(t, res.DTD, "gradStudent", "firstName, lastName, publication, publication, publication*")
	// Publication (merged): the disjunction could NOT be removed
	// (Example 3.2's discussion) — and the merge must flag non-tightness.
	wantModel(t, res.DTD, "publication", "title, author+, (journal|conference)")
	if !res.NonTight {
		t.Error("the publication merge loses journal-ness; NonTight must be set")
	}
}

// TestE3InferQ2SDTD reproduces Example 3.4 (s-DTD D4): the specialized view
// DTD has a journal-only publication specialization, required twice.
func TestE3InferQ2SDTD(t *testing.T) {
	res := mustInfer(t, q2Text, d1Text)
	s := res.SDTD
	// Exactly two publication specializations survive normalization
	// (footnote 8: the redundant third collapses).
	tags := s.Specializations("publication")
	if len(tags) != 2 {
		t.Fatalf("publication specializations = %v, want 2:\n%s", tags, s)
	}
	// One of them is journal-only, the other is the source type.
	pub0 := s.Types[regex.N("publication")]
	pub1 := s.Types[regex.T("publication", 1)]
	wantSrc := regex.MustParse("title, author+, (journal|conference)")
	wantJournal := regex.MustParse("title, author+, journal")
	srcFirst := must(automata.Equivalent(regex.Image(pub0.Model), wantSrc, nil))
	if srcFirst {
		if !must(automata.Equivalent(regex.Image(pub1.Model), wantJournal, nil)) {
			t.Errorf("publication^1 = %s, want journal-only", pub1.Model)
		}
	} else if !must(automata.Equivalent(regex.Image(pub0.Model), wantJournal, nil)) ||
		!must(automata.Equivalent(regex.Image(pub1.Model), wantSrc, nil)) {
		t.Errorf("publication specs = %s / %s", pub0.Model, pub1.Model)
	}
	// professor requires exactly two journal-only publications among
	// arbitrary publications: language-equivalent to D4's definition.
	jt := 1
	if !srcFirst {
		jt = 0
	}
	profWant := regex.MustParse(strings.ReplaceAll(
		"firstName, lastName, publication*, publication^J, publication*, publication^J, publication*, teaches",
		"J", itoa(jt)))
	prof := s.Types[regex.N("professor")]
	if !must(automata.Equivalent(prof.Model, profWant, nil)) {
		t.Errorf("professor spec = %s\nwant ≡ %s", prof.Model, profWant)
	}
	if errs := s.Check(); len(errs) != 0 {
		t.Errorf("inferred s-DTD inconsistent: %v", errs)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// TestE2InferQ3 reproduces Example 3.2 (DTD D3): disjunction removal.
func TestE2InferQ3(t *testing.T) {
	res := mustInfer(t, q3Text, d1Text)
	wantModel(t, res.DTD, "publist", "publication*")
	wantModel(t, res.DTD, "publication", "title, author+, journal")
	if jt, ok := res.DTD.Types["journal"]; !ok || !jt.PCDATA {
		t.Error("journal must be declared PCDATA")
	}
	// conference must not appear in the view DTD (unreachable in views).
	if _, ok := res.DTD.Types["conference"]; ok {
		t.Error("conference is not reachable in the view and must be pruned")
	}
	if res.NonTight {
		t.Error("Q3's view DTD is tight; no lossy merge happens (D3 is a plain DTD)")
	}
}

// TestE8InferQ12 reproduces Example 4.4: list inference through a 4-step
// path. Our validity analysis yields (title, author*)+ — strictly tighter
// than the paper's (title, author*)*, and still sound because D11
// guarantees at least one gradStudent with exactly one publication with
// exactly one title (see EXPERIMENTS.md E8).
func TestE8InferQ12(t *testing.T) {
	q := `papers = SELECT P
	WHERE D:<department> G:<gradStudent> X:<publication> P:<title|author/> </publication> </gradStudent> </department>`
	res := mustInfer(t, q, d11Text)
	if res.Class != Valid {
		t.Errorf("class = %v, want valid", res.Class)
	}
	wantModel(t, res.DTD, "papers", "(title, author*)+")
	// Sound w.r.t. the paper's looser answer.
	if !must(automata.Contains(res.DTD.Types["papers"].Model, regex.MustParse("(title, author*)*"), nil)) {
		t.Error("result must be contained in the paper's (title, author*)*")
	}
}

// TestE8OnD1 runs the same query over D1 (publication+ and author+):
// professors also have publications, but the query only descends through
// gradStudent; each gradStudent has ≥1 publication with ≥1 author.
func TestE8OnD1(t *testing.T) {
	q := `papers = SELECT P
	WHERE <department> <gradStudent> <publication> P:<title|author/> </publication> </gradStudent> </department>`
	res := mustInfer(t, q, d1Text)
	wantModel(t, res.DTD, "papers", "(title, author+)+")
}

func TestValidQueryClass(t *testing.T) {
	q := `names = SELECT N WHERE <department> N:<name/> </department>`
	res := mustInfer(t, q, d1Text)
	if res.Class != Valid {
		t.Errorf("class = %v, want valid (every department has a name)", res.Class)
	}
	// Exactly one name element, always.
	wantModel(t, res.DTD, "names", "name")
}

func TestSatisfiableStarPick(t *testing.T) {
	q := `courses = SELECT C WHERE <department> C:<course/> </department>`
	res := mustInfer(t, q, d1Text)
	if res.Class != Satisfiable {
		t.Errorf("class = %v", res.Class)
	}
	wantModel(t, res.DTD, "courses", "course*")
}

func TestUnsatisfiableQuery(t *testing.T) {
	// dean is not declared in D1.
	q := `v = SELECT X WHERE <department> X:<dean/> </department>`
	res := mustInfer(t, q, d1Text)
	if res.Class != Unsatisfiable {
		t.Errorf("class = %v, want unsatisfiable", res.Class)
	}
	wantModel(t, res.DTD, "v", "EMPTY") // the view is always empty
}

func TestUnsatisfiableDeepCondition(t *testing.T) {
	// professors never contain a course.
	q := `v = SELECT X WHERE <department> X:<professor><course/></professor> </department>`
	res := mustInfer(t, q, d1Text)
	if res.Class != Unsatisfiable {
		t.Errorf("class = %v, want unsatisfiable", res.Class)
	}
}

func TestUnsatisfiableRootName(t *testing.T) {
	q := `v = SELECT X WHERE <university> X:<professor/> </university>`
	res := mustInfer(t, q, d1Text)
	if res.Class != Unsatisfiable {
		t.Errorf("class = %v", res.Class)
	}
}

func TestDisjunctDropping(t *testing.T) {
	// Pick professors-or-deans: dean is undeclared, so only professors
	// remain; the view DTD must not mention dean. Every department has a
	// professor, so the condition is in fact valid and the result is
	// professor+ — the naive answer would be (professor|dean)+.
	q := `v = SELECT X WHERE <department> X:<professor|dean/> </department>`
	res := mustInfer(t, q, d1Text)
	if res.Class != Valid {
		t.Errorf("class = %v, want valid", res.Class)
	}
	wantModel(t, res.DTD, "v", "professor+")
	if _, ok := res.DTD.Types["dean"]; ok {
		t.Error("dean must not appear")
	}
}

func TestRecursiveQueryRejected(t *testing.T) {
	sec := `<!DOCTYPE section [
	  <!ELEMENT section (prolog, section*, conclusion)>
	  <!ELEMENT prolog (#PCDATA)> <!ELEMENT conclusion (#PCDATA)>
	]>`
	q := `startsAndEnds = SELECT X WHERE <section*> X:<prolog|conclusion/> </>`
	_, err := Infer(xmas.MustParse(q), mustDTD(t, sec))
	if !errors.Is(err, ErrRecursivePath) {
		t.Errorf("err = %v, want ErrRecursivePath", err)
	}
}

func TestRecursiveDTDNonRecursiveQueryOK(t *testing.T) {
	// The DTD is recursive but the query path is not: inference must work.
	sec := `<!DOCTYPE section [
	  <!ELEMENT section (prolog, section*, conclusion)>
	  <!ELEMENT prolog (#PCDATA)> <!ELEMENT conclusion (#PCDATA)>
	]>`
	q := `tops = SELECT X WHERE <section> X:<prolog/> </section>`
	res := mustInfer(t, q, sec)
	wantModel(t, res.DTD, "tops", "prolog")
	if res.Class != Valid {
		t.Errorf("class = %v", res.Class)
	}
}

func TestWildcardPickExpandsToAllNames(t *testing.T) {
	q := `v = SELECT X WHERE <department> X:<*/> </department>`
	res := mustInfer(t, q, d1Text)
	// Every child of department qualifies, in order.
	wantModel(t, res.DTD, "v", "name, professor+, gradStudent+, course*")
	if res.Class != Valid {
		t.Errorf("class = %v", res.Class)
	}
}

func TestPickAtRootCondition(t *testing.T) {
	q := `v = SELECT X WHERE X:<department><name>CS</name></department>`
	res := mustInfer(t, q, d1Text)
	wantModel(t, res.DTD, "v", "department?")
	if res.Class != Satisfiable {
		t.Errorf("class = %v", res.Class)
	}
	qValid := `v = SELECT X WHERE X:<department/>`
	res = mustInfer(t, qValid, d1Text)
	wantModel(t, res.DTD, "v", "department")
	if res.Class != Valid {
		t.Errorf("class = %v", res.Class)
	}
}

func TestViewNameCollision(t *testing.T) {
	q := `department = SELECT X WHERE <department> X:<course/> </department>`
	if _, err := Infer(xmas.MustParse(q), mustDTD(t, d1Text)); err == nil {
		t.Error("view name colliding with a source name must be rejected")
	}
}

func TestNaiveInferIsLooser(t *testing.T) {
	naive, err := NaiveInfer(xmas.MustParse(q2Text), mustDTD(t, d1Text))
	if err != nil {
		t.Fatal(err)
	}
	wantModel(t, naive, "withJournals", "(professor | gradStudent)*")
	// The naive professor type is the raw D1 type (one publication ok).
	wantModel(t, naive, "professor", "firstName, lastName, publication+, teaches")
	// Tight root ⊆ naive root, strictly.
	tight := mustInfer(t, q2Text, d1Text)
	tr := tight.DTD.Types["withJournals"].Model
	nr := naive.Types["withJournals"].Model
	if !must(automata.Contains(tr, nr, nil)) {
		t.Error("tight root must be contained in naive root")
	}
	if must(automata.Contains(nr, tr, nil)) {
		t.Error("naive root must be strictly looser (it allows interleavings)")
	}
}

func TestTextConditionOnNonPCDATA(t *testing.T) {
	// department's type is a model, not PCDATA: a string condition on it
	// is unsatisfiable.
	q := `v = SELECT X WHERE X:<department>hello</department>`
	res := mustInfer(t, q, d1Text)
	if res.Class != Unsatisfiable {
		t.Errorf("class = %v", res.Class)
	}
}

func TestMergedSDTDStaysConsistent(t *testing.T) {
	res := mustInfer(t, q2Text, d1Text)
	if errs := res.DTD.Check(); len(errs) != 0 {
		t.Errorf("plain view DTD inconsistent: %v", errs)
	}
	if errs := res.SDTD.Check(); len(errs) != 0 {
		t.Errorf("view s-DTD inconsistent: %v", errs)
	}
}

func TestInvalidInputs(t *testing.T) {
	d := mustDTD(t, d1Text)
	if _, err := Infer(&xmas.Query{Name: "v"}, d); err == nil {
		t.Error("invalid query must be rejected")
	}
	bad := dtd.New("r") // root undeclared
	if _, err := Infer(xmas.MustParse(`v = SELECT X WHERE X:<r/>`), bad); err == nil {
		t.Error("inconsistent DTD must be rejected")
	}
}

// TestSiblingExistenceWithoutSubconditions: two plain <journal/> siblings
// force two journals (the tagging keeps them distinct, Example 4.2's
// mechanism), under a type that allows arbitrarily many.
func TestSiblingExistence(t *testing.T) {
	d := `<!DOCTYPE professor [
	  <!ELEMENT professor (name, (journal|conference)*)>
	  <!ELEMENT name (#PCDATA)> <!ELEMENT journal (#PCDATA)>
	  <!ELEMENT conference (#PCDATA)>
	]>`
	q := `v = SELECT X WHERE X:<professor> <journal/> <journal/> </professor>`
	res := mustInfer(t, q, d)
	prof := res.DTD.Types["professor"].Model
	want := regex.MustParse("name, (journal|conference)*, journal, (journal|conference)*, journal, (journal|conference)*")
	if !must(automata.Equivalent(prof, want, nil)) {
		t.Errorf("professor = %s\nwant ≡ %s", prof, want)
	}
}

// TestSDTDOfInferredViewValidatesViewDocs is an end-to-end soundness spot
// check; the tightness package does this exhaustively.
func TestInferredTypesUseDTDDeclarationOrderDeterministically(t *testing.T) {
	// Repeated inference must give identical output (maps must not leak
	// iteration nondeterminism).
	a := mustInfer(t, q2Text, d1Text).SDTD.String()
	for i := 0; i < 5; i++ {
		b := mustInfer(t, q2Text, d1Text).SDTD.String()
		if a != b {
			t.Fatalf("nondeterministic inference:\n%s\nvs\n%s", a, b)
		}
	}
}
