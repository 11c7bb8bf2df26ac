package sdtd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// buildD4 constructs the paper's specialized DTD D4 (Example 3.4): the
// tight view s-DTD for query Q2 over the department DTD D1. publication¹ is
// the journal-only specialization; professors and grad students must carry
// two publication¹ children among arbitrary other publications.
func buildD4() *SDTD {
	s := New(regex.N("withJournals"))
	s.Declare(regex.N("withJournals"), dtd.M(regex.MustParse("professor*, gradStudent*")))
	s.Declare(regex.N("professor"), dtd.M(regex.MustParse(
		"firstName, lastName, publication*, publication^1, publication*, publication^1, publication*, teaches")))
	s.Declare(regex.N("gradStudent"), dtd.M(regex.MustParse(
		"firstName, lastName, publication*, publication^1, publication*, publication^1, publication*")))
	s.Declare(regex.N("publication"), dtd.M(regex.MustParse("title, author+, (journal|conference)")))
	s.Declare(regex.T("publication", 1), dtd.M(regex.MustParse("title, author+, journal")))
	for _, pc := range []string{"firstName", "lastName", "title", "author", "journal", "conference", "teaches"} {
		s.Declare(regex.N(pc), dtd.PC())
	}
	return s
}

func pub(venue string) *xmlmodel.Element {
	return xmlmodel.NewElement("publication",
		xmlmodel.NewText("title", "t"),
		xmlmodel.NewText("author", "a"),
		xmlmodel.NewText(venue, "v"))
}

func prof(venues ...string) *xmlmodel.Element {
	kids := []*xmlmodel.Element{
		xmlmodel.NewText("firstName", "f"),
		xmlmodel.NewText("lastName", "l"),
	}
	for _, v := range venues {
		kids = append(kids, pub(v))
	}
	kids = append(kids, xmlmodel.NewText("teaches", "c"))
	return xmlmodel.NewElement("professor", kids...)
}

func TestD4Satisfaction(t *testing.T) {
	s := buildD4()
	if errs := s.Check(); len(errs) != 0 {
		t.Fatalf("Check: %v", errs)
	}
	cases := []struct {
		name   string
		venues []string
		want   bool
	}{
		{"two journals", []string{"journal", "journal"}, true},
		{"three journals", []string{"journal", "journal", "journal"}, true},
		{"two journals plus conference between", []string{"journal", "conference", "journal"}, true},
		{"conference first", []string{"conference", "journal", "journal"}, true},
		{"one journal only", []string{"journal"}, false},
		{"one journal one conference", []string{"journal", "conference"}, false},
		{"conferences only", []string{"conference", "conference"}, false},
		{"no publications", nil, false},
	}
	for _, c := range cases {
		doc := &xmlmodel.Document{Root: xmlmodel.NewElement("withJournals", prof(c.venues...))}
		err := s.Satisfies(doc)
		if (err == nil) != c.want {
			t.Errorf("%s: Satisfies = %v, want ok=%v", c.name, err, c.want)
		}
	}
}

// TestWeakVsStrict shows why the literal Definition 3.10 is too weak for
// the paper's tightness claims: under the image-based reading, a professor
// with two conference papers satisfies D4 (any publication child matches
// the image of publication¹), while the strict tag-consistent semantics
// rejects it.
func TestWeakVsStrict(t *testing.T) {
	s := buildD4()
	doc := &xmlmodel.Document{Root: xmlmodel.NewElement("withJournals",
		prof("conference", "conference"))}
	if err := s.SatisfiesWeak(doc); err != nil {
		t.Errorf("weak semantics should accept two conference papers: %v", err)
	}
	if err := s.Satisfies(doc); err == nil {
		t.Error("strict semantics must reject: no two journal publications")
	}
	// On a genuinely conforming document both agree.
	good := &xmlmodel.Document{Root: xmlmodel.NewElement("withJournals",
		prof("journal", "journal"))}
	if err := s.SatisfiesWeak(good); err != nil {
		t.Errorf("weak: %v", err)
	}
	if err := s.Satisfies(good); err != nil {
		t.Errorf("strict: %v", err)
	}
}

func TestSatisfiesRootChecks(t *testing.T) {
	s := buildD4()
	if err := s.Satisfies(&xmlmodel.Document{Root: xmlmodel.NewElement("department")}); err == nil {
		t.Error("wrong root name must fail")
	}
	if err := s.Satisfies(&xmlmodel.Document{}); err == nil {
		t.Error("empty document must fail")
	}
	// Empty view (no professors or students) is allowed by D4's root type.
	if err := s.Satisfies(&xmlmodel.Document{Root: xmlmodel.NewElement("withJournals")}); err != nil {
		t.Errorf("empty view: %v", err)
	}
}

func TestSatisfiesElementAs(t *testing.T) {
	s := buildD4()
	j := pub("journal")
	c := pub("conference")
	if !s.SatisfiesElementAs(j, regex.T("publication", 1)) {
		t.Error("journal publication must satisfy publication^1")
	}
	if s.SatisfiesElementAs(c, regex.T("publication", 1)) {
		t.Error("conference publication must not satisfy publication^1")
	}
	if !s.SatisfiesElementAs(c, regex.N("publication")) {
		t.Error("conference publication must satisfy publication^0")
	}
	if !s.SatisfiesElement(c) || !s.SatisfiesElement(j) {
		t.Error("both satisfy some specialization")
	}
}

// TestMergeD4 reproduces Example 4.3: merging D4 yields D10, whose
// professor definition is language-equivalent to "at least two
// publications" and which signals non-tightness for publication.
func TestMergeD4(t *testing.T) {
	s := buildD4()
	plain, events, err := s.Merge(nil)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	wantProf := regex.MustParse("firstName, lastName, publication, publication, publication*, teaches")
	if eq, _ := automata.Equivalent(plain.Types["professor"].Model, wantProf, nil); !eq {
		t.Errorf("merged professor = %s, want ≡ %s", plain.Types["professor"].Model, wantProf)
	}
	wantPub := regex.MustParse("(title, author+, (journal|conference)) | (title, author+, journal)")
	if eq, _ := automata.Equivalent(plain.Types["publication"].Model, wantPub, nil); !eq {
		t.Errorf("merged publication = %s", plain.Types["publication"].Model)
	}
	var pubEvent *MergeEvent
	for i := range events {
		if events[i].Base == "publication" {
			pubEvent = &events[i]
		}
	}
	if pubEvent == nil {
		t.Fatal("merge of publication specializations must be signalled")
	}
	if !pubEvent.Distinct {
		t.Error("publication⁰ and publication¹ differ; the merge loses information and must say so")
	}
	if !strings.Contains(pubEvent.String(), "non-tightness") {
		t.Errorf("event rendering: %s", pubEvent)
	}
	if errs := plain.Check(); len(errs) != 0 {
		t.Errorf("merged DTD inconsistent: %v", errs)
	}
}

func TestMergeSoundness(t *testing.T) {
	// Any document satisfying the s-DTD must satisfy the merged DTD.
	s := buildD4()
	plain, _, err := s.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := &xmlmodel.Document{Root: xmlmodel.NewElement("withJournals",
		prof("journal", "conference", "journal"))}
	if err := s.Satisfies(doc); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := plain.Validate(doc); err != nil {
		t.Errorf("Merge must be sound: %v", err)
	}
}

func TestMergePCDATAConflict(t *testing.T) {
	s := New(regex.N("r"))
	s.Declare(regex.N("r"), dtd.M(regex.MustParse("a")))
	s.Declare(regex.N("a"), dtd.PC())
	s.Declare(regex.T("a", 1), dtd.M(regex.MustParse("b")))
	s.Declare(regex.N("b"), dtd.PC())
	if _, _, err := s.Merge(nil); err == nil {
		t.Error("PCDATA/model conflict must be an error")
	}
}

func TestMergePCDATASpecializations(t *testing.T) {
	s := New(regex.N("r"))
	s.Declare(regex.N("r"), dtd.M(regex.MustParse("a, a^1")))
	s.Declare(regex.N("a"), dtd.PC())
	s.Declare(regex.T("a", 1), dtd.PC())
	plain, events, err := s.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Types["a"].PCDATA {
		t.Error("merged a must stay PCDATA")
	}
	if len(events) != 1 || events[0].Distinct {
		t.Errorf("events = %v", events)
	}
}

// TestNormalizeCollapsesFootnote8 reproduces footnote 8: a redundant
// publication² with the same type as publication¹ disappears.
func TestNormalizeCollapsesFootnote8(t *testing.T) {
	s := buildD4()
	// Introduce the redundant third specialization the tightening algorithm
	// would create, and reference it from gradStudent.
	s.Declare(regex.T("publication", 2), dtd.M(regex.MustParse("title, author+, journal")))
	s.Types[regex.N("gradStudent")] = dtd.M(regex.MustParse(
		"firstName, lastName, publication*, publication^1, publication*, publication^2, publication*"))
	n := s.Normalize(nil)
	if got := len(n.Specializations("publication")); got != 2 {
		t.Fatalf("publication specializations after Normalize = %d, want 2\n%s", got, n)
	}
	gs := n.Types[regex.N("gradStudent")].Model.String()
	if strings.Contains(gs, "publication^2") {
		t.Errorf("gradStudent still references publication^2: %s", gs)
	}
	// Normalization must preserve satisfaction.
	for _, venues := range [][]string{{"journal", "journal"}, {"journal"}, {"conference", "journal", "journal"}} {
		doc := &xmlmodel.Document{Root: xmlmodel.NewElement("withJournals", prof(venues...))}
		before := s.Satisfies(doc) == nil
		after := n.Satisfies(doc) == nil
		if before != after {
			t.Errorf("Normalize changed satisfaction for %v: %v vs %v", venues, before, after)
		}
	}
}

func TestNormalizeKeepsDistinctTags(t *testing.T) {
	s := buildD4()
	n := s.Normalize(nil)
	if got := len(n.Specializations("publication")); got != 2 {
		t.Errorf("distinct specializations must survive, got %d", got)
	}
}

func TestNormalizeRecursiveEquivalence(t *testing.T) {
	// a^0 and a^1 reference each other's classes; they are equivalent only
	// after identifying them — the fixpoint must keep them together.
	s := New(regex.N("r"))
	s.Declare(regex.N("r"), dtd.M(regex.MustParse("a | a^1")))
	s.Declare(regex.N("a"), dtd.M(regex.MustParse("a?")))
	s.Declare(regex.T("a", 1), dtd.M(regex.MustParse("a^1?")))
	n := s.Normalize(nil)
	if got := len(n.Specializations("a")); got != 1 {
		t.Errorf("recursively equivalent tags should collapse, got %d\n%s", got, n)
	}
}

// TestNormalizeMergeUnderExhaustedBudgetStaySound: two specializations whose
// equivalence only an automaton shows, under the one budget a view definition
// shares between Normalize and Merge. Unlimited, they collapse and nothing is
// reported. Exhausted, they stay apart and the merge says Distinct — "may have
// lost information" is the sound answer to a question left open — while the
// merged type still denotes the same language: looser bookkeeping, same
// documents, no error.
func TestNormalizeMergeUnderExhaustedBudgetStaySound(t *testing.T) {
	s := New(regex.N("r"))
	s.Declare(regex.N("r"), dtd.M(regex.MustParse("m, m^1")))
	s.Declare(regex.N("m"), dtd.M(regex.MustParse("(a, b*)*")))
	s.Declare(regex.T("m", 1), dtd.M(regex.MustParse("(a+, b*)*")))
	s.Declare(regex.N("a"), dtd.PC())
	s.Declare(regex.N("b"), dtd.PC())
	want := s.Types[regex.N("m")].Model

	for _, c := range []struct {
		bud      *budget.Budget
		specs    int
		distinct bool
	}{{nil, 1, false}, {budget.New(budget.Limits{MaxStates: 1}), 2, true}} {
		automata.PurgeCache() // a resident DFA is free under any budget
		n := s.Normalize(c.bud)
		if got := len(n.Specializations("m")); got != c.specs {
			t.Errorf("budget %v: %d specializations of m, want %d\n%s", c.bud.Usage(), got, c.specs, n)
		}
		plain, events, err := n.Merge(c.bud)
		if err != nil {
			t.Fatalf("budget %v: Merge: %v", c.bud.Usage(), err)
		}
		if (c.bud.Exhausted() != nil) != c.distinct {
			t.Errorf("budget %v: exhausted = %v, want %v", c.bud.Usage(), c.bud.Exhausted(), c.distinct)
		}
		if c.distinct != (len(events) == 1 && events[0].Base == "m" && events[0].Distinct) {
			t.Errorf("budget %v: merge events %v, want m reported distinct: %v", c.bud.Usage(), events, c.distinct)
		}
		if eq, _ := automata.Equivalent(plain.Types["m"].Model, want, nil); !eq {
			t.Errorf("budget %v: merged m = %s, not the language of %s", c.bud.Usage(), plain.Types["m"].Model, want)
		}
	}
}

func TestFromDTD(t *testing.T) {
	d := dtd.New("r")
	d.Declare("r", dtd.M(regex.MustParse("a*")))
	d.Declare("a", dtd.PC())
	s := FromDTD(d)
	if s.Root != regex.N("r") || len(s.Types) != 2 {
		t.Errorf("FromDTD = %v", s)
	}
	doc := &xmlmodel.Document{Root: xmlmodel.NewElement("r", xmlmodel.NewText("a", "x"))}
	if err := s.Satisfies(doc); err != nil {
		t.Errorf("lifted s-DTD must accept what the DTD accepts: %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	s := buildD4()
	out := s.String()
	if !strings.Contains(out, "<!ELEMENT publication^1 (title, author+, journal)>") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestCheckUndeclaredReference(t *testing.T) {
	s := New(regex.N("r"))
	s.Declare(regex.N("r"), dtd.M(regex.MustParse("a^3")))
	errs := s.Check()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "a^3") {
		t.Errorf("Check = %v", errs)
	}
}

// TestQuickStrictImpliesWeak: the strict (tag-consistent) satisfaction is
// at least as demanding as the literal Definition 3.10 reading, on random
// documents over D4's names.
func TestQuickStrictImpliesWeak(t *testing.T) {
	s := buildD4()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var venues []string
		for i := 0; i < r.Intn(5); i++ {
			if r.Intn(2) == 0 {
				venues = append(venues, "journal")
			} else {
				venues = append(venues, "conference")
			}
		}
		kids := []*xmlmodel.Element{}
		for i := 0; i < r.Intn(3); i++ {
			if r.Intn(2) == 0 {
				kids = append(kids, prof(venues...))
			} else {
				gs := prof(venues...)
				gs.Name = "gradStudent"
				gs.Children = gs.Children[:len(gs.Children)-1] // drop teaches
				kids = append(kids, gs)
			}
		}
		doc := &xmlmodel.Document{Root: xmlmodel.NewElement("withJournals", kids...)}
		strict := s.Satisfies(doc) == nil
		weak := s.SatisfiesWeak(doc) == nil
		if strict && !weak {
			t.Logf("seed %d: strict holds but weak fails on %s", seed, xmlmodel.MarshalElement(doc.Root, -1))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := buildD4()
	back, err := Parse(s.String())
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, s)
	}
	if back.Root != s.Root || len(back.Types) != len(s.Types) {
		t.Fatalf("round trip changed shape")
	}
	for _, n := range s.Names() {
		if back.Types[n].String() != s.Types[n].String() {
			t.Errorf("type of %s changed: %s vs %s", n, s.Types[n], back.Types[n])
		}
	}
	// Satisfaction is preserved.
	doc := &xmlmodel.Document{Root: xmlmodel.NewElement("withJournals", prof("journal", "journal"))}
	if (s.Satisfies(doc) == nil) != (back.Satisfies(doc) == nil) {
		t.Error("round trip changed satisfaction")
	}
}

func TestParseErrorsSDTD(t *testing.T) {
	for _, bad := range []string{
		``,
		`<!DOCTYPE r [ <!ELEMENT r (a^1)> ]>`, // undeclared a^1
		`<!DOCTYPE r [ <!ELEMENT r (a)> <!ELEMENT r (b)> ]>`, // duplicate
		`<!DOCTYPE r [ <!WEIRD x> ]>`,                        // unknown decl
		`<!DOCTYPE r [ <!ELEMENT r (a,,b)> ]>`,               // bad model
		`<!DOCTYPE (a|b) [ <!ELEMENT a (#PCDATA)> ]>`,        // root not a name
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseTaggedRoot(t *testing.T) {
	s, err := Parse(`<!DOCTYPE v [
	  <!ELEMENT v (p^1*)>
	  <!ELEMENT p^1 (#PCDATA)>
	]>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Specializations("p")); got != 1 {
		t.Errorf("p specializations = %d", got)
	}
}
