package tightness

import (
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/infer"
	"repro/internal/regex"
	"repro/internal/xmas"
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

const q2Text = `withJournals =
SELECT P
WHERE <department><name>CS</name>
        P:<professor|gradStudent>
           <publication id=Pub1><journal/></publication>
           <publication id=Pub2><journal/></publication>
        </>
      </department>
AND Pub1 != Pub2`

func mustDTD(t *testing.T, s string) *dtd.DTD {
	t.Helper()
	d, err := dtd.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTighterBasics(t *testing.T) {
	a := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x, x)> <!ELEMENT x (#PCDATA)> ]>`)
	b := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x+)> <!ELEMENT x (#PCDATA)> ]>`)
	if ok, w, _ := Tighter(a, b, nil); !ok {
		t.Errorf("x,x must be tighter than x+: %v", w)
	}
	if ok, _, _ := Tighter(b, a, nil); ok {
		t.Error("x+ is not tighter than x,x")
	}
	if !StrictlyTighter(a, b) || StrictlyTighter(b, a) {
		t.Error("StrictlyTighter misbehaves")
	}
	if Equivalent(a, b) {
		t.Error("not equivalent")
	}
	if !Equivalent(a, a) {
		t.Error("reflexivity")
	}
}

func TestTighterWitnesses(t *testing.T) {
	a := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x*)> <!ELEMENT x (#PCDATA)> ]>`)
	b := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x+)> <!ELEMENT x (#PCDATA)> ]>`)
	ok, w, _ := Tighter(a, b, nil)
	if ok || w == nil || w.Name != "r" || len(w.Word) != 0 {
		t.Errorf("want empty-word witness at r, got ok=%v w=%v", ok, w)
	}
	// Root mismatch.
	c := mustDTD(t, `<!DOCTYPE z [ <!ELEMENT z (x*)> <!ELEMENT x (#PCDATA)> ]>`)
	if ok, w, _ := Tighter(a, c, nil); ok || w == nil || !strings.Contains(w.Reason, "document types differ") {
		t.Errorf("root mismatch: %v %v", ok, w)
	}
	// Name undeclared in the looser DTD: a witness must be produced (the
	// content-model check catches it first, with the offending word).
	d := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (y*)> <!ELEMENT y (#PCDATA)> ]>`)
	if ok, w, _ := Tighter(a, d, nil); ok || w == nil || w.Name != "r" {
		t.Errorf("undeclared: %v %v", ok, w)
	}
	// When the content models agree, the undeclared-name check fires.
	a2 := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x*)> <!ELEMENT x (#PCDATA)> ]>`)
	d2 := dtd.New("r")
	d2.Declare("r", dtd.M(regex.MustParse("x*")))
	if ok, w, _ := Tighter(a2, d2, nil); ok || w == nil || !strings.Contains(w.Reason, "not declared") {
		t.Errorf("undeclared2: %v %v", ok, w)
	}
	// PCDATA vs model mismatch.
	e := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x*)> <!ELEMENT x (r?)> ]>`)
	if ok, w, _ := Tighter(a, e, nil); ok || w == nil || !strings.Contains(w.Reason, "kind mismatch") {
		t.Errorf("kind: %v %v", ok, w)
	}
}

func TestTighterIgnoresUnrealizableNames(t *testing.T) {
	// a's model mentions an unrealizable name `loop`; only the realizable
	// residue (x alone) must be compared.
	a := mustDTD(t, `<!DOCTYPE r [
	  <!ELEMENT r (x | loop)> <!ELEMENT x (#PCDATA)> <!ELEMENT loop (loop)>
	]>`)
	b := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x)> <!ELEMENT x (#PCDATA)> ]>`)
	if ok, w, _ := Tighter(a, b, nil); !ok {
		t.Errorf("unrealizable branch must not produce a witness: %v", w)
	}
	// A DTD with an unrealizable root is vacuously tighter than anything.
	v := mustDTD(t, `<!DOCTYPE loop [ <!ELEMENT loop (loop)> ]>`)
	if ok, _, _ := Tighter(v, b, nil); !ok {
		t.Error("empty tree language is tighter than everything")
	}
}

func TestTightInferenceBeatsNaive(t *testing.T) {
	src := mustDTD(t, d1Text)
	q := xmas.MustParse(q2Text)
	res, err := infer.Infer(q, src)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := infer.NaiveInfer(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if !StrictlyTighter(res.DTD, naive) {
		t.Error("the inferred view DTD must be strictly tighter than the naive one")
	}
}

func TestSoundnessOfInferredDTDs(t *testing.T) {
	src := mustDTD(t, d1Text)
	for _, qs := range []string{
		q2Text,
		`publist = SELECT P WHERE <department><name>CS</name> <professor|gradStudent> P:<publication><journal/></publication> </> </department>`,
		`names = SELECT N WHERE <department> N:<name/> </department>`,
		`profs = SELECT X WHERE <department> X:<professor><teaches>cse100</teaches></professor> </department>`,
		`v = SELECT X WHERE <department> X:<dean/> </department>`, // unsatisfiable
	} {
		q := xmas.MustParse(qs)
		res, err := infer.Infer(q, src)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		rep, err := CheckSoundness(q, src, res.DTD, res.SDTD, 150, 11)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if rep.Violations != 0 {
			t.Errorf("%s: %d/%d soundness violations\n%s", q.Name, rep.Violations, rep.Trials, rep.First)
		}
	}
}

func TestNaiveSoundToo(t *testing.T) {
	src := mustDTD(t, d1Text)
	q := xmas.MustParse(q2Text)
	naive, err := infer.NaiveInfer(q, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckSoundness(q, src, naive, nil, 100, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Errorf("naive DTD must still be sound: %s", rep.First)
	}
}

func TestEnumerateClasses(t *testing.T) {
	d := mustDTD(t, `<!DOCTYPE r [
	  <!ELEMENT r (a?, b*)>
	  <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)>
	]>`)
	classes := EnumerateClasses(d, 4, 1000)
	// Within 4 elements: r alone (ε), r(a), r(b), r(a,b), r(b,b), r(a,b,b), r(b,b,b).
	if len(classes) != 7 {
		for _, c := range classes {
			t.Log(c.StructureKey())
		}
		t.Fatalf("classes = %d, want 7", len(classes))
	}
	seen := map[string]bool{}
	for _, c := range classes {
		k := c.StructureKey()
		if seen[k] {
			t.Errorf("duplicate class %s", k)
		}
		seen[k] = true
		if err := d.ValidateElement(c); err != nil {
			t.Errorf("enumerated class invalid: %v", err)
		}
	}
}

func TestEnumerateRespectsBudgetAndLimit(t *testing.T) {
	d := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (x*)> <!ELEMENT x (#PCDATA)> ]>`)
	for _, c := range EnumerateClasses(d, 3, 100) {
		if c.Size() > 3 {
			t.Errorf("class size %d exceeds budget", c.Size())
		}
	}
	if got := len(EnumerateClasses(d, 50, 5)); got != 5 {
		t.Errorf("limit not honored: %d", got)
	}
	// Unrealizable root: nothing to enumerate.
	u := mustDTD(t, `<!DOCTYPE loop [ <!ELEMENT loop (loop)> ]>`)
	if got := EnumerateClasses(u, 10, 10); got != nil {
		t.Errorf("unrealizable enumeration = %v", got)
	}
}

func TestEnumerateRecursiveDTD(t *testing.T) {
	d := mustDTD(t, `<!DOCTYPE s [
	  <!ELEMENT s (p, s*, c)>
	  <!ELEMENT p (#PCDATA)> <!ELEMENT c (#PCDATA)>
	]>`)
	classes := EnumerateClasses(d, 7, 1000)
	// size 3: s(p,c); size 6: s(p, s(p,c), c). Nothing else fits ≤7.
	if len(classes) != 2 {
		for _, c := range classes {
			t.Log(c.StructureKey())
		}
		t.Fatalf("classes = %d, want 2", len(classes))
	}
}

// TestStructuralTightnessMiniD1 reproduces the Section 3.2 phenomenon on a
// scaled-down department: the merged plain view DTD admits structures that
// no view can produce (precision < 1), while the specialized view DTD is
// structurally tight at the bound (precision = 1). This is experiment E9's
// core assertion.
func TestStructuralTightnessMiniD1(t *testing.T) {
	src := mustDTD(t, `<!DOCTYPE r [
	  <!ELEMENT r (p*)>
	  <!ELEMENT p (u*)>
	  <!ELEMENT u (j|c)>
	  <!ELEMENT j (#PCDATA)> <!ELEMENT c (#PCDATA)>
	]>`)
	q := xmas.MustParse(`v = SELECT X WHERE <r> X:<p> <u id=A><j/></u> <u id=B><j/></u> </p> </r> AND A != B`)
	res, err := infer.Infer(q, src)
	if err != nil {
		t.Fatal(err)
	}
	// Merged plain DTD: u can be journal or conference again.
	if !res.NonTight {
		t.Error("merge must flag non-tightness")
	}
	plainRep, err := MeasureDTD(res.DTD, q, src, 8, 10, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if plainRep.Classes == 0 {
		t.Fatal("no classes enumerated; bounds too small")
	}
	if plainRep.Precision() >= 1 {
		t.Errorf("plain view DTD should be structurally non-tight, precision = %.2f over %d classes",
			plainRep.Precision(), plainRep.Classes)
	}
	if plainRep.NonTightWitness == "" {
		t.Error("expected a non-tightness witness")
	}
	sRep, err := MeasureSDTD(res.SDTD, q, src, 8, 10, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if sRep.Classes == 0 {
		t.Fatal("no s-DTD classes enumerated")
	}
	if sRep.Precision() != 1 {
		t.Errorf("s-DTD should be structurally tight at the bound, precision = %.3f (%d/%d), witness %s",
			sRep.Precision(), sRep.Achievable, sRep.Classes, sRep.NonTightWitness)
	}
	// And the naive DTD is even less precise than the merged tight DTD.
	naive, _ := infer.NaiveInfer(q, src)
	naiveRep, err := MeasureDTD(naive, q, src, 8, 10, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if naiveRep.Precision() > plainRep.Precision() {
		t.Errorf("naive precision %.3f should not beat tight precision %.3f",
			naiveRep.Precision(), plainRep.Precision())
	}
}

// TestE4NoTightestDTDChain verifies Example 3.5's phenomenon: for the
// recursive startsAndEnds view there is a strictly decreasing chain of
// sound view DTD types T6 ⊋ T7 ⊋ T8 — so no tightest DTD exists (the view
// language, balanced prolog/conclusion sequences, is not regular).
func TestE4NoTightestDTDChain(t *testing.T) {
	src := mustDTD(t, `<!DOCTYPE section [
	  <!ELEMENT section (prolog, section*, conclusion)>
	  <!ELEMENT prolog (#PCDATA)> <!ELEMENT conclusion (#PCDATA)>
	]>`)
	q := xmas.MustParse(`startsAndEnds = SELECT X WHERE <section*> X:<prolog|conclusion/> </>`)

	// Inference refuses recursive views.
	if _, err := infer.Infer(q, src); err == nil {
		t.Fatal("recursive view must be rejected by inference")
	}

	mk := func(model string) *dtd.DTD {
		d := dtd.New("startsAndEnds")
		d.Declare("startsAndEnds", dtd.M(regex.MustParse(model)))
		d.Declare("prolog", dtd.PC())
		d.Declare("conclusion", dtd.PC())
		return d
	}
	t6 := mk("(prolog | conclusion)*")
	t7 := mk("(prolog, (prolog | conclusion)*, conclusion)?")
	t8 := mk("(prolog, (prolog, (prolog | conclusion)*, conclusion)*, conclusion)?")
	chain := []*dtd.DTD{t6, t7, t8}
	for i := 1; i < len(chain); i++ {
		if !StrictlyTighter(chain[i], chain[i-1]) {
			t.Errorf("T%d must be strictly tighter than T%d", 6+i, 5+i)
		}
	}
	// All three are sound: sampled views satisfy each.
	g, err := gen.New(src, gen.Options{Seed: 21, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		doc := g.Document()
		view, err := engine.Eval(q, doc)
		if err != nil {
			t.Fatal(err)
		}
		for j, d := range chain {
			if err := d.Validate(view); err != nil {
				t.Fatalf("T%d unsound: %v\nsource %s", 6+j, err, doc.Root)
			}
		}
	}
}

func TestPrecisionReportEdge(t *testing.T) {
	r := &PrecisionReport{}
	if r.Precision() != 1 {
		t.Error("empty report precision must be 1")
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]bool{"b": true, "a": true})
	if len(got) != 2 || got[0] != "a" {
		t.Errorf("got %v", got)
	}
}

// TestPaperConjectureAtIncreasingBounds empirically probes the paper's
// Section 3.4 conjecture — "all pick element views without recursion have
// a structurally tight specialized view DTD" — on the mini department: the
// s-DTD's precision stays exactly 1.0 as the enumeration bound grows,
// while the plain DTD's precision strictly decreases (more unachievable
// classes appear at every size).
func TestPaperConjectureAtIncreasingBounds(t *testing.T) {
	src := mustDTD(t, `<!DOCTYPE r [
	  <!ELEMENT r (p*)>
	  <!ELEMENT p (u*)>
	  <!ELEMENT u (j|c)>
	  <!ELEMENT j (#PCDATA)> <!ELEMENT c (#PCDATA)>
	]>`)
	q := xmas.MustParse(`v = SELECT X WHERE <r> X:<p> <u id=A><j/></u> <u id=B><j/></u> </p> </r> AND A != B`)
	res, err := infer.Infer(q, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []int{6, 8, 10} {
		sRep, err := MeasureSDTD(res.SDTD, q, src, bound, bound+2, 6000)
		if err != nil {
			t.Fatal(err)
		}
		if sRep.Precision() != 1 {
			t.Fatalf("bound %d: s-DTD precision %.3f (%d/%d) — the conjecture fails?! witness: %s",
				bound, sRep.Precision(), sRep.Achievable, sRep.Classes, sRep.NonTightWitness)
		}
		pRep, err := MeasureDTD(res.DTD, q, src, bound, bound+2, 6000)
		if err != nil {
			t.Fatal(err)
		}
		// The plain DTD stays strictly non-tight at every bound (its
		// precision need not be monotone: larger views add achievable
		// classes too).
		if pRep.Classes > 0 && pRep.Precision() >= 1 {
			t.Errorf("bound %d: plain DTD unexpectedly tight", bound)
		}
	}
}

// TestStartsAndEndsChainNeverStabilizes extends E4: the generated chain
// S(0) ⊋ S(1) ⊋ … stays strictly decreasing for every generated level and
// every member remains sound for sampled views — a constructive
// demonstration that no tightest DTD exists for the recursive view
// (Section 3.4), at arbitrary depth rather than just the paper's T6–T8.
func TestStartsAndEndsChainNeverStabilizes(t *testing.T) {
	const levels = 6
	chain := make([]*dtd.DTD, levels)
	for k := range chain {
		chain[k] = StartsAndEndsChain(k)
		if errs := chain[k].Check(); len(errs) > 0 {
			t.Fatalf("S(%d): %v", k, errs)
		}
	}
	for k := 1; k < levels; k++ {
		if !StrictlyTighter(chain[k], chain[k-1]) {
			t.Fatalf("S(%d) must be strictly tighter than S(%d)", k, k-1)
		}
	}
	// Soundness of every level against sampled views.
	src := mustDTD(t, `<!DOCTYPE section [
	  <!ELEMENT section (prolog, section*, conclusion)>
	  <!ELEMENT prolog (#PCDATA)> <!ELEMENT conclusion (#PCDATA)>
	]>`)
	q := xmas.MustParse(`startsAndEnds = SELECT X WHERE <section*> X:<prolog|conclusion/> </>`)
	g, err := gen.New(src, gen.Options{Seed: 33, MaxDepth: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		view, err := engine.Eval(q, g.Document())
		if err != nil {
			t.Fatal(err)
		}
		for k, d := range chain {
			if err := d.Validate(view); err != nil {
				t.Fatalf("S(%d) unsound: %v", k, err)
			}
		}
	}
}
