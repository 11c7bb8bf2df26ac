package mix_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	mix "repro"
)

// TestFacadeEndToEnd exercises the public API as the README's quickstart
// does: parse, infer, evaluate, validate, measure.
func TestFacadeEndToEnd(t *testing.T) {
	src, err := mix.ParseDTD(d1Bench)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mix.ParseQuery(q2Bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mix.Infer(q, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != mix.Satisfiable {
		t.Errorf("class = %v", res.Class)
	}
	if !strings.Contains(res.SDTD.String(), "publication^1") {
		t.Errorf("s-DTD misses the journal specialization:\n%s", res.SDTD)
	}

	g, err := mix.NewGenerator(src, mix.GenOptions{Seed: 42, AssignIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := g.Document()
	view, err := mix.Eval(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.DTD.Validate(view); err != nil {
		t.Errorf("soundness: %v", err)
	}
	if err := res.SDTD.Satisfies(view); err != nil {
		t.Errorf("s-DTD soundness: %v", err)
	}

	rep, err := mix.CheckSoundness(q, src, res.DTD, res.SDTD, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Errorf("violations: %s", rep.First)
	}
}

func TestFacadeDocumentRoundTrip(t *testing.T) {
	src := mix.MustDTD(d1Bench)
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 9, AssignIDs: true})
	doc := g.Document()
	text := mix.MarshalDocument(doc, src, 2)
	doc2, d2, err := mix.ParseDocument(text)
	if err != nil {
		t.Fatal(err)
	}
	if d2 == nil {
		t.Fatal("DTD lost in round trip")
	}
	if !doc2.Root.Equal(doc.Root) {
		t.Error("document changed in round trip")
	}
	if err := d2.Validate(doc2); err != nil {
		t.Error(err)
	}
}

func TestFacadeTightnessAndModels(t *testing.T) {
	a, err := mix.ParseContentModel("a, b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mix.ParseContentModel("a, b?")
	if err != nil {
		t.Fatal(err)
	}
	if mix.EquivalentModels(a, b) {
		t.Error("a,b and a,b? differ")
	}
	r := mix.Refine(b, "b")
	if !mix.EquivalentModels(r, a) {
		t.Errorf("refine(a,b?, b) = %v, want ≡ a,b", r)
	}
}

func TestFacadeMediator(t *testing.T) {
	m := mix.NewMediator("test")
	src := mix.MustDTD(d1Bench)
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 8, AssignIDs: true})
	w, err := mix.NewStaticSource("dept", g.Document(), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(w); err != nil {
		t.Fatal(err)
	}
	v, err := m.DefineView("dept", mix.MustQuery(q3Bench))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := m.Materialize(context.Background(), "publist")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.DTD.Validate(doc); err != nil {
		t.Error(err)
	}
}

func TestFacadeDataGuide(t *testing.T) {
	e, err := mix.ParseElement(`<r><a>x</a><b><a>y</a></b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := mix.BuildDataGuide(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg.Paths()) != 4 { // r, r.a, r.b, r.b.a
		t.Errorf("paths = %v", dg.Paths())
	}
}

func TestFacadeRunExperimentsSubset(t *testing.T) {
	var buf bytes.Buffer
	if err := mix.RunExperiments(&buf, true, "E5"); err != nil {
		t.Fatalf("RunExperiments: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Error("expected a PASS verdict")
	}
}

func TestFacadeErrRecursivePath(t *testing.T) {
	src := mix.MustDTD(`<!DOCTYPE s [ <!ELEMENT s (p, s*, c)> <!ELEMENT p (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>`)
	_, err := mix.Infer(mix.MustQuery(`v = SELECT X WHERE <s*> X:<p/> </>`), src)
	if err != mix.ErrRecursivePath {
		t.Errorf("err = %v", err)
	}
}

func TestFacadeMeasure(t *testing.T) {
	src := mix.MustDTD(`<!DOCTYPE r [
	  <!ELEMENT r (p*)> <!ELEMENT p (u*)> <!ELEMENT u (j|c)>
	  <!ELEMENT j (#PCDATA)> <!ELEMENT c (#PCDATA)>
	]>`)
	q := mix.MustQuery(`v = SELECT X WHERE <r> X:<p> <u id=A><j/></u> <u id=B><j/></u> </p> </r> AND A != B`)
	res, err := mix.Infer(q, src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mix.MeasureDTD(res.DTD, q, src, 8, 10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sdtd, err := mix.MeasureSDTD(res.SDTD, q, src, 8, 10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !(plain.Precision() < 1 && sdtd.Precision() == 1) {
		t.Errorf("precisions: plain %.3f, sdtd %.3f", plain.Precision(), sdtd.Precision())
	}
}

func TestFacadeParseSDTDRoundTrip(t *testing.T) {
	src := mix.MustDTD(d1Bench)
	res, err := mix.Infer(mix.MustQuery(q2Bench), src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mix.ParseSDTD(res.SDTD.String())
	if err != nil {
		t.Fatalf("ParseSDTD: %v", err)
	}
	if back.String() != res.SDTD.String() {
		t.Errorf("s-DTD round trip changed rendering")
	}
}

func TestFacadeExplainQuery(t *testing.T) {
	src := mix.MustDTD(d1Bench)
	out, err := mix.ExplainQuery(mix.MustQuery(q2Bench), src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "satisfiable") || !strings.Contains(out, "rewritten query") {
		t.Errorf("explain:\n%s", out)
	}
}

func TestFacadePathQueries(t *testing.T) {
	e, err := mix.ParseElement(`<r><a><b>1</b></a><a><b>2</b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := mix.ParsePath("r.a.b")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Eval(e); len(got) != 2 {
		t.Errorf("path eval = %d", len(got))
	}
	dg, err := mix.BuildDataGuide(e)
	if err != nil {
		t.Fatal(err)
	}
	dead, _ := mix.ParsePath("r.z")
	if dg.Satisfiable(dead) {
		t.Error("dead path must be guide-unsatisfiable")
	}
}

func TestFacadeSelectors(t *testing.T) {
	e, err := mix.ParseElement(`<v><m><t>x</t></m></v>`)
	if err != nil {
		t.Fatal(err)
	}
	if e.TextOf("m/t") != "x" || len(e.Descendants("t")) != 1 {
		t.Error("selector facade broken")
	}
}

func TestFacadeValidateIDsViaFull(t *testing.T) {
	d := mix.MustDTD(`<!DOCTYPE r [ <!ELEMENT r (x, x)> <!ELEMENT x (#PCDATA)> ]>`)
	doc, _, err := mix.ParseDocument(`<r id="a"><x id="b">1</x><x id="b">2</x></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateFull(doc, false); err == nil || !strings.Contains(err.Error(), "duplicate ID") {
		t.Errorf("ValidateFull = %v", err)
	}
}
