package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/oem"
	"repro/internal/tightness"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

func init() {
	register(&Experiment{
		ID:    "E9",
		Title: "Soundness and structural-tightness precision",
		Paper: "Definitions 3.1/3.7; Section 3.2's information-loss phenomenon, quantified",
		Run:   runE9,
	})
	register(&Experiment{
		ID:    "E10",
		Title: "DTD-based query simplification speedup",
		Paper: "Section 1's claim: 'the query simplifier may employ the source DTDs to create a more efficient plan'",
		Run:   runE10,
	})
	register(&Experiment{
		ID:    "E11",
		Title: "Mediation: union views, stacked mediators, dataguide comparison",
		Paper: "Section 1 (MIX architecture, Figure 1) and Section 5 ([GW97] dataguides)",
		Run:   runE11,
	})
	register(&Experiment{
		ID:    "E12",
		Title: "Inference scalability sweeps",
		Paper: "practicality of the Section 4 algorithms (implied; the paper reports no timings)",
		Run:   runE12,
	})
}

func runE9(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}

	// Part 1: randomized soundness over D1 for the paper's queries.
	trials := 300
	if cfg.Quick {
		trials = 60
	}
	src := mustDTD(D1)
	t := &table{header: []string{"query", "trials", "violations", "verdict"}}
	for _, qs := range []struct{ name, q string }{
		{"Q2 (withJournals)", Q2},
		{"Q3 (publist)", Q3},
	} {
		q := mustQuery(qs.q)
		res, err := infer.Infer(q, src)
		if err != nil {
			return nil, err
		}
		rep, err := tightness.CheckSoundness(q, src, res.DTD, res.SDTD, trials, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ok := rep.Violations == 0
		check(&out.Pass, ok)
		t.add(qs.name, fmt.Sprint(rep.Trials), fmt.Sprint(rep.Violations), mark(ok))
	}
	t.write(w, "    ")

	// Part 2: structural-tightness precision on the mini department,
	// exhaustively at a size bound: naive DTD vs tight DTD vs s-DTD.
	msrc := mustDTD(MiniSrc)
	mq := mustQuery(MiniQ2)
	res, err := infer.Infer(mq, msrc)
	if err != nil {
		return nil, err
	}
	naive, err := infer.NaiveInfer(mq, msrc)
	if err != nil {
		return nil, err
	}
	viewBound, srcBound, limit := 8, 10, 4000
	if cfg.Quick {
		viewBound, srcBound, limit = 6, 8, 800
	}
	t2 := &table{header: []string{"schema", "classes ≤ bound", "achievable", "precision"}}
	nRep, err := tightness.MeasureDTD(naive, mq, msrc, viewBound, srcBound, limit)
	if err != nil {
		return nil, err
	}
	pRep, err := tightness.MeasureDTD(res.DTD, mq, msrc, viewBound, srcBound, limit)
	if err != nil {
		return nil, err
	}
	sRep, err := tightness.MeasureSDTD(res.SDTD, mq, msrc, viewBound, srcBound, limit)
	if err != nil {
		return nil, err
	}
	t2.add("naive DTD (Example 3.1's straw man)", fmt.Sprint(nRep.Classes), fmt.Sprint(nRep.Achievable), fmt.Sprintf("%.3f", nRep.Precision()))
	t2.add("tightest plain DTD (Section 4)", fmt.Sprint(pRep.Classes), fmt.Sprint(pRep.Achievable), fmt.Sprintf("%.3f", pRep.Precision()))
	t2.add("specialized DTD (Section 3.3)", fmt.Sprint(sRep.Classes), fmt.Sprint(sRep.Achievable), fmt.Sprintf("%.3f", sRep.Precision()))
	t2.write(w, "    ")
	check(&out.Pass, nRep.Precision() <= pRep.Precision())
	check(&out.Pass, pRep.Precision() < 1)
	check(&out.Pass, sRep.Precision() == 1)
	out.Notes = append(out.Notes,
		fmt.Sprintf("view bound %d elements, source bound %d, limit %d classes", viewBound, srcBound, limit),
		"the ordering naive ≤ tight < s-DTD = 1.0 is the paper's Section 3 story made quantitative",
	)
	if pRep.NonTightWitness != "" {
		out.Notes = append(out.Notes, "plain-DTD non-tightness witness (cannot be produced by the view): "+pRep.NonTightWitness)
	}
	return out, nil
}

func runE10(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}
	src := mustDTD(D1)

	// Queries: one with redundant (valid) conditions the simplifier can
	// prune (the nested publication test is guaranteed by D1's
	// publication+ and its title/author+ content), one provably empty,
	// one untouched (control).
	prunable := mustQuery(`v = SELECT X WHERE <department>
	  X:<professor><firstName/><teaches/><publication><title/><author/></publication></professor>
	</department>`)
	unsat := mustQuery(`v = SELECT X WHERE <department> X:<professor><course/></professor> </department>`)
	control := mustQuery(`v = SELECT X WHERE <department>
	  X:<professor><publication><conference/></publication></professor>
	</department>`)

	sizes := []int{20, 60, 180}
	reps := 30
	if cfg.Quick {
		sizes = []int{10, 30}
		reps = 8
	}
	t := &table{header: []string{"query", "corpus docs", "baseline", "DTD-simplified", "speedup", "same answers"}}
	for _, n := range sizes {
		g, err := gen.New(src, gen.Options{Seed: cfg.Seed, AssignIDs: true, LengthBias: 0.15})
		if err != nil {
			return nil, err
		}
		docs := g.Corpus(n)
		for _, qc := range []struct {
			name string
			q    *xmas.Query
		}{{"prunable", prunable}, {"unsatisfiable", unsat}, {"control", control}} {
			sq, rep, err := infer.SimplifyQuery(qc.q, src)
			if err != nil {
				return nil, err
			}
			baseline := timeEval(qc.q, docs, reps)
			var simplified time.Duration
			if rep.Class == infer.Unsatisfiable {
				simplified = timeSkip(docs, reps) // classification replaces evaluation
			} else {
				simplified = timeEval(sq, docs, reps)
			}
			same := true
			if rep.Class != infer.Unsatisfiable {
				for _, doc := range docs {
					a, _ := engine.Eval(qc.q, doc)
					b, _ := engine.Eval(sq, doc)
					if !a.Root.Equal(b.Root) {
						same = false
					}
				}
			} else {
				for _, doc := range docs {
					a, _ := engine.Eval(qc.q, doc)
					if len(a.Root.Children) != 0 {
						same = false
					}
				}
			}
			check(&out.Pass, same)
			speed := float64(baseline) / float64(max64(simplified, 1))
			t.add(qc.name, fmt.Sprint(n), cfg.dur(baseline, time.Microsecond),
				cfg.dur(simplified, time.Microsecond), cfg.ratio(speed), fmt.Sprint(same))
			if !cfg.Stable && qc.name != "control" && speed < 1 {
				out.Notes = append(out.Notes, fmt.Sprintf("warning: no speedup for %s at n=%d", qc.name, n))
			}
		}
	}
	t.write(w, "    ")
	out.Notes = append(out.Notes,
		"'baseline' evaluates the original query with no schema knowledge (the TSIMMIS mode); 'DTD-simplified' prunes valid conditions / short-circuits unsatisfiable queries first",
		"shape expected from the paper: simplified wins on prunable and unsatisfiable queries, ties on the control")
	return out, nil
}

// timeEval measures the matching cost (EvalElements, no result cloning) —
// the component the DTD-based simplifier accelerates.
func timeEval(q *xmas.Query, docs []*xmlmodel.Document, reps int) time.Duration {
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, doc := range docs {
			if _, err := engine.EvalElements(q, doc); err != nil {
				panic(err)
			}
		}
	}
	return time.Since(start) / time.Duration(reps)
}

// timeSkip measures the cost of answering from the classification alone:
// building the empty result per document.
func timeSkip(docs []*xmlmodel.Document, reps int) time.Duration {
	start := time.Now()
	sink := 0
	for r := 0; r < reps; r++ {
		for range docs {
			view := &xmlmodel.Document{Root: &xmlmodel.Element{Name: "v"}}
			sink += len(view.Root.Children)
		}
	}
	_ = sink
	d := time.Since(start) / time.Duration(reps)
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

func max64(a time.Duration, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func runE11(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}

	// Three heterogeneous sites exporting people with publications.
	site := func(root, member string, extra string) string {
		return fmt.Sprintf(`<!DOCTYPE %[1]s [
		  <!ELEMENT %[1]s (%[2]s*)>
		  <!ELEMENT %[2]s (fullName, publication*%[3]s)>
		  <!ELEMENT publication (title, (journal|conference))>
		  <!ELEMENT fullName (#PCDATA)> <!ELEMENT title (#PCDATA)>
		  <!ELEMENT journal (#PCDATA)> <!ELEMENT conference (#PCDATA)>%[4]s
		]>`, root, member, extra, extraDecl(extra))
	}
	m := mediator.New("portal")
	type srcSpec struct{ root, member, extra, doc string }
	specs := []srcSpec{
		{"cslab", "researcher", "", `<cslab><researcher><fullName>Ana</fullName>
		   <publication><title>t1</title><journal>J</journal></publication>
		   <publication><title>t2</title><journal>K</journal></publication></researcher></cslab>`},
		{"biolab", "scientist", ", grant", `<biolab><scientist><fullName>Bo</fullName>
		   <publication><title>t3</title><journal>J</journal></publication>
		   <publication><title>t4</title><journal>L</journal></publication>
		   <grant>NSF</grant></scientist>
		   <scientist><fullName>Cy</fullName><grant>NIH</grant></scientist></biolab>`},
		{"mathdept", "fellow", "", `<mathdept><fellow><fullName>Di</fullName>
		   <publication><title>t5</title><conference>C</conference></publication></fellow></mathdept>`},
	}
	var parts []mediator.ViewPart
	for _, s := range specs {
		d, err := dtd.Parse(site(s.root, s.member, s.extra))
		if err != nil {
			return nil, err
		}
		doc, _, err := xmlmodel.Parse(s.doc)
		if err != nil {
			return nil, err
		}
		ss, err := mediator.NewStaticSource(s.root, doc, d)
		if err != nil {
			return nil, err
		}
		if err := m.AddSource(ss); err != nil {
			return nil, err
		}
		q := xmas.MustParse(fmt.Sprintf(
			`SELECT X WHERE <%s> X:<%s> <publication id=A><journal/></publication> <publication id=B><journal/></publication> </%s> </%s> AND A != B`,
			s.root, s.member, s.member, s.root))
		parts = append(parts, mediator.ViewPart{Source: s.root, Query: q})
	}
	v, err := m.DefineUnionView("prolific", parts)
	if err != nil {
		return nil, err
	}
	doc, err := m.Materialize(context.Background(), "prolific")
	if err != nil {
		return nil, err
	}
	check(&out.Pass, len(doc.Root.Children) == 2) // Ana and Bo
	check(&out.Pass, v.SDTD.Satisfies(doc) == nil)
	check(&out.Pass, v.DTD.Validate(doc) == nil)
	t := &table{header: []string{"quantity", "value"}}
	t.add("union view members", fmt.Sprint(len(doc.Root.Children)))
	t.add("view classification", v.Class.String())
	t.add("researcher specializations", fmt.Sprint(len(v.SDTD.Specializations("researcher"))))
	t.add("scientist specializations", fmt.Sprint(len(v.SDTD.Specializations("scientist"))))

	// Stacking: a higher mediator over the union view's inferred DTD.
	wrapped, err := m.AsSource("prolific")
	if err != nil {
		return nil, err
	}
	upper := mediator.New("upper")
	if err := upper.AddSource(wrapped); err != nil {
		return nil, err
	}
	uv, err := upper.DefineView(wrapped.Name(), xmas.MustParse(`sci = SELECT X WHERE <prolific> X:<scientist/> </prolific>`))
	if err != nil {
		return nil, err
	}
	udoc, err := upper.Materialize(context.Background(), "sci")
	if err != nil {
		return nil, err
	}
	check(&out.Pass, len(udoc.Root.Children) == 1)
	check(&out.Pass, uv.DTD.Validate(udoc) == nil)
	t.add("stacked view members", fmt.Sprint(len(udoc.Root.Children)))

	// Dataguide comparison (Section 5): summarize the materialized union
	// view with a dataguide and compare schema precision against the
	// inferred view DTD.
	dg, err := oem.Build(oem.FromXML(doc.Root))
	if err != nil {
		return nil, err
	}
	guideDTD, _, err := dg.ToDTD()
	if err != nil {
		return nil, err
	}
	// Unlimited (nil): an experiment over the paper's own schema.
	inferredTighter, _, _ := tightness.Tighter(v.DTD, guideDTD, nil)
	guideTighter, _, _ := tightness.Tighter(guideDTD, v.DTD, nil)
	t.add("inferred DTD ⊆ dataguide schema", fmt.Sprint(inferredTighter))
	t.add("dataguide schema ⊆ inferred DTD", fmt.Sprint(guideTighter))
	t.write(w, "    ")
	check(&out.Pass, !guideTighter)
	out.Notes = append(out.Notes,
		"the dataguide cannot express order, cardinality or sibling constraints (Section 5); its schema is strictly looser wherever those matter",
		"note: the dataguide summarizes one materialized instance, so it can also miss structures the view allows — the two artifacts are incomparable in general, and the table reports both directions")
	return out, nil
}

func extraDecl(extra string) string {
	if extra == "" {
		return ""
	}
	return "\n  <!ELEMENT grant (#PCDATA)>"
}

func runE12(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}
	reps := 20
	widths := []int{2, 4, 8, 16}
	venueCounts := []int{2, 8, 32}
	siblings := []int{1, 2, 3, 4}
	depths := []int{2, 4, 8, 16}
	if cfg.Quick {
		reps = 5
		widths = []int{2, 8}
		venueCounts = []int{2, 8}
		siblings = []int{1, 3}
		depths = []int{2, 8}
	}
	timeInfer := func(q *xmas.Query, d *dtd.DTD) (time.Duration, error) {
		if _, err := infer.Infer(q, d); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := infer.Infer(q, d); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(reps), nil
	}

	t := &table{header: []string{"sweep", "parameter", "Infer time"}}
	for _, wd := range widths {
		d := scaledDeptDTD(wd, 2)
		dur, err := timeInfer(scaledQuery(2), d)
		if err != nil {
			return nil, err
		}
		t.add("DTD width (member kinds)", fmt.Sprint(wd), cfg.dur(dur, time.Microsecond))
	}
	for _, vc := range venueCounts {
		d := scaledDeptDTD(2, vc)
		dur, err := timeInfer(scaledQuery(2), d)
		if err != nil {
			return nil, err
		}
		t.add("disjunction width (venues)", fmt.Sprint(vc), cfg.dur(dur, time.Microsecond))
	}
	for _, k := range siblings {
		d := scaledDeptDTD(2, 2)
		dur, err := timeInfer(scaledQuery(k), d)
		if err != nil {
			return nil, err
		}
		t.add("same-name sibling conditions (tags)", fmt.Sprint(k), cfg.dur(dur, time.Microsecond))
	}
	for _, dp := range depths {
		d, q := deepDTDAndQuery(dp)
		dur, err := timeInfer(q, d)
		if err != nil {
			return nil, err
		}
		t.add("path depth", fmt.Sprint(dp), cfg.dur(dur, time.Microsecond))
	}
	t.write(w, "    ")
	out.Notes = append(out.Notes,
		"sibling-condition count is the hard axis: each extra same-name condition multiplies the refined expression (Example 4.2's disjunction of orders) — the known combinatorial core of the algorithm",
		"all other axes stay well under a millisecond at realistic schema sizes, supporting inference at view-registration time")
	return out, nil
}
