// Benchmarks for every experiment axis in EXPERIMENTS.md. Correctness is
// asserted by the unit/integration tests and the mixbench harness; these
// testing.B benches measure the hot paths behind each experiment:
//
//	E1–E3, E7  — full view-DTD inference over the paper's D1 (Q2, Q3)
//	E5, E6     — type refinement, plain and tagged
//	E4         — tightness-order decisions on content models
//	E8         — list inference through a deep path
//	E9         — soundness machinery: generation, evaluation, validation
//	E10        — query evaluation with and without DTD simplification
//	E11        — mediation: union view registration, stacked query
//	E12        — inference scalability axes (width / venues / siblings / depth)
package mix_test

import (
	"fmt"
	"io"
	"testing"

	mix "repro"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

const d1Bench = `<!DOCTYPE department [
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

const q2Bench = `withJournals =
SELECT P
WHERE <department><name>CS</name>
        P:<professor|gradStudent>
           <publication id=Pub1><journal/></publication>
           <publication id=Pub2><journal/></publication>
        </>
      </department>
AND Pub1 != Pub2`

const q3Bench = `publist = SELECT P WHERE <department><name>CS</name> <professor|gradStudent> P:<publication><journal/></publication> </> </department>`

// BenchmarkE1InferQ2 measures full inference (tighten + list inference +
// normalize + merge) for the paper's flagship example.
func BenchmarkE1InferQ2(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	q := mix.MustQuery(q2Bench)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mix.Infer(q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2InferQ3 measures inference for the disjunction-removal view.
func BenchmarkE2InferQ3(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	q := mix.MustQuery(q3Bench)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mix.Infer(q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Refine measures plain type refinement (Example 4.1).
func BenchmarkE5Refine(b *testing.B) {
	base, err := mix.ParseContentModel("name, (journal|conference)*")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mix.Refine(base, "journal")
	}
}

// BenchmarkE4Containment measures the tightness-order decision on the
// Example 3.5 chain types (automata pipeline: compile, product, BFS).
func BenchmarkE4Containment(b *testing.B) {
	t7, _ := mix.ParseContentModel("(prolog, (prolog | conclusion)*, conclusion)?")
	t8, _ := mix.ParseContentModel("(prolog, (prolog, (prolog | conclusion)*, conclusion)*, conclusion)?")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !mix.EquivalentModels(t7, t7) || mix.EquivalentModels(t7, t8) {
			b.Fatal("containment answer changed")
		}
	}
}

// BenchmarkE4ContainmentCold is BenchmarkE4Containment with the
// compiled-automata cache purged each iteration: the pair quantifies what
// the cache buys on the mediator's repeated-decision hot path (the warm
// variant must be at least 5× faster; see internal/automata/bench_test.go
// for the finer-grained cold/warm splits).
func BenchmarkE4ContainmentCold(b *testing.B) {
	t7, _ := mix.ParseContentModel("(prolog, (prolog | conclusion)*, conclusion)?")
	t8, _ := mix.ParseContentModel("(prolog, (prolog, (prolog | conclusion)*, conclusion)*, conclusion)?")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mix.PurgeAutomataCache()
		if !mix.EquivalentModels(t7, t7) || mix.EquivalentModels(t7, t8) {
			b.Fatal("containment answer changed")
		}
	}
}

// BenchmarkE8DeepListInference measures inference through a 4-step path.
func BenchmarkE8DeepListInference(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	q := mix.MustQuery(`papers = SELECT P WHERE <department> <gradStudent> <publication> P:<title|author/> </publication> </gradStudent> </department>`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mix.Infer(q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Generate measures random valid-document generation.
func BenchmarkE9Generate(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	g, err := mix.NewGenerator(src, mix.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Document()
	}
}

// BenchmarkE9Validate measures DTD validation of generated documents.
func BenchmarkE9Validate(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 1})
	docs := make([]*mix.Document, 32)
	for i := range docs {
		docs[i] = g.Document()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Validate(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9SDTDSatisfies measures strict s-DTD satisfaction of view
// documents (the tag-consistent parse).
func BenchmarkE9SDTDSatisfies(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	q := mix.MustQuery(q2Bench)
	res, err := mix.Infer(q, src)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 2, AssignIDs: true, LengthBias: 0.2})
	views := make([]*mix.Document, 16)
	for i := range views {
		v, err := mix.Eval(q, g.Document())
		if err != nil {
			b.Fatal(err)
		}
		views[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.SDTD.Satisfies(views[i%len(views)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEval is the E10 core: evaluation with or without simplification.
func benchEval(b *testing.B, simplify bool) {
	src := mix.MustDTD(d1Bench)
	q := mix.MustQuery(`v = SELECT X WHERE <department>
	  X:<professor><firstName/><teaches/><publication><title/><author/></publication></professor>
	</department>`)
	run := q
	if simplify {
		sq, _, err := mix.SimplifyQuery(q, src)
		if err != nil {
			b.Fatal(err)
		}
		run = sq
	}
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 3, AssignIDs: true, LengthBias: 0.15})
	docs := make([]*mix.Document, 16)
	for i := range docs {
		docs[i] = g.Document()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mix.EvalElements(run, docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10EvalBaseline is the TSIMMIS-style schemaless evaluation.
func BenchmarkE10EvalBaseline(b *testing.B) { benchEval(b, false) }

// BenchmarkE10EvalSimplified evaluates after DTD-based simplification.
func BenchmarkE10EvalSimplified(b *testing.B) { benchEval(b, true) }

// BenchmarkE10Simplify measures the simplifier itself (paid once per
// query, amortized over every document it runs on).
func BenchmarkE10Simplify(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	q := mix.MustQuery(q2Bench)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mix.SimplifyQuery(q, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11UnionView measures multi-source view registration (per-part
// inference + s-DTD union + merge) across 8 heterogeneous sites.
func BenchmarkE11UnionView(b *testing.B) {
	const sites = 8
	type sitePack struct {
		name string
		doc  *mix.Document
		dtd  *mix.DTD
		q    *mix.Query
	}
	packs := make([]sitePack, sites)
	for i := range packs {
		root := fmt.Sprintf("site%d", i)
		member := fmt.Sprintf("kind%d", i%3)
		d := mix.MustDTD(fmt.Sprintf(`<!DOCTYPE %[1]s [
		  <!ELEMENT %[1]s (%[2]s*)>
		  <!ELEMENT %[2]s (fullName, publication*)>
		  <!ELEMENT publication (title, (journal|conference))>
		  <!ELEMENT fullName (#PCDATA)> <!ELEMENT title (#PCDATA)>
		  <!ELEMENT journal (#PCDATA)> <!ELEMENT conference (#PCDATA)>
		]>`, root, member))
		g, err := mix.NewGenerator(d, mix.GenOptions{Seed: int64(i), AssignIDs: true})
		if err != nil {
			b.Fatal(err)
		}
		packs[i] = sitePack{
			name: root, doc: g.Document(), dtd: d,
			q: mix.MustQuery(fmt.Sprintf(`SELECT X WHERE <%s> X:<%s><publication/></%s> </%s>`, root, member, member, root)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mix.NewMediator("bench")
		var parts []mix.ViewPart
		for _, p := range packs {
			src, err := mix.NewStaticSource(p.name, p.doc, p.dtd)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.AddSource(src); err != nil {
				b.Fatal(err)
			}
			parts = append(parts, mix.ViewPart{Source: p.name, Query: p.q})
		}
		if _, err := m.DefineUnionView("all", parts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12 sweeps the inference scalability axes of experiment E12.
func BenchmarkE12(b *testing.B) {
	for _, siblings := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("siblings-%d", siblings), func(b *testing.B) {
			src := mix.MustDTD(d1Bench)
			// k same-name sibling publication conditions.
			qs := `v = SELECT X WHERE <department> X:<professor>`
			for i := 0; i < siblings; i++ {
				qs += fmt.Sprintf(` <publication id=I%d><journal/></publication>`, i)
			}
			qs += ` </professor> </department>`
			for i := 1; i < siblings; i++ {
				qs += fmt.Sprintf(" AND I0 != I%d", i)
			}
			q := mix.MustQuery(qs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mix.Infer(q, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, depth := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("pathdepth-%d", depth), func(b *testing.B) {
			dtdText := "<!DOCTYPE n0 [\n"
			for i := 0; i < depth; i++ {
				dtdText += fmt.Sprintf("  <!ELEMENT n%d (n%d+)>\n", i, i+1)
			}
			dtdText += fmt.Sprintf("  <!ELEMENT n%d (#PCDATA)>\n]>", depth)
			src := mix.MustDTD(dtdText)
			qs := "v = SELECT P WHERE "
			for i := 0; i < depth; i++ {
				qs += fmt.Sprintf("<n%d> ", i)
			}
			qs += fmt.Sprintf("P:<n%d/> ", depth)
			for i := 0; i < depth; i++ {
				qs += "</> "
			}
			q := mix.MustQuery(qs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mix.Infer(q, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTighterDecision measures the whole-DTD tightness decision.
func BenchmarkTighterDecision(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	q := mix.MustQuery(q2Bench)
	res, err := mix.Infer(q, src)
	if err != nil {
		b.Fatal(err)
	}
	naive, err := mix.NaiveInfer(q, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := mix.Tighter(res.DTD, naive); !ok {
			b.Fatal("tightness answer changed")
		}
	}
}

// BenchmarkParseDocument measures the XML front end on a generated
// document serialized with its DTD.
func BenchmarkParseDocument(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 4, LengthBias: 0.2})
	text := mix.MarshalDocument(g.Document(), src, 2)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mix.ParseDocument(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseFamilyDocument is the same front end on the shape a source
// fetch parses: a 16 KiB document of an internal/load family, IDs on every
// element, entity-free texts. Its allocs/op is per document, not per node
// (TestParseAllocations holds it there).
func BenchmarkParseFamilyDocument(b *testing.B) {
	text := familyText(b, load.FamilyOptional, 16<<10, plainPool)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := xmlmodel.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// serializerDoc collects generated D1 departments (IDs assigned) under one
// root until the document serializes to at least size bytes.
func serializerDoc(b *testing.B, size int) *mix.Element {
	src := mix.MustDTD(d1Bench)
	root := &mix.Element{Name: "corpus"}
	for seed, n := int64(1), 0; n < size; seed++ {
		g, err := mix.NewGenerator(src, mix.GenOptions{Seed: seed, LengthBias: 0.2, AssignIDs: true})
		if err != nil {
			b.Fatal(err)
		}
		dept := g.Document().Root
		root.Children = append(root.Children, dept)
		n += len(xmlmodel.MarshalElement(dept, 2))
	}
	return root
}

// benchSerializer times serialize on a 32 KiB and a 660 KB document.
func benchSerializer(b *testing.B, serialize func(root *mix.Element)) {
	for _, s := range []struct {
		name string
		size int
	}{{"32KiB", 32 << 10}, {"660KB", 660_000}} {
		b.Run(s.name, func(b *testing.B) {
			root := serializerDoc(b, s.size)
			b.SetBytes(int64(len(xmlmodel.MarshalElement(root, 2))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serialize(root)
			}
		})
	}
}

var benchSink string

// BenchmarkMarshalElement measures the serializer building an answer as a
// string: one exactly-sized buffer and its string, whatever the size.
func BenchmarkMarshalElement(b *testing.B) {
	benchSerializer(b, func(root *mix.Element) { benchSink = xmlmodel.MarshalElement(root, 2) })
}

// BenchmarkWriteElement measures the serving path's serializer: the same
// bytes streamed through the pooled buffer, no answer-sized allocation.
func BenchmarkWriteElement(b *testing.B) {
	benchSerializer(b, func(root *mix.Element) {
		if err := xmlmodel.WriteElement(io.Discard, root, 2); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkE13Compose measures the composition rewrite itself.
func BenchmarkE13Compose(b *testing.B) {
	viewDef := mix.MustQuery(`members = SELECT M WHERE <department><name>CS</name> M:<professor|gradStudent/> </department>`)
	q := mix.MustQuery(`titles = SELECT T WHERE <members> <professor|gradStudent> <publication> T:<title/> </publication> </> </members>`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mix.ComposeQuery(viewDef, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13MaterializeVsCompose compares answering a view query via
// materialization against the composed direct plan.
func BenchmarkE13MaterializeVsCompose(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	viewDef := mix.MustQuery(`members = SELECT M WHERE <department><name>CS</name> M:<professor|gradStudent/> </department>`)
	q := mix.MustQuery(`profs = SELECT X WHERE <members> X:<professor><teaches/></professor> </members>`)
	composed, err := mix.ComposeQuery(viewDef, q)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 12, AssignIDs: true, LengthBias: 0.15})
	docs := make([]*mix.Document, 8)
	for i := range docs {
		docs[i] = g.Document()
	}
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view, err := mix.Eval(viewDef, docs[i%len(docs)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mix.EvalElements(q, view); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("composed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mix.EvalElements(composed, docs[i%len(docs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDataguidePruning compares TSIMMIS-style path-query evaluation
// with and without the dataguide satisfiability pre-check ([GW97]) — the
// schemaless world's analogue of E10's DTD-based simplification.
func BenchmarkDataguidePruning(b *testing.B) {
	src := mix.MustDTD(d1Bench)
	// A large instance: pruning pays off in proportion to the data the
	// walk would touch (on tiny documents the guide check costs more than
	// the walk — the benchmark shows the crossover is quickly passed).
	g, _ := mix.NewGenerator(src, mix.GenOptions{Seed: 21, LengthBias: 0.02})
	root := g.Document().Root
	for i := 0; i < 6; i++ { // widen the department substantially
		more := g.Document().Root
		root.Children = append(root.Children, more.Children...)
	}
	dg, err := mix.BuildDataGuide(root)
	if err != nil {
		b.Fatal(err)
	}
	dead, err := mix.ParsePath("department.professor.course")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("no-guide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := dead.Eval(root); len(got) != 0 {
				b.Fatal("dead path matched")
			}
		}
	})
	b.Run("guide-pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := dead.EvalWithGuide(root, dg); got != nil {
				b.Fatal("dead path matched")
			}
		}
	})
}
