package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/oracle"
	"repro/internal/tightness"
	"repro/internal/xmlmodel"
)

// The differential test of the anchored walk. Queries come from
// internal/oracle's target-driven generator, so that they hit what the
// anchoring treats specially, and the engine's picks are compared with the
// brute-force reference's as element identities in order.

// checkAgainstReference runs n generated queries over doc.
func checkAgainstReference(t *testing.T, r *rand.Rand, cov *oracle.Coverage, nonEmpty *int, label string, doc *xmlmodel.Document, n int) {
	t.Helper()
	all := oracle.Chains(doc.Root)
	g := &oracle.Gen{R: r, Names: oracle.NamesOf(all)}
	for i := 0; i < n; i++ {
		q, features := g.Query(all[r.Intn(len(all))])
		cov.Add(features)
		if q == nil {
			continue
		}
		got, err := engine.EvalElements(q, doc)
		if err != nil {
			t.Fatalf("%s query %d: %v\n%s", label, i, err, q)
		}
		want := engine.ReferenceEval(q, doc)
		same := len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j] == want[j]
		}
		if !same {
			t.Fatalf("%s query %d: engine picks %v, reference picks %v\nquery:\n%s\ndoc: %s",
				label, i, idsOf(got), idsOf(want), q, xmlmodel.MarshalElement(doc.Root, -1))
		}
		if len(got) > 0 {
			*nonEmpty++
		}
	}
}

func idsOf(es []*xmlmodel.Element) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name + "#" + e.ID
	}
	return out
}

// familyDocs builds small documents of one load family: a few entries (and
// auctions, where the family has them) per seed.
func familyDocs(t *testing.T, f load.Family, seeds int) []*xmlmodel.Document {
	t.Helper()
	var docs []*xmlmodel.Document
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src, err := load.BuildSource("site", load.SourceOptions{
			Schema: load.SchemaOptions{Seed: seed, Family: f, Depth: 3, Width: 3},
			Gen:    gen.Options{AssignIDs: true, MaxDepth: 6, LengthBias: 0.5, TextPool: []string{"x", "y"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The oracle is exponential: keep the first entries and auctions only.
		root := &xmlmodel.Element{Name: src.Doc.Root.Name, ID: src.Doc.Root.ID}
		kept := map[string]int{}
		for _, k := range src.Doc.Root.Children {
			if kept[k.Name] < 3 && len(oracle.Chains(k)) <= 25 {
				kept[k.Name]++
				root.Children = append(root.Children, k)
			}
		}
		docs = append(docs, &xmlmodel.Document{DocType: root.Name, Root: root})
	}
	return docs
}

// tinyDocs returns every document of up to maxNodes elements named a or b:
// the structural classes of the two-name recursive DTD under either root.
func tinyDocs(t *testing.T, maxNodes int) []*xmlmodel.Document {
	var docs []*xmlmodel.Document
	for _, root := range []string{"a", "b"} {
		d, err := dtd.Parse(`<!DOCTYPE ` + root + ` [ <!ELEMENT a (a | b)*> <!ELEMENT b (a | b)*> ]>`)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tightness.EnumerateClasses(d, maxNodes, 1<<20) {
			docs = append(docs, &xmlmodel.Document{Root: e})
		}
	}
	return docs
}

func TestAnchoredWalkAgreesWithReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var cov oracle.Coverage
	nonEmpty := 0
	for _, f := range load.Families() {
		for i, doc := range familyDocs(t, f, 8) {
			checkAgainstReference(t, r, &cov, &nonEmpty, fmt.Sprintf("%s/%d", f, i), doc, 150)
		}
	}
	tiny := tinyDocs(t, 5)
	for i, doc := range tiny {
		checkAgainstReference(t, r, &cov, &nonEmpty, fmt.Sprintf("tiny/%d", i), doc, 12)
	}
	t.Logf("%d tiny documents; coverage %v, %d non-empty answers", len(tiny), cov, nonEmpty)
	for f, n := range cov {
		if n < 200 {
			t.Errorf("generator too weak: only %d queries with a %s", n, oracle.Feature(f))
		}
	}
	if nonEmpty < 200 {
		t.Errorf("generator too weak: only %d queries with a non-empty answer", nonEmpty)
	}
}
