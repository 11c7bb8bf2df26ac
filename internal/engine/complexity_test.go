package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The three query shapes of the benchmark's read pool (benchmark/
// fixtures.go): every entry, entries selected by a text child, entries
// filtered by a qualifier. The fourth, which no benchmark workload has,
// measures the anchored embedding that only a "!=" query runs: every entry
// beside which another entry named t3 exists — all of them.
var poolShapes = []struct{ name, query string }{
	{"plain", `r = SELECT E WHERE <v> E:<entry/> </v>`},
	{"text", `r = SELECT E WHERE <v> E:<entry><name>t3</name></entry> </v>`},
	{"qualifier", `r = SELECT E WHERE <v> E:<entry>[<price/>]</entry> </v>`},
	{"neq", `r = SELECT E WHERE <v> <entry id=F><name>t3</name></entry> E:<entry/> </v> AND E != F`},
}

var ladder = []int{250, 500, 1000, 2000}

// entriesDoc is a view document of n entries: a name from a pool of eight
// texts, two filler leaves, and a price on every third entry.
func entriesDoc(n int) *xmlmodel.Document {
	root := xmlmodel.NewElement("v")
	for i := 0; i < n; i++ {
		e := xmlmodel.NewElement("entry",
			xmlmodel.NewText("name", fmt.Sprintf("t%d", i%8)),
			xmlmodel.NewText("kind", "k"),
			xmlmodel.NewText("note", "n"))
		if i%3 == 0 {
			e.Children = append(e.Children, xmlmodel.NewText("price", "9"))
		}
		root.Children = append(root.Children, e)
	}
	return &xmlmodel.Document{DocType: "v", Root: root}
}

// wantPicks is how many entries of entriesDoc(n) each pool shape selects.
func wantPicks(shape string, n int) int {
	switch shape {
	case "text":
		return (n + 4) / 8 // i%8 == 3
	case "qualifier":
		return (n + 2) / 3 // i%3 == 0
	}
	return n
}

// TestVisitsGrowLinearly asserts the engine's complexity on logic, not on
// wall-clock time: doubling the view's entries may at most (a little more
// than) double the (condition, element) pairs the matcher examines.
func TestVisitsGrowLinearly(t *testing.T) {
	for _, s := range poolShapes {
		q := xmas.MustParse(s.query)
		prev := 0
		for _, n := range ladder {
			m, err := runQuery(q, entriesDoc(n))
			if err != nil {
				t.Fatal(err)
			}
			if len(m.picks) != wantPicks(s.name, n) {
				t.Fatalf("%s n=%d: %d picks, want %d", s.name, n, len(m.picks), wantPicks(s.name, n))
			}
			if prev > 0 && float64(m.visits) > 2.2*float64(prev) {
				t.Errorf("%s: %d visits at n=%d, %d at n=%d: more than 2.2x per doubling", s.name, m.visits, n, prev, n/2)
			}
			prev = m.visits
		}
	}
}

// TestVisitsWithAncestorSideConditions covers what the anchoring must not
// make quadratic: side conditions hanging off the pick's parent are matched
// once, and re-matched only for the children that matching claimed — also
// when the only witness is the last child, and when there is none.
func TestVisitsWithAncestorSideConditions(t *testing.T) {
	for _, query := range []string{
		`r = SELECT E WHERE <v> <entry><name>last</name></entry> E:<entry/> </v>`,
		`r = SELECT E WHERE <v> [<entry><name>last</name></entry>] <trailer/> E:<entry/> </v>`,
		`r = SELECT E WHERE <v> <entry><name>nowhere</name></entry> E:<entry/> </v>`,
	} {
		q := xmas.MustParse(query)
		prev := 0
		for _, n := range ladder {
			doc := entriesDoc(n)
			doc.Root.Children[n-1].Children[0].Text = "last"
			doc.Root.Children = append(doc.Root.Children, xmlmodel.NewText("trailer", "z"))
			m, err := runQuery(q, doc)
			if err != nil {
				t.Fatal(err)
			}
			if prev > 0 && float64(m.visits) > 2.2*float64(prev) {
				t.Errorf("%s: %d visits at n=%d, %d at n=%d", query, m.visits, n, prev, n/2)
			}
			prev = m.visits
		}
	}
}

// TestEvalElementsAllocations: the per-embedding garbage is gone, and the
// walk's scratch — the matcher's stacks, its memo, the pick list as it grows
// — comes from a pool. What is left is query validation (Prepare) and the
// pick list handed out, sized once; a prepared query's evaluation is that
// one allocation whatever the document's size. Each count is the cheapest
// of ten single calls: a call whose matcher the pool lost — to a collection,
// or to one of the Puts a -race build drops at random — allocates it again,
// and that is not the evaluation's to answer for.
func TestEvalElementsAllocations(t *testing.T) {
	cheapestAllocs := func(f func()) float64 {
		least := math.MaxFloat64
		for i := 0; i < 10; i++ {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	for _, n := range []int{280, 1000} {
		doc := entriesDoc(n)
		for _, s := range poolShapes {
			q := xmas.MustParse(s.query)
			p, err := Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			eval := cheapestAllocs(func() {
				if _, err := EvalElements(q, doc); err != nil {
					t.Fatal(err)
				}
			})
			prepared := cheapestAllocs(func() {
				if _, err := p.EvalElements(doc); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s at n=%d: EvalElements %v allocs, Prepared.EvalElements %v", s.name, n, eval, prepared)
			// Measured 5, and 9 for "!=" (its deep marks).
			if eval > 11 {
				t.Errorf("%s: %.0f allocations per EvalElements at n=%d, want <= 11", s.name, eval, n)
			}
			if prepared > 2 {
				t.Errorf("%s: %.0f allocations per Prepared.EvalElements at n=%d, want <= 2", s.name, prepared, n)
			}
		}
	}
}

var benchPicks []*xmlmodel.Element

// BenchmarkEvalElements is the engine layer's own benchmark: the pool
// shapes over the size ladder. ns/op should double with the entries.
func BenchmarkEvalElements(b *testing.B) {
	for _, s := range poolShapes {
		q := xmas.MustParse(s.query)
		for _, n := range ladder {
			doc := entriesDoc(n)
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchPicks, _ = EvalElements(q, doc)
				}
			})
		}
	}
}

// runQuery is one evaluation with its matcher (for the visit count).
func runQuery(q *xmas.Query, doc *xmlmodel.Document) (*matcher, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.run(doc.Root, nil), nil
}
