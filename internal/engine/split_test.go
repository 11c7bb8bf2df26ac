package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xmlmodel"
)

// TestEvalSplitAgreesWithPerRunEval: over the documents and queries of the
// reference differential, with the root's children cut into random runs
// (empty ones included), EvalSplit's picks are EvalElements' over the whole
// document, every cut point separates exactly the picks below one run's
// children from the next run's, and — for a query that takes the root's
// children one at a time — the picks of a run are what EvalElements picks
// from a document holding that run alone.
func TestEvalSplitAgreesWithPerRunEval(t *testing.T) {
	r := rand.New(rand.NewSource(1999))
	alone, nonEmpty := 0, 0
	for i := 0; i < 3000; i++ {
		q := randomQueryForRef(r)
		if q == nil {
			continue
		}
		root := randomDocForRef(r, 3)
		p, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		ends := make([]int, 1+r.Intn(4))
		for j := range ends {
			ends[j] = r.Intn(len(root.Children) + 1)
		}
		slices.Sort(ends)
		ends[len(ends)-1] = len(root.Children)

		picks, cuts := p.EvalSplit(root, ends)
		whole, err := p.EvalElements(&xmlmodel.Document{Root: root})
		if err != nil || !slices.Equal(picks, whole) {
			t.Fatalf("round %d: split walk picks %d elements, whole walk %d (%v)\n%s", i, len(picks), len(whole), err, q)
		}
		if len(cuts) != len(ends) || !slices.IsSorted(cuts) || cuts[len(cuts)-1] != len(picks) {
			t.Fatalf("round %d: cuts %v for ends %v and %d picks", i, cuts, ends, len(picks))
		}
		rootChildrenAlone := len(q.Root.Children) == 1 && q.Root.Var != q.PickVar
		lo, from := 0, 0
		for j, hi := range cuts {
			run := root.Children[from:ends[j]]
			below := map[*xmlmodel.Element]bool{}
			for _, k := range run {
				k.Walk(func(e *xmlmodel.Element) bool { below[e] = true; return true })
			}
			for _, e := range picks[lo:hi] {
				if !below[e] {
					t.Fatalf("round %d: run %d (children %d..%d) is given a pick that is not below it\n%s", i, j, from, ends[j], q)
				}
			}
			if rootChildrenAlone {
				part, err := p.EvalElements(&xmlmodel.Document{Root: &xmlmodel.Element{Name: root.Name, Children: run}})
				if err != nil || !slices.Equal(part, picks[lo:hi]) {
					t.Fatalf("round %d: run %d alone picks %d elements, the split walk gave it %d (%v)\n%s\ndoc: %s",
						i, j, len(part), hi-lo, err, q, xmlmodel.MarshalElement(root, -1))
				}
			}
			lo, from = hi, ends[j]
		}
		if rootChildrenAlone && len(picks) > 0 {
			nonEmpty++
		}
		if rootChildrenAlone {
			alone++
		}
	}
	if alone < 500 || nonEmpty < 100 {
		t.Errorf("vacuous: %d queries take the root's children one at a time, %d of them pick something", alone, nonEmpty)
	}
}
