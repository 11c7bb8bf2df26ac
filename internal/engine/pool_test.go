package engine

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The matcher pool hands out nothing: the picks and cuts of one evaluation
// stay what they were while many more evaluations — of other queries, over
// other documents, on several goroutines — run on the pooled scratch, and
// each is exactly sized, so an append to one cannot write into another's.
func TestEvalPoolAliasesNothing(t *testing.T) {
	doc := entriesDoc(280)
	p, err := Prepare(xmas.MustParse(poolShapes[1].query))
	if err != nil {
		t.Fatal(err)
	}
	picks, cuts := p.EvalSplit(doc.Root, []int{100, 200, 280})
	elems, err := p.EvalElements(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) == 0 || len(cuts) != 3 || !slices.Equal(picks, elems) {
		t.Fatalf("%d picks, %d cuts, EvalElements' %d the same: %v", len(picks), len(cuts), len(elems), slices.Equal(picks, elems))
	}
	for name, c := range map[string][2]int{"picks": {len(picks), cap(picks)}, "cuts": {len(cuts), cap(cuts)}, "EvalElements' picks": {len(elems), cap(elems)}} {
		if c[0] != c[1] {
			t.Errorf("%s: len %d, cap %d", name, c[0], c[1])
		}
	}
	wantPicks, wantCuts, wantElems := slices.Clone(picks), slices.Clone(cuts), slices.Clone(elems)

	docs := []*xmlmodel.Document{entriesDoc(30), entriesDoc(90), entriesDoc(150)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q, err := Prepare(xmas.MustParse(poolShapes[(g+i)%len(poolShapes)].query))
				if err != nil {
					t.Error(err)
					return
				}
				other := docs[(g+i)%len(docs)]
				if _, err := q.EvalElements(other); err != nil {
					t.Error(err)
					return
				}
				q.EvalSplit(other.Root, []int{10, 20, len(other.Root.Children)})
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(picks, wantPicks) || !slices.Equal(cuts, wantCuts) || !slices.Equal(elems, wantElems) {
		t.Errorf("an evaluation's results changed while others ran: picks %v, cuts %v (%v, want %v), EvalElements' %v",
			slices.Equal(picks, wantPicks), slices.Equal(cuts, wantCuts), cuts, wantCuts, slices.Equal(elems, wantElems))
	}
}
