package engine

import (
	"math"
	"testing"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Eval's result is a copy: a part slot built from it never aliases the
// source document it was evaluated over. The copy is one Clone of the
// whole result, so it costs the same few allocations however many
// elements were picked.

var allEntries = xmas.MustParse(`r = SELECT E WHERE <v> E:<entry/> </v>`)

func TestEvalSharesNoElementWithItsInput(t *testing.T) {
	doc := entriesDoc(280) // about 16 KiB serialized
	in := map[*xmlmodel.Element]bool{}
	doc.Root.Walk(func(e *xmlmodel.Element) bool { in[e] = true; return true })
	for _, q := range []*xmas.Query{
		allEntries,
		xmas.MustParse(`r = SELECT N WHERE <v> <entry> N:<name/> </entry> </v>`),
		xmas.MustParse(`r = SELECT V WHERE V:<v/>`), // the pick is the input's root
	} {
		out, err := Eval(q, doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Root.Children) == 0 {
			t.Fatalf("%s picked nothing", q)
		}
		out.Root.Walk(func(e *xmlmodel.Element) bool {
			if in[e] {
				t.Errorf("%s: the result holds <%s> of the input document itself", q, e.Name)
				return false
			}
			return true
		})
		picks, err := EvalElements(q, doc)
		if err != nil {
			t.Fatal(err)
		}
		want := &xmlmodel.Element{Name: "r", Children: picks}
		if !out.Root.Equal(want) {
			t.Errorf("%s: the result is not a copy of the picks", q)
		}
	}
}

// The copy is the view document and Clone's two arrays: three allocations
// on top of finding the picks, whatever their number. Finding them is
// EvalElements' (Prepare, and the pick list it hands out; the walk's
// scratch is pooled), held by the ceiling only. Each count is the cheapest
// of ten single calls, as in TestEvalElementsAllocations.
func TestEvalAllocations(t *testing.T) {
	cheapestAllocs := func(f func()) float64 {
		least := math.MaxFloat64
		for i := 0; i < 10; i++ {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	measure := func(n int) (eval, find float64) {
		doc := entriesDoc(n)
		eval = cheapestAllocs(func() {
			if _, err := Eval(allEntries, doc); err != nil {
				t.Fatal(err)
			}
		})
		find = cheapestAllocs(func() {
			if _, err := EvalElements(allEntries, doc); err != nil {
				t.Fatal(err)
			}
		})
		return eval, find
	}
	small, smallFind := measure(280) // about 16 KiB serialized
	large, largeFind := measure(560)
	t.Logf("280 entries: Eval %v, EvalElements %v; 560: %v, %v", small, smallFind, large, largeFind)
	if small-smallFind > 3 || large-largeFind > 3 {
		t.Errorf("copying the picks costs %v allocs for 280 entries and %v for 560, want ≤ 3", small-smallFind, large-largeFind)
	}
	if large-small >= 4 {
		t.Errorf("Eval picking 560 entries costs %v allocs more than picking 280 (%v, %v)", large-small, large, small)
	}
	// Measured 8.
	if small > 10 {
		t.Errorf("Eval picking 280 entries: %v allocs, want ≤ 10", small)
	}
}
