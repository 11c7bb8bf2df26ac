package infer

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/regex"
)

// refinementIsValidBySpec is the definitional (slow) decision: refine
// sequentially and compare the image language against the original. Used
// only to cross-check the occurrence-counting fast path.
func refinementIsValidBySpec(model regex.Expr, sels []childSel) bool {
	t := model
	for _, cs := range sels {
		t = regex.Simplify(Refine(t, cs.sel))
		if regex.IsFail(t) {
			return false
		}
	}
	return must(automata.Contains(model, regex.Image(t), nil))
}

func mkSel(tag int, bases ...string) childSel {
	cs := childSel{sel: map[string]regex.Name{}, class: Valid}
	for _, b := range bases {
		cs.sel[b] = regex.T(b, tag)
	}
	return cs
}

func TestRefinementIsValidBasics(t *testing.T) {
	cases := []struct {
		model string
		sels  []childSel
		want  bool
	}{
		{"a, b", []childSel{mkSel(1, "a")}, true},
		{"a?, b", []childSel{mkSel(1, "a")}, false},
		{"a+", []childSel{mkSel(1, "a")}, true},
		{"a*", []childSel{mkSel(1, "a")}, false},
		{"a, a", []childSel{mkSel(1, "a"), mkSel(2, "a")}, true},
		{"a+", []childSel{mkSel(1, "a"), mkSel(2, "a")}, false},
		{"a, a+", []childSel{mkSel(1, "a"), mkSel(2, "a")}, true},
		{"(a|b), c", []childSel{mkSel(1, "a", "b")}, true},
		{"(a|b), c", []childSel{mkSel(1, "a")}, false},
		{"a, b", []childSel{mkSel(1, "a"), mkSel(2, "b")}, true},
		{"(a, b) | (b, a)", []childSel{mkSel(1, "a"), mkSel(2, "b")}, true},
		// Overlapping, non-identical groups take the fallback path.
		{"a, b", []childSel{mkSel(1, "a", "b"), mkSel(2, "b")}, true},
		{"a, b?", []childSel{mkSel(1, "a", "b"), mkSel(2, "b")}, false},
	}
	for _, c := range cases {
		got := refinementIsValid(regex.MustParse(c.model), c.sels, nil)
		if got != c.want {
			t.Errorf("refinementIsValid(%s, %v) = %v, want %v", c.model, c.sels, got, c.want)
		}
		spec := refinementIsValidBySpec(regex.MustParse(c.model), c.sels)
		if got != spec {
			t.Errorf("fast path disagrees with spec on (%s, %v): fast=%v spec=%v", c.model, c.sels, got, spec)
		}
	}
}

// TestRefinementIsValidDifferential cross-checks the occurrence-counting
// fast path against the definitional containment on random small models.
func TestRefinementIsValidDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	letters := []string{"a", "b", "c"}
	randModel := func(depth int) regex.Expr {
		var rec func(d int) regex.Expr
		rec = func(d int) regex.Expr {
			if d <= 0 {
				return regex.Nm(letters[r.Intn(len(letters))])
			}
			switch r.Intn(6) {
			case 0:
				return regex.Cat(rec(d-1), rec(d-1))
			case 1:
				return regex.Or(rec(d-1), rec(d-1))
			case 2:
				return regex.Rep(rec(d - 1))
			case 3:
				return regex.Rep1(rec(d - 1))
			case 4:
				return regex.Maybe(rec(d - 1))
			default:
				return regex.Nm(letters[r.Intn(len(letters))])
			}
		}
		return rec(depth)
	}
	for round := 0; round < 400; round++ {
		model := randModel(3)
		// Identical-or-disjoint groups only (the fast path's domain):
		// pick a group of 1-2 letters, repeated 1-2 times, plus maybe a
		// disjoint singleton group.
		var sels []childSel
		tag := 1
		g1 := []string{"a"}
		if r.Intn(2) == 0 {
			g1 = []string{"a", "b"}
		}
		for i := 0; i < 1+r.Intn(2); i++ {
			sels = append(sels, mkSel(tag, g1...))
			tag++
		}
		if len(g1) == 1 && r.Intn(2) == 0 {
			sels = append(sels, mkSel(tag, "c"))
			tag++
		}
		fast := refinementIsValid(model, sels, nil)
		spec := refinementIsValidBySpec(model, sels)
		if fast != spec {
			t.Fatalf("round %d: fast=%v spec=%v for model %s, sels %v", round, fast, spec, model, sels)
		}
	}
}

func TestAtLeastOccurrences(t *testing.T) {
	cases := []struct {
		model string
		bases []string
		k     int
		want  bool
	}{
		{"a, a", []string{"a"}, 2, true},
		{"a, a", []string{"a"}, 3, false},
		{"a+", []string{"a"}, 1, true},
		{"a+", []string{"a"}, 2, false},
		{"(a|b)+, (a|b)", []string{"a", "b"}, 2, true},
		{"b*", []string{"a"}, 0, true},
		{"b*", []string{"a"}, 1, false},
	}
	for _, c := range cases {
		bases := map[string]bool{}
		for _, b := range c.bases {
			bases[b] = true
		}
		got, err := atLeastOccurrences(regex.MustParse(c.model), bases, c.k, nil)
		if err != nil {
			t.Fatalf("atLeastOccurrences(%s, %v, %d): %v", c.model, c.bases, c.k, err)
		}
		if got != c.want {
			t.Errorf("atLeastOccurrences(%s, %v, %d) = %v, want %v", c.model, c.bases, c.k, got, c.want)
		}
	}
}
