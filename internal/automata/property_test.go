package automata

import (
	"math/rand"
	"testing"

	"repro/internal/regex"
)

// This file is the differential-testing battery for the compiled-automata
// path: every language operation the cache serves (Match, Contains,
// Equivalent, IsEmpty, Witness) is cross-checked on thousands of random
// expressions against the Brzozowski-derivative matcher in
// internal/regex/derivative.go — a completely independent implementation
// that never builds an automaton. Because MatchExpr & co. run through the
// default compiler, each check also exercises Simplify-canonicalized cache
// keys, minimization, and cache sharing: a bug in any of those layers
// shows up as a divergence from the derivative oracle.

// propertyCases is the per-operation case count (the acceptance bar is
// ≥1000 random cases per operation).
const propertyCases = 1200

var propertyBases = []string{"a", "b", "c"}

func randName(r *rand.Rand) regex.Name {
	n := regex.Name{Base: propertyBases[r.Intn(len(propertyBases))]}
	if r.Intn(6) == 0 {
		n.Tag = 1 + r.Intn(2) // occasional tagged (specialized) names
	}
	return n
}

// randExpr builds raw AST nodes — not the normalizing smart constructors —
// so the generated population includes exactly the degenerate shapes the
// constructors would erase: empty alternations (= Fail), empty and
// single-item concatenations, duplicate names, nested stars, and Fail/Empty
// leaves buried deep in operators.
func randExpr(r *rand.Rand, depth int) regex.Expr {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return regex.Empty{}
		case 1:
			return regex.Fail{}
		default:
			return regex.Atom{Name: randName(r)}
		}
	}
	switch r.Intn(10) {
	case 0:
		return regex.Atom{Name: randName(r)}
	case 1:
		return regex.Empty{}
	case 2:
		return regex.Fail{}
	case 3, 4:
		items := make([]regex.Expr, r.Intn(4))
		for i := range items {
			items[i] = randExpr(r, depth-1)
		}
		return regex.Concat{Items: items}
	case 5, 6:
		items := make([]regex.Expr, r.Intn(4)) // 0 items = empty alternation
		for i := range items {
			items[i] = randExpr(r, depth-1)
		}
		return regex.Alt{Items: items}
	case 7:
		return regex.Star{Sub: randExpr(r, depth-1)}
	case 8:
		return regex.Plus{Sub: randExpr(r, depth-1)}
	default:
		return regex.Opt{Sub: randExpr(r, depth-1)}
	}
}

// randWord draws a word over the test alphabet plus a name foreign to every
// generated expression (rejecting foreign symbols is part of the language).
func randWord(r *rand.Rand) []regex.Name {
	w := make([]regex.Name, r.Intn(7))
	for i := range w {
		if r.Intn(8) == 0 {
			w[i] = regex.Name{Base: "zz"}
		} else {
			w[i] = randName(r)
		}
	}
	return w
}

// sampleWords mixes random words with words actually in L(e) (via
// Enumerate), so positive matches are well represented even for sparse
// languages.
func sampleWords(r *rand.Rand, e regex.Expr) [][]regex.Name {
	words := [][]regex.Name{nil, {}}
	for i := 0; i < 4; i++ {
		words = append(words, randWord(r))
	}
	words = append(words, regex.Enumerate(e, 4, 3)...)
	return words
}

// TestPropertyMatchAgainstDerivative: the cached, minimized, simplified DFA
// and the derivative matcher must agree on membership for every word.
func TestPropertyMatchAgainstDerivative(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < propertyCases; i++ {
		e := randExpr(r, 3)
		for _, w := range sampleWords(r, e) {
			got := must(MatchExpr(e, w, nil))
			want := regex.MatchDeriv(e, w)
			if got != want {
				t.Fatalf("case %d: MatchExpr(%s, %v) = %v, derivative says %v", i, e, w, got, want)
			}
		}
	}
}

// TestPropertyContainsWitnessAgainstDerivative: when Contains(a, b) holds,
// no enumerated word of a may be rejected by b (checked with the
// derivative matcher); when it fails, the produced Witness must itself be
// a word of a and a non-word of b under the derivative matcher.
func TestPropertyContainsWitnessAgainstDerivative(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < propertyCases; i++ {
		a, b := randExpr(r, 3), randExpr(r, 3)
		if must(Contains(a, b, nil)) {
			for _, w := range regex.Enumerate(a, 4, 5) {
				if !regex.MatchDeriv(b, w) {
					t.Fatalf("case %d: Contains(%s, %s) but derivative rejects %v in the superset", i, a, b, w)
				}
			}
		} else {
			w := must(Witness(a, b, nil))
			if w == nil {
				t.Fatalf("case %d: !Contains(%s, %s) but Witness is nil", i, a, b)
			}
			if !regex.MatchDeriv(a, w) {
				t.Fatalf("case %d: witness %v of Contains(%s, %s) not in the left language", i, w, a, b)
			}
			if regex.MatchDeriv(b, w) {
				t.Fatalf("case %d: witness %v of Contains(%s, %s) accepted by the right language", i, w, a, b)
			}
		}
	}
}

// TestPropertyEquivalentConsistent: Equivalent must agree with mutual
// containment, and hold between an expression and its Simplify image (the
// cache's canonicalization step is only sound if it does).
func TestPropertyEquivalentConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for i := 0; i < propertyCases; i++ {
		a, b := randExpr(r, 3), randExpr(r, 3)
		if got, want := must(Equivalent(a, b, nil)), must(Contains(a, b, nil)) && must(Contains(b, a, nil)); got != want {
			t.Fatalf("case %d: Equivalent(%s, %s) = %v, mutual containment says %v", i, a, b, got, want)
		}
		if !must(Equivalent(a, regex.Simplify(a, nil), nil)) {
			t.Fatalf("case %d: Simplify changed the language of %s (got %s)", i, a, regex.Simplify(a, nil))
		}
	}
}

// TestPropertyReducePreservesLanguage: Reduce may rewrite the expression
// arbitrarily, but its language must be untouched — checked both through
// the automata path (Equivalent) and independently word-by-word through
// the derivative matcher.
func TestPropertyReducePreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for i := 0; i < propertyCases; i++ {
		e := randExpr(r, 3)
		red := Reduce(e, nil)
		if !must(Equivalent(e, red, nil)) {
			t.Fatalf("case %d: Reduce changed the language: %s -> %s", i, e, red)
		}
		for _, w := range sampleWords(r, e) {
			if regex.MatchDeriv(e, w) != regex.MatchDeriv(red, w) {
				t.Fatalf("case %d: Reduce(%s) = %s diverges on %v", i, e, red, w)
			}
		}
	}
}

// TestPropertyIsEmptyAgainstWitness: IsEmpty must agree with "no witness
// against the empty language" and with the enumerator finding no words.
func TestPropertyIsEmptyAgainstWitness(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for i := 0; i < propertyCases; i++ {
		e := randExpr(r, 3)
		empty := must(IsEmpty(e, nil))
		if w := must(Witness(e, regex.Bot(), nil)); (w == nil) != empty {
			t.Fatalf("case %d: IsEmpty(%s) = %v but Witness against ∅ = %v", i, e, empty, w)
		}
		if empty && len(regex.Enumerate(e, 4, 1)) != 0 {
			t.Fatalf("case %d: IsEmpty(%s) but Enumerate finds a word", i, e)
		}
	}
}

// TestPropertyCanonicalKeySharesDFA: expressions with equal simplified
// forms must share one cached DFA object (pointer equality) — the whole
// point of canonical keying.
func TestPropertyCanonicalKeySharesDFA(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	shared := 0
	for i := 0; i < propertyCases; i++ {
		e := randExpr(r, 3)
		// A syntactic variant with the same simplified form: wrap in a
		// single-item concat (the raw node, which Simplify unwraps).
		variant := regex.Concat{Items: []regex.Expr{e}}
		if regex.Key(regex.Simplify(e, nil)) != regex.Key(regex.Simplify(variant, nil)) {
			continue // simplifier normalizes them apart; not this test's concern
		}
		shared++
		if must(Compiled(e, nil)) != must(Compiled(variant, nil)) {
			t.Fatalf("case %d: %s and its single-item-concat wrapper compiled to distinct DFAs", i, e)
		}
	}
	if shared < propertyCases/2 {
		t.Fatalf("only %d/%d variants shared a canonical form; generator or simplifier drifted", shared, propertyCases)
	}
}
