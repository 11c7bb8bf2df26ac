package automata

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/regex"
)

func mp(s string) regex.Expr { return regex.MustParse(s) }

// must unwraps an answer asked with a nil budget, which cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestMatchBasics(t *testing.T) {
	cases := []struct {
		re    string
		word  string
		match bool
	}{
		{"a, (b|c)*", "a", true},
		{"a, (b|c)*", "a b c b", true},
		{"a, (b|c)*", "", false},
		{"a, (b|c)*", "b", false},
		{"name, professor+, gradStudent+, course*", "name professor gradStudent", true},
		{"name, professor+, gradStudent+, course*", "name professor professor gradStudent course course", true},
		{"name, professor+, gradStudent+, course*", "name gradStudent", false},
		{"EMPTY", "", true},
		{"EMPTY", "a", false},
		{"FAIL", "", false},
		{"a?", "", true},
		{"a?", "a", true},
		{"a?", "a a", false},
		{"(a, b)+", "a b a b", true},
		{"(a, b)+", "a b a", false},
		{"publication^1, publication*", "publication^1 publication", true},
		{"publication^1, publication*", "publication publication^1", false},
	}
	for _, c := range cases {
		w, err := regex.ParseWord(c.word)
		if err != nil {
			t.Fatalf("word %q: %v", c.word, err)
		}
		d := must(FromExpr(mp(c.re), nil))
		if got := d.Match(w); got != c.match {
			t.Errorf("Match(%s, %q) = %v, want %v", c.re, c.word, got, c.match)
		}
	}
}

func TestMatchOutOfAlphabet(t *testing.T) {
	d := must(FromExpr(mp("a*"), nil))
	w, _ := regex.ParseWord("a z a")
	if d.Match(w) {
		t.Error("word with foreign name must not match")
	}
}

func TestIsEmpty(t *testing.T) {
	cases := []struct {
		re   string
		want bool
	}{
		{"FAIL", true}, {"EMPTY", false}, {"a", false}, {"FAIL*", false},
		{"a, FAIL", true}, {"FAIL | b", false}, {"(FAIL)+", true},
	}
	for _, c := range cases {
		if got := must(IsEmpty(mp(c.re), nil)); got != c.want {
			t.Errorf("IsEmpty(%s) = %v, want %v", c.re, got, c.want)
		}
	}
}

func TestContainment(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		// Example 3.2: disjunction removal is a tightening.
		{"title, author+, journal", "title, author+, (journal|conference)", true},
		{"title, author+, (journal|conference)", "title, author+, journal", false},
		// Star refinement (Example 3.1): forcing occurrences tightens.
		{"name, (journal|conference)*, journal, (journal|conference)*", "name, (journal|conference)*", true},
		{"name, (journal|conference)*", "name, (journal|conference)*, journal, (journal|conference)*", false},
		{"a+", "a*", true},
		{"a*", "a+", false},
		{"a", "a?", true},
		{"FAIL", "a", true},
		{"EMPTY", "a*", true},
		{"a*", "a*", true},
		// T6 ⊇ T7 from Example 3.5: (p|c)* vs p,(p|c)*,c plus base cases.
		{"(prolog, ((prolog|conclusion)*, conclusion)?)?", "(prolog|conclusion)*", true},
	}
	for _, c := range cases {
		if got := must(Contains(mp(c.a), mp(c.b), nil)); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestWitness(t *testing.T) {
	w := must(Witness(mp("a*"), mp("a+"), nil))
	if w == nil || len(w) != 0 {
		t.Errorf("Witness(a*, a+) = %v, want empty word", w)
	}
	w = must(Witness(mp("a, b | a, c"), mp("a, b"), nil))
	if w == nil || len(w) != 2 || w[1].Base != "c" {
		t.Errorf("Witness = %v, want [a c]", w)
	}
	if w := must(Witness(mp("a"), mp("a|b"), nil)); w != nil {
		t.Errorf("Witness of contained languages = %v, want nil", w)
	}
}

func TestEquivalent(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"p*, p, p*, p, p*", "p, p, p*", true},
		{"p*, p, p*, p, p*", "p, p+", true},
		{"a?, a*", "a*", true},
		{"(a|b)*", "(a*, b*)*", true},
		{"a, (b|c)", "(a, b) | (a, c)", true},
		{"a+", "a*", false},
		{"a, b", "b, a", false},
	}
	for _, c := range cases {
		if got := must(Equivalent(mp(c.a), mp(c.b), nil)); got != c.want {
			t.Errorf("Equivalent(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMinimize(t *testing.T) {
	// (a|b)* has a 1-state minimal DFA; a long unfolded form must reduce.
	d := must(FromExpr(mp("(a|b)*, (a|b)*, (a|b)*"), nil)).Minimize()
	if d.NumStates() != 1 {
		t.Errorf("minimal states = %d, want 1", d.NumStates())
	}
	d2 := must(FromExpr(mp("a, a | a, b"), nil)).Minimize()
	// States: start, after-a, accept, dead = 4.
	if d2.NumStates() != 4 {
		t.Errorf("minimal states = %d, want 4", d2.NumStates())
	}
	// Minimization preserves the language.
	for _, word := range []string{"", "a", "a a", "a b", "b", "a a a"} {
		w, _ := regex.ParseWord(word)
		if must(FromExpr(mp("a, a | a, b"), nil)).Match(w) != d2.Match(w) {
			t.Errorf("Minimize changed acceptance of %q", word)
		}
	}
}

func TestRestrictTo(t *testing.T) {
	d := must(FromExpr(mp("a, (b | c)"), nil))
	r := d.RestrictTo(func(n regex.Name) bool { return n.Base != "c" })
	ab, _ := regex.ParseWord("a b")
	ac, _ := regex.ParseWord("a c")
	if !r.Match(ab) {
		t.Error("a b should survive restriction")
	}
	if r.Match(ac) {
		t.Error("a c must be dead after restricting away c")
	}
}

func TestDistToAccept(t *testing.T) {
	d := must(FromExpr(mp("a, b, c"), nil))
	dist := d.DistToAccept()
	if dist[d.Start] != 3 {
		t.Errorf("dist from start = %d, want 3", dist[d.Start])
	}
	dead := must(FromExpr(mp("FAIL"), nil))
	for _, v := range dead.DistToAccept() {
		if v != -1 {
			t.Errorf("FAIL automaton must have no accepting distance, got %d", v)
		}
	}
}

// randomExpr mirrors the generator in package regex's tests.
func randomExpr(r *rand.Rand, depth int) regex.Expr {
	if depth <= 0 {
		if r.Intn(6) == 0 {
			return regex.Eps()
		}
		return regex.Nm(string(rune('a' + r.Intn(3))))
	}
	switch r.Intn(7) {
	case 0:
		return regex.Cat(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 1:
		return regex.Or(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return regex.Rep(randomExpr(r, depth-1))
	case 3:
		return regex.Rep1(randomExpr(r, depth-1))
	case 4:
		return regex.Maybe(randomExpr(r, depth-1))
	default:
		return randomExpr(r, 0)
	}
}

// TestQuickMatchAgreesWithEnumeration cross-checks the DFA pipeline against
// the direct enumeration semantics of the regex package.
func TestQuickMatchAgreesWithEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		d := must(FromExpr(e, nil))
		// Every enumerated word must match.
		for _, w := range regex.Enumerate(e, 4, 60) {
			if !d.Match(w) {
				t.Logf("seed %d: %s does not match enumerated word %v", seed, e, w)
				return false
			}
		}
		// Random words must agree with a containment-derived answer: build
		// a singleton regex for the word and test containment.
		for i := 0; i < 10; i++ {
			n := r.Intn(4)
			word := make([]regex.Name, n)
			items := make([]regex.Expr, n)
			for j := range word {
				word[j] = regex.N(string(rune('a' + r.Intn(3))))
				items[j] = regex.At(word[j])
			}
			single := regex.Cat(items...)
			if d.Match(word) != must(Contains(single, e, nil)) {
				t.Logf("seed %d: match/containment disagree on %v vs %s", seed, word, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimplifyPreservesLanguage is the semantic safety net for the
// syntactic simplifier.
func TestQuickSimplifyPreservesLanguage(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExpr(rand.New(rand.NewSource(seed)), 5)
		s := regex.Simplify(e)
		if !must(Equivalent(e, s, nil)) {
			t.Logf("seed %d: Simplify(%s) = %s changed the language", seed, e, s)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimizePreservesLanguage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		d := must(FromExpr(e, nil))
		m := d.Minimize()
		if m.NumStates() > d.NumStates() {
			return false
		}
		for i := 0; i < 20; i++ {
			n := r.Intn(5)
			word := make([]regex.Name, n)
			for j := range word {
				word[j] = regex.N(string(rune('a' + r.Intn(3))))
			}
			if d.Match(word) != m.Match(word) {
				t.Logf("seed %d: minimize disagrees on %v for %s", seed, word, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickWitnessIsRealCounterexample: whenever Witness(a, b) returns a
// word, that word must be accepted by a and rejected by b.
func TestQuickWitnessIsRealCounterexample(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 4)
		b := randomExpr(r, 4)
		w := must(Witness(a, b, nil))
		if w == nil {
			// Containment claimed: spot-check with enumeration.
			for _, word := range regex.Enumerate(a, 4, 50) {
				if !must(MatchExpr(b, word, nil)) {
					t.Logf("seed %d: claimed containment but %v ∈ a \\ b", seed, word)
					return false
				}
			}
			return true
		}
		if !must(MatchExpr(a, w, nil)) || must(MatchExpr(b, w, nil)) {
			t.Logf("seed %d: witness %v not a counterexample for %s vs %s", seed, w, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDFAAgreesWithDerivatives is the differential test between the
// two independent matchers: Thompson/subset DFAs vs Brzozowski
// derivatives.
func TestQuickDFAAgreesWithDerivatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 5)
		d := must(FromExpr(e, nil))
		for i := 0; i < 20; i++ {
			n := r.Intn(6)
			w := make([]regex.Name, n)
			for j := range w {
				w[j] = regex.N(string(rune('a' + r.Intn(3))))
			}
			dfa := d.Match(w)
			der := regex.MatchDeriv(e, w)
			if dfa != der {
				t.Logf("seed %d: DFA=%v derivative=%v on %v for %s", seed, dfa, der, w, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
