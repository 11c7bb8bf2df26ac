package automata

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/regex"
)

// absorbByAutomaton is absorb as it was before the syntactic front door:
// every ordered pair is decided by the witness of a DFA product. It is the
// reference the differential test holds absorb to.
func absorbByAutomaton(cp *Compiler, items []regex.Expr) []regex.Expr {
	keep := make([]bool, len(items))
	for i := range keep {
		keep[i] = true
	}
	for i := range items {
		if !keep[i] {
			continue
		}
		for j := range items {
			if i != j && keep[j] && must(cp.Witness(items[j], items[i], nil)) == nil {
				keep[j] = false
			}
		}
	}
	out := items[:0:0]
	for i, it := range items {
		if keep[i] {
			out = append(out, it)
		}
	}
	return out
}

// reduceByAutomaton is Reduce as it was before the front door: every node
// rebuilt through the constructors, every pair decided by the automaton,
// every result — rewritten or not — verified against the input.
func reduceByAutomaton(cp *Compiler, e regex.Expr) regex.Expr {
	simplified := regex.Simplify(e, nil)
	if regex.Size(simplified) > reduceSizeLimit {
		return simplified
	}
	var rebuild func(regex.Expr) regex.Expr
	rebuildAll := func(items []regex.Expr) []regex.Expr {
		out := make([]regex.Expr, len(items))
		for i, it := range items {
			out[i] = rebuild(it)
		}
		return out
	}
	rebuild = func(e regex.Expr) regex.Expr {
		switch v := e.(type) {
		case regex.Star:
			return regex.Rep(rebuild(v.Sub))
		case regex.Plus:
			return regex.Rep1(rebuild(v.Sub))
		case regex.Opt:
			return regex.Maybe(rebuild(v.Sub))
		case regex.Concat:
			return regex.Cat(rebuildAll(v.Items)...)
		case regex.Alt:
			return regex.Or(absorbByAutomaton(cp, rebuildAll(v.Items))...)
		}
		return e
	}
	out := regex.Simplify(rebuild(simplified), nil)
	if must(cp.Witness(out, e, nil)) != nil || must(cp.Witness(e, out, nil)) != nil {
		return simplified
	}
	return out
}

// randAlternatives draws the item list of an alternation as reduce hands it
// to absorb: property_test.go's raw shapes (tagged names, nullable items,
// items with Fail buried in them, nested alternations), with duplicates and
// plain atoms mixed in so that both answers of the front door occur.
func randAlternatives(r *rand.Rand) []regex.Expr {
	items := make([]regex.Expr, 2+r.Intn(5))
	for i := range items {
		switch r.Intn(4) {
		case 0:
			items[i] = regex.Atom{Name: randName(r)}
		case 1:
			if i > 0 {
				items[i] = items[r.Intn(i)]
				break
			}
			fallthrough
		default:
			items[i] = randExpr(r, 2)
		}
	}
	return items
}

// TestAbsorbAgreesWithAutomaton: the front door changes what absorb costs,
// never what it keeps — same alternatives, same order.
func TestAbsorbAgreesWithAutomaton(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	ref := NewCompiler(DefaultCacheCapacity)
	for i := 0; i < propertyCases; i++ {
		items := randAlternatives(r)
		got, err := absorb(items, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := absorbByAutomaton(ref, items)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("case %d: absorb(%v)\n kept %v\n the automaton keeps %v", i, items, got, want)
		}
	}
}

// TestReduceAgreesWithAutomaton: the same holds of a whole Reduce, which
// now also leaves subtrees it drops nothing from as they are and verifies
// only a reduction that dropped something — the expression it returns is,
// node for node, the one the all-automaton Reduce returned.
func TestReduceAgreesWithAutomaton(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	ref := NewCompiler(DefaultCacheCapacity)
	for i := 0; i < propertyCases; i++ {
		e := randExpr(r, 4)
		if r.Intn(2) == 0 {
			e = regex.Alt{Items: randAlternatives(r)}
		}
		if got, want := Reduce(e, nil), reduceByAutomaton(ref, e); !regex.Equal(got, want) {
			t.Fatalf("case %d: Reduce(%s) = %s, the all-automaton Reduce returns %s", i, e, got, want)
		}
	}
}

// TestContainsSyntacticIsExact: the front door is three-valued — whenever it
// decides, a compiler that never saw the pair agrees through the automaton;
// and it decides often enough to matter on this population.
func TestContainsSyntacticIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	ref := NewCompiler(DefaultCacheCapacity)
	decidedCount := 0
	for i := 0; i < propertyCases; i++ {
		a, b := randExpr(r, 3), randExpr(r, 3)
		if r.Intn(8) == 0 {
			b = a
		}
		contained, decided := containsSyntactic(a, b)
		if !decided {
			continue
		}
		decidedCount++
		if want := must(ref.Witness(a, b, nil)) == nil; contained != want {
			t.Fatalf("case %d: containsSyntactic(%s, %s) = %v, the automaton says %v", i, a, b, contained, want)
		}
	}
	if decidedCount < propertyCases/4 {
		t.Fatalf("the front door decided only %d of %d pairs; generator or rule drifted", decidedCount, propertyCases)
	}
}

// TestContainsSyntacticStaysSilent pins the pairs the rule must not decide:
// a Fail on the left voids the "every atom lies on some word" lemma (the
// stray name is on no word at all), and over one alphabet with equal
// nullability only the automaton can tell.
func TestContainsSyntacticStaysSilent(t *testing.T) {
	x, y := regex.Nm("x"), regex.Nm("y")
	for _, c := range []struct {
		a, b regex.Expr
		want bool // the true answer, from the automaton
	}{
		{regex.Concat{Items: []regex.Expr{x, regex.Fail{}}}, y, true},
		{regex.Alt{Items: []regex.Expr{y, regex.Concat{Items: []regex.Expr{x, regex.Alt{}}}}}, y, true},
		{mp("a, b"), mp("(a | b)*"), true},
		{mp("(a | b)*"), mp("a*, b*"), false},
		{mp("a, b"), mp("b, a"), false},
	} {
		if contained, decided := containsSyntactic(c.a, c.b); decided {
			t.Errorf("containsSyntactic(%s, %s) decided %v; only the automaton can know", c.a, c.b, contained)
		}
		if got := must(NewCompiler(16).Contains(c.a, c.b, nil)); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// reduceAllocCeiling is the committed ceiling on allocations of one Reduce
// of a content model that is already as small as it gets (measured: 1, absorb's
// keep flags).
const reduceAllocCeiling = 2

// TestReduceOfSimpleModelsAllocatesNoAutomaton is the ratchet: the two
// shapes that dominate real content models — a starred disjunction of
// distinct names, a sequence ending in one — reduce without a cache key,
// lookup or compile, and within a fixed allocation ceiling. It fails when
// the automaton comes back into absorb or Reduce starts verifying
// no-op rewrites again.
func TestReduceOfSimpleModelsAllocatesNoAutomaton(t *testing.T) {
	for _, src := range []string{
		"(n1 | n2 | n3 | n4 | n5 | n6 | n7 | n8)*",
		"title, (v0 | v1 | v2 | v3 | v4 | v5 | v6 | v7)",
	} {
		e := mp(src)
		PurgeCache()
		ResetCacheStats()
		if got := Reduce(e, nil); !regex.Equal(got, e) {
			t.Errorf("Reduce(%s) = %s, want it unchanged", src, got)
		}
		if st := CacheStats(); st.Hits+st.Misses+st.Dedups != 0 || st.Size != 0 {
			t.Errorf("Reduce(%s) asked the automata cache: %+v", src, st)
		}
		if allocs := testing.AllocsPerRun(100, func() { Reduce(e, nil) }); allocs > reduceAllocCeiling {
			t.Errorf("Reduce(%s) allocates %.0f times, ceiling %d", src, allocs, reduceAllocCeiling)
		}
	}
}
