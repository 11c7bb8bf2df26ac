package infer

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/regex"
)

// refAtLeastOccurrences is atLeastOccurrences as it was when it compiled
// the model's minimal DFA and ran a BFS over (state, count capped at k),
// kept as the reference the syntactic fold is compared against: every word
// of L(model) has at least k untagged positions with a base in bases iff
// no accepting state is reachable with a count below k.
func refAtLeastOccurrences(model regex.Expr, bases map[string]regex.Name, k int) (bool, error) {
	d, err := automata.Compiled(model, nil)
	if err != nil {
		return false, err
	}
	counting := make([]bool, len(d.Alphabet))
	for ai, n := range d.Alphabet {
		_, ok := bases[n.Base]
		counting[ai] = n.Tag == 0 && ok
	}
	type ps struct{ s, c int }
	seen := map[ps]bool{{d.Start, 0}: true}
	queue := []ps{{d.Start, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if d.Accept[cur.s] && cur.c < k {
			return false, nil
		}
		for ai := range d.Alphabet {
			nc := cur.c
			if counting[ai] && nc < k {
				nc++
			}
			np := ps{d.Trans[cur.s][ai], nc}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true, nil
}

// randOccurrenceModel draws a content model as raw nodes, not through the
// smart constructors, so ε and ∅ survive inside sequences, unions and
// repetitions where the fold must handle them.
func randOccurrenceModel(r *rand.Rand, depth int) regex.Expr {
	leaf := func() regex.Expr {
		switch r.Intn(16) {
		case 0:
			return regex.Empty{}
		case 1:
			return regex.Fail{}
		}
		return regex.Atom{Name: regex.T(string(rune('a'+r.Intn(3))), r.Intn(3)/2)}
	}
	if depth <= 0 {
		return leaf()
	}
	items := func() []regex.Expr {
		out := make([]regex.Expr, 1+r.Intn(3))
		for i := range out {
			out[i] = randOccurrenceModel(r, depth-1)
		}
		return out
	}
	// Sequences and pluses are drawn more often than the operators that
	// count 0, so that "at least k" with k > 0 holds often enough.
	switch r.Intn(9) {
	case 0, 1, 2:
		return regex.Concat{Items: items()}
	case 3:
		return regex.Alt{Items: items()}
	case 4:
		return regex.Star{Sub: randOccurrenceModel(r, depth-1)}
	case 5, 6:
		return regex.Plus{Sub: randOccurrenceModel(r, depth-1)}
	case 7:
		return regex.Opt{Sub: randOccurrenceModel(r, depth-1)}
	}
	return leaf()
}

// TestAtLeastOccurrencesMatchesReference compares the fold with the DFA
// and BFS it replaced on seeded random models over a, b, c (untagged and
// tagged), a random subset of the three as the counted bases and k in 0–4.
func TestAtLeastOccurrencesMatchesReference(t *testing.T) {
	const models = 10000
	r := rand.New(rand.NewSource(38))
	counted := map[bool]int{}
	for i := 0; i < models; i++ {
		model := randOccurrenceModel(r, 1+r.Intn(4))
		bases := map[string]regex.Name{}
		for _, b := range []string{"a", "b", "c"} {
			if r.Intn(3) > 0 {
				bases[b] = regex.N(b)
			}
		}
		k := r.Intn(5)
		want, err := refAtLeastOccurrences(model, bases, k)
		if err != nil {
			t.Fatalf("reference on %s: %v", model, err)
		}
		if got := atLeastOccurrences(model, bases, k); got != want {
			t.Fatalf("model %d %s, bases %v, k %d: fold says %v, reference %v",
				i, model, sortedKeys(bases), k, got, want)
		}
		if k > 0 && !must(automata.IsEmpty(model, nil)) {
			counted[want]++
		}
	}
	// Both answers must be common where they are not vacuous — k = 0, or
	// a model whose language is empty, always holds — or the comparison
	// says little.
	for _, answer := range []bool{true, false} {
		if counted[answer] < models/20 {
			t.Fatalf("only %d of %d non-vacuous questions answered %v: the generator has gone lopsided", counted[answer], models, answer)
		}
	}
	t.Logf("non-vacuous: %d true, %d false", counted[true], counted[false])
}
