package automata

import (
	"sync"
	"testing"

	"repro/internal/budget"
)

// blowupExpr is a content model whose DFA needs well over a handful of
// states, so a MaxStates budget of a few states reliably exhausts
// mid-construction.
const blowupExpr = "(a|b)*, a, (a|b), (a|b), (a|b), (a|b), (a|b)"

// TestDFABudgetExhaustionNotCached: a compile aborted by budget exhaustion
// must return the exhaustion error, cache nothing, and leave the key clean
// so an unbudgeted (or better-funded) retry compiles normally — after
// which even a starved budget gets the cached DFA for free.
func TestDFABudgetExhaustionNotCached(t *testing.T) {
	cp := NewCompiler(64)
	e := mp(blowupExpr)

	tiny := budget.New(budget.Limits{MaxStates: 2})
	if _, err := cp.DFA(e, tiny); err == nil {
		t.Fatal("starved compile must fail")
	} else if tiny.Exhausted() == nil {
		t.Fatalf("failure must be a budget exhaustion, got %v", err)
	}
	if st := cp.Stats(); st.Size != 0 {
		t.Fatalf("failed compile cached %d entries, want 0", st.Size)
	}

	d, err := cp.DFA(e, nil)
	if err != nil {
		t.Fatalf("unbudgeted retry failed: %v", err)
	}
	if d == nil || d.IsEmpty() {
		t.Fatal("retry must produce the real DFA")
	}

	// Resident now: the same starved budget is satisfied from cache.
	tiny2 := budget.New(budget.Limits{MaxStates: 2})
	d2, err := cp.DFA(e, tiny2)
	if err != nil {
		t.Fatalf("cached lookup must not charge the budget: %v", err)
	}
	if d2 != d {
		t.Error("cache hit must return the shared DFA")
	}
}

// TestDFABudgetConcurrentStarvedAndFunded hammers one compiler with a mix
// of starved and unlimited compiles of the same expression from many
// goroutines (run under -race): no goroutine may see a wrong result shape,
// and the cache must end up holding the real DFA. Starved callers either
// fail with their own exhaustion or win a cache hit; a funded caller always
// succeeds, because a flight that fails fails its leader only — a joiner
// computes under its own budget.
func TestDFABudgetConcurrentStarvedAndFunded(t *testing.T) {
	cp := NewCompiler(64)
	e := mp(blowupExpr)

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					b := budget.New(budget.Limits{MaxStates: 2})
					d, err := cp.DFA(e, b)
					if err == nil && (d == nil || d.IsEmpty()) {
						t.Error("starved success must be a real cached DFA")
					}
				} else {
					d, err := cp.DFA(e, nil)
					if err != nil || d == nil || d.IsEmpty() {
						t.Errorf("funded compile failed: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if _, err := cp.DFA(e, budget.New(budget.Limits{MaxStates: 2})); err != nil {
		t.Fatalf("DFA must be resident after the hammer, got %v", err)
	}
}

// TestReduceBudgetFallsBack: reduction is an optimization, so exhaustion
// must not error — Reduce degrades to the syntactic simplification
// and its output stays language-equivalent to the input.
func TestReduceBudgetFallsBack(t *testing.T) {
	e := mp("(a | a, b | a) , (c | c)")
	starved := budget.New(budget.Limits{MaxStates: 1})
	got := Reduce(e, starved)
	if got == nil {
		t.Fatal("Reduce returned nil")
	}
	if !must(Equivalent(got, e, nil)) {
		t.Fatalf("fallback output %s is not equivalent to input %s", got, e)
	}
}
