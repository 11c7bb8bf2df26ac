package automata

import (
	"repro/internal/budget"
	"repro/internal/regex"
)

// Reduce rewrites e into a smaller language-equivalent expression using
// semantic (automata-backed) rules on top of the syntactic simplifier:
//
//   - alternatives subsumed by another alternative are dropped
//     (L(b) ⊆ L(a) ⇒ a|b = a) — this is what turns the raw output of
//     sequential refinement, a disjunction of interleaving orders, back
//     into the paper's compact forms;
//   - a trailing "?" or "+" made redundant by nullability disappears (via
//     the regex constructors);
//   - a result that dropped an alternative is verified equivalent to the
//     input (a Reduce bug would otherwise silently corrupt inferred DTDs),
//     falling back to the syntactic simplification on mismatch; a Reduce
//     that dropped nothing returns that simplification as it is.
//
// Reduce is meant for the moderately sized expressions that inference
// produces; it runs containment checks pairwise over alternatives, each
// through the syntactic front door of Contains first, so only pairs
// over one alphabet with equal nullability cost an automaton. Very large
// expressions (as arise when unioning views over a hundred sources) would
// still make the pairwise pass quadratic, so Reduce degrades to the
// syntactic simplifier beyond a size threshold.
//
// Reduction is purely an optimization — its output is language-equivalent
// to its input — so budget exhaustion never errors: it falls back to the
// syntactic simplification, exactly as the size limit does. The budget is
// charged by the containment checks the front door leaves to the automaton
// and by the equivalence verification of a reduction that dropped something;
// a reduction that changes nothing charges nothing.
func Reduce(e regex.Expr, bud *budget.Budget) regex.Expr {
	if bud.Err() != nil {
		// Already exhausted: even the syntactic simplifier is too much work
		// for an expression we only keep because degradation is loose — the
		// input is returned as-is (equivalent, just less pretty).
		return e
	}
	simplified := regex.Simplify(e, bud)
	if regex.Size(simplified) > reduceSizeLimit {
		return simplified
	}
	if bud.Err() != nil {
		// Already exhausted: stay on the syntactic path.
		return simplified
	}
	// One copy-on-write pass that drops absorbed alternatives: a subtree
	// none was dropped from is returned as it is, and only the spine above
	// a dropped alternative is rebuilt.
	var err error
	dropAbsorbed := regex.Rewriter{Alt: func(items []regex.Expr, kept bool) regex.Expr {
		var absorbed []regex.Expr
		if err == nil {
			absorbed, err = absorb(items, bud)
		}
		switch {
		case err != nil:
			return regex.Bot() // abandoned: the pass is discarded below
		case kept && len(absorbed) == len(items):
			return nil
		}
		return regex.Or(absorbed...)
	}}
	reduced, kept := dropAbsorbed.Rewrite(simplified)
	if err != nil || kept {
		// The budget ran out on the way, or nothing was absorbed and there
		// is no rewrite to verify.
		return simplified
	}
	out := regex.Simplify(reduced, bud)
	eq, err := Equivalent(out, e, bud)
	if err != nil || !eq {
		// Defensive: never trade correctness for brevity (and never let a
		// half-checked rewrite through on exhaustion).
		return simplified
	}
	return out
}

// reduceSizeLimit bounds the AST size Reduce will run semantic rewrites
// on; larger inputs get only syntactic simplification.
const reduceSizeLimit = 512

// absorb drops alternatives whose language is contained in another's; when
// none is, it returns items itself. Each ordered pair goes through
// Contains's syntactic front door; only a pair the trees leave open
// costs a cache key, and a compile when it is cold.
func absorb(items []regex.Expr, bud *budget.Budget) ([]regex.Expr, error) {
	var buf [32]bool // the flags of a union of up to 32 alternatives stay on the stack
	keep := buf[:0]
	if len(items) > len(buf) {
		keep = make([]bool, len(items))
	}
	keep = keep[:len(items)]
	for i := range keep {
		keep[i] = true
	}
	dropped := 0
	for i := range items {
		if !keep[i] {
			continue
		}
		for j := range items {
			if i == j || !keep[j] {
				continue
			}
			contained, err := Contains(items[j], items[i], bud)
			if err != nil {
				return nil, err
			}
			if contained {
				keep[j] = false
				dropped++
			}
		}
	}
	if dropped == 0 {
		return items, nil
	}
	out := make([]regex.Expr, 0, len(items)-dropped)
	for i, it := range items {
		if keep[i] {
			out = append(out, it)
		}
	}
	return out, nil
}
