// Package infer implements the paper's primary contribution: inference of
// the view DTD from a pick-element XMAS view definition and the source DTD
// (Sections 4.1–4.4). The pipeline is
//
//	refine     — type refinement of a (tagged) regular expression so that
//	             at least one occurrence of a condition's name is forced
//	             (Definitions 4.1/4.2, built on the ⊕ and ∥ operators);
//	Tighten    — post-order traversal of the tree condition that refines
//	             every touched type, allocates specializations, and
//	             classifies each condition as valid / satisfiable /
//	             unsatisfiable with respect to the source DTD (Section 4.2,
//	             Figure 2);
//	project    — projection of a content model onto the names matched by a
//	             path step (Appendix B), with per-name qualification:
//	             exact for valid steps, optional for satisfiable ones;
//	InferList  — the result-list type inference that walks the path to the
//	             pick variable, alternating one-level extension
//	             (Definition 4.3) with projection, and produces the content
//	             model of the view's top-level element (Section 4.4).
//
// Infer assembles the specialized view DTD, normalizes away redundant
// specializations (footnote 8), and merges it into a plain view DTD,
// reporting where the merge loses tightness (Section 4.3).
package infer

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/regex"
)

// Refine implements the paper's type refinement (Definition 4.1 extended to
// Definition 4.2): it returns the (tagged) regular expression describing
// exactly the sequences of L(r) that contain at least one occurrence of a
// name in sel, with that occurrence re-tagged to sel's target. The result
// is the Fail constant when no sequence qualifies.
//
// sel maps base names to the tagged name to stamp on the forced occurrence;
// mapping a base to its own untagged form performs the plain Definition 4.1
// refinement. Only untagged occurrences can host the forced occurrence:
// names carrying a non-zero tag were claimed by earlier refinements and
// fail the base case, exactly as in Definition 4.2 — this is what makes
// sequential refinement with Pub1 != Pub2 force two distinct publications
// (Example 4.2).
//
// The result of a large model is large, and building it is where a hostile
// DTD's analysis spends its time, so bud is read as the work goes: once it is
// exhausted (its deadline passed) the refinement stops, and the result is the
// Fail constant — a refinement that forces nothing, which every caller takes
// for a condition it cannot prove, soundly. A nil budget is never exhausted.
func Refine(r regex.Expr, sel map[string]regex.Name, bud *budget.Budget) regex.Expr {
	if out := refine(r, sel, bud); bud.Err() == nil {
		return out
	}
	return regex.Bot()
}

// refine is Refine, abandoned — its result then meaningless — at the first
// item that finds bud exhausted.
func refine(r regex.Expr, sel map[string]regex.Name, bud *budget.Budget) regex.Expr {
	switch v := r.(type) {
	case regex.Empty, regex.Fail:
		return regex.Bot()
	case regex.Atom:
		if v.Name.Tag != 0 {
			return regex.Bot()
		}
		if t, ok := sel[v.Name.Base]; ok {
			return regex.At(t)
		}
		return regex.Bot()
	case regex.Opt:
		// refine(g?) = refine(g) ∥ refine(ε) = refine(g) ∥ fail.
		return regex.OAlt(refine(v.Sub, sel, bud), regex.Bot())
	case regex.Star:
		// refine(g*) = g* ⊕ refine(g) ⊕ g*.
		return regex.OConcat(regex.OConcat(regex.Rep(v.Sub), refine(v.Sub, sel, bud)), regex.Rep(v.Sub))
	case regex.Plus:
		// g+ = g, g*.
		return refine(regex.Cat(v.Sub, regex.Rep(v.Sub)), sel, bud)
	case regex.Concat:
		// refine(r1,…,rk) = ∥ over positions i of r1 ⊕ … ⊕ refine(ri) ⊕ … ⊕ rk.
		out := regex.Expr(regex.Fail{})
		for i := range v.Items {
			if bud.Err() != nil {
				return regex.Bot()
			}
			ref := refine(v.Items[i], sel, bud)
			if regex.IsFail(ref) {
				continue
			}
			parts := make([]regex.Expr, len(v.Items))
			copy(parts, v.Items)
			parts[i] = ref
			out = regex.OAlt(out, regex.Cat(parts...))
		}
		return out
	case regex.Alt:
		out := regex.Expr(regex.Fail{})
		for _, it := range v.Items {
			if bud.Err() != nil {
				return regex.Bot()
			}
			out = regex.OAlt(out, refine(it, sel, bud))
		}
		return out
	}
	panic(fmt.Sprintf("infer: unknown node %T", r))
}

// RefineName is the single-name convenience form of Definition 4.1:
// refine(r, n) forcing an (untagged) occurrence of n.
func RefineName(r regex.Expr, name string) regex.Expr {
	return Refine(r, map[string]regex.Name{name: regex.N(name)}, nil)
}
