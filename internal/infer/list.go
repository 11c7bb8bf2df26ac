package infer

import (
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmas"
)

// inferList implements the result-list type inference of Section 4.4 and
// Appendix B: it computes the content model of the view's top-level
// element — the possible sequences of picked elements, in document order.
//
// The algorithm works down the path p₀ … p_k to the pick variable. It
// maintains a list type L_i: a regular expression over placeholder names,
// one per (path step, matched name), describing the possible sequences of
// step-i elements that the depth-first scan encounters. L₀ covers the
// root: one occurrence (valid side conditions), an optional occurrence
// (satisfiable), or ε (unsatisfiable). The step from L_i to L_{i+1}
// replaces every step-i placeholder by the projection (Appendix B's
// project) of that element's side-refined type onto the names matched by
// step i+1:
//
//   - an atom the next step cannot match projects to ε;
//   - an atom it matches projects to the next placeholder, wrapped in "?"
//     when the step's conditions are merely satisfiable for that name —
//     this is Appendix B's "substitute (d[p₁])? for p₁" rule, which is
//     where an element that may fail its subconditions becomes optional;
//   - the regular-expression structure (sequence, disjunction, closure) is
//     preserved, which is exactly the one-level extension of
//     Definition 4.3 fused with the projection.
//
// "Side-refined" means refined by the step's subconditions other than the
// next path step (Appendix B's loop over the cᵢ "such that cᵢ is not
// p₁"): the path child's existence must not be forced into ancestor
// types, because an element with no qualifying child simply contributes
// zero picked elements.
//
// At the final step the placeholders are the pick specializations
// themselves, so L_k is the view root's content model over the inferred
// tagged types.
func (in *inferencer) inferList(path []*xmas.Cond) regex.Expr {
	root := path[0]
	if !root.MatchesName(in.src.Root) {
		return regex.Eps() // the condition can never match the document root
	}

	// L₀ from the root step.
	if len(path) == 1 {
		// The pick variable is on the root condition itself.
		return stepAtom(in.tightenCond(root).get(in.src.Root))
	}
	// prevSpecs holds the specializations whose tagged names are the
	// placeholders currently appearing in l; they are carried forward
	// because every refineWith call mints fresh tags.
	prevSpecs := in.sideSpecs(root, path[1])
	l := stepAtom(prevSpecs.get(in.src.Root))

	for i := 1; i < len(path); i++ {
		step := path[i]
		var exclude *xmas.Cond
		if i+1 < len(path) {
			exclude = path[i+1]
		}
		// Qualification of the step's names: the pick step uses the full
		// specializations (its subconditions are all side conditions); an
		// intermediate step uses side-refined specializations.
		var stepSpecs specs
		if exclude == nil {
			stepSpecs = in.tightenCond(step)
		} else {
			stepSpecs = in.sideSpecs(step, exclude)
		}
		l = regex.Map(l, func(n regex.Name) regex.Expr {
			sp := prevSpecs.get(n.Base)
			if sp == nil || sp.name != n || sp.class == Unsatisfiable {
				return regex.Eps()
			}
			if sp.typ.PCDATA {
				return regex.Eps() // character content hosts no elements
			}
			return project(sp.typ.Model, step, stepSpecs)
		})
		l = regex.Simplify(l, in.bud)
		prevSpecs = stepSpecs
	}
	return l
}

// sideSpecs returns the specializations of c refined with every child
// except the excluded path child. Results are memoized per (cond, exclude)
// via the slice identity of the filtered children — cheap enough to just
// recompute, so we do.
func (in *inferencer) sideSpecs(c *xmas.Cond, exclude *xmas.Cond) specs {
	side := make([]*xmas.Cond, 0, len(c.Children))
	for _, cc := range c.Children {
		if cc != exclude {
			side = append(side, cc)
		}
	}
	return in.refineWith(c, side)
}

// stepAtom renders a specialization as its contribution to a list type:
// one occurrence, an optional occurrence, or nothing.
func stepAtom(sp *spec) regex.Expr {
	if sp == nil {
		return regex.Eps()
	}
	switch sp.class {
	case Unsatisfiable:
		return regex.Eps()
	case Valid:
		return regex.At(sp.name)
	default:
		return regex.Maybe(regex.At(sp.name))
	}
}

// project implements Appendix B's project(t, step): it maps a content model
// to the list of step-matched elements a conforming element contributes.
// Atoms the step cannot match vanish (ε); matched untagged atoms become the
// step's specialization placeholder — exact when the step's conditions are
// valid for that name, optional when satisfiable, ε when unsatisfiable.
//
// A matched atom that already carries a tag was specialized by a *side
// condition* at this level. Projecting it to ε would be unsound — the
// element in that slot can still qualify and contribute a pick when some
// other sibling satisfies the side condition — but projecting it exactly
// would also be unsound: sibling conditions bind to distinct children
// (Section 4.2), so when that element is the only one able to satisfy the
// side condition, the pick cannot take it. Hence a tagged matched atom
// always projects as optional. This resolves the "could match semantics"
// case of Appendix B's pseudo-code; TestFuzzInferenceSoundness found the
// exact counterexample for the once-tempting "exact when valid" rule.
func project(t regex.Expr, step *xmas.Cond, stepSpecs specs) regex.Expr {
	return regex.Map(t, func(n regex.Name) regex.Expr {
		if !step.MatchesName(n.Base) {
			return regex.Eps()
		}
		sp := stepSpecs.get(n.Base)
		if sp == nil {
			return regex.Eps()
		}
		a := stepAtom(sp)
		if n.Tag != 0 {
			return regex.Maybe(a) // the slot may be consumed by the side condition
		}
		return a
	})
}

// NaiveInfer computes the straw-man view DTD of Example 3.1's "naive view
// inference algorithm": the view root's type is the starred disjunction of
// the names the pick condition can match, every reachable source type is
// copied verbatim, and nothing is refined. (The paper writes the root type
// with "+"; a view can be empty, so the sound form uses "*" — see
// EXPERIMENTS.md.) It is the baseline against which the tight inference is
// compared.
func NaiveInfer(q *xmas.Query, src *dtd.DTD) (*dtd.DTD, error) {
	if errs := q.Validate(); len(errs) > 0 {
		return nil, errs[0]
	}
	path, err := q.PathToPick()
	if err != nil {
		return nil, err
	}
	pick := path[len(path)-1]
	out := dtd.New(q.Name)
	var alts []regex.Expr
	var names []string
	if len(pick.Names) == 0 {
		names = src.Names()
	} else {
		for _, n := range src.Names() {
			if pick.MatchesName(n) {
				names = append(names, n)
			}
		}
	}
	for _, n := range names {
		alts = append(alts, regex.Nm(n))
	}
	out.Declare(q.Name, dtd.M(regex.Rep(regex.Or(alts...))))
	// Copy every type reachable from the picked names.
	work := append([]string(nil), names...)
	seen := map[string]bool{}
	refs := make([]regex.Name, 0, 16)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		t, ok := src.Types[n]
		if !ok {
			continue
		}
		out.Declare(n, t)
		if !t.PCDATA {
			refs = regex.AppendNames(refs[:0], t.Model)
			for _, m := range refs {
				work = append(work, m.Base)
			}
		}
	}
	return out, nil
}
