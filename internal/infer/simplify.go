package infer

import (
	"context"
	"fmt"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmas"
)

// SimplifyReport describes what the DTD-based query simplifier did.
type SimplifyReport struct {
	// Class is the classification of the (original) query: an
	// Unsatisfiable query need not touch the data at all.
	Class Class
	// PrunedConditions counts side conditions removed because the DTD
	// guarantees them.
	PrunedConditions int
	// DroppedNames counts disjunction alternatives removed because they
	// are unsatisfiable under the DTD.
	DroppedNames int
}

// SimplifyQuery is the paper's "query simplifier may employ the source
// DTDs to create a more efficient plan" (Section 1): it classifies the
// query against the DTD and rewrites it into an equivalent query that is
// cheaper to evaluate on any document valid under that DTD:
//
//   - if the whole condition is unsatisfiable, the report says so and the
//     caller can return the empty view without touching the source;
//   - side conditions that every valid document satisfies (valid, in the
//     Section 4.2 sense) are pruned, provided they bind no variables and
//     test no strings — removing them cannot change the result;
//   - names that can never match (undeclared, or with unsatisfiable
//     subconditions) are dropped from disjunctions, shrinking the
//     engine's search space.
//
// The returned query is a rewritten clone; the input is not modified.
func SimplifyQuery(q *xmas.Query, src *dtd.DTD) (*xmas.Query, *SimplifyReport, error) {
	return SimplifyQueryContext(context.Background(), q, src)
}

// SimplifyQueryContext is SimplifyQuery with cancellation and budgeting, as
// InferContext is Infer's: a cancelled ctx returns its error, and a budget
// attached to it (budget.NewContext) bounds the automata work. Exhaustion is
// not an error and never unsound — a degraded specialization classifies
// Satisfiable, so nothing is dropped on its account, and a prunability check
// the budget could not finish prunes nothing — but the rewrite is then one
// budget's opinion: a caller that memoizes it checks the budget first.
func SimplifyQueryContext(ctx context.Context, q *xmas.Query, src *dtd.DTD) (*xmas.Query, *SimplifyReport, error) {
	if errs := q.Validate(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("infer: invalid query: %v", errs[0])
	}
	if errs := src.Check(); len(errs) > 0 {
		return nil, nil, fmt.Errorf("infer: inconsistent source DTD: %v", errs[0])
	}
	rep := &SimplifyReport{}
	out := q.Clone()
	if q.Root.HasRecursive() {
		// The classifier does not handle recursive paths (Section 4.4);
		// return the query unchanged and conservatively satisfiable.
		rep.Class = Satisfiable
		return out, rep, nil
	}
	in := newInferencer(ctx, q, src)
	rep.Class = in.queryClass()
	if err := in.err(); err != nil {
		// A refinement worker panicked (fanOut recovered it) or ctx was
		// cancelled under the fan-out: the specs left behind are inert
		// Unsatisfiable placeholders, and a class read off them would answer
		// the query with the empty result. Everything below reads memoized
		// specs only, so this is the one check.
		return nil, nil, err
	}
	if rep.Class == Unsatisfiable {
		return out, rep, nil
	}
	// Keep the path conditions (they carry the pick variable); simplify
	// side conditions everywhere. The clone's tree is isomorphic to the
	// original's, so walk both in lockstep.
	simplifyCond(in, q.Root, out.Root, src, rep)
	return out, rep, nil
}

func simplifyCond(in *inferencer, orig, clone *xmas.Cond, src *dtd.DTD, rep *SimplifyReport) {
	// Drop unsatisfiable disjuncts (only for explicit disjunctions; a
	// wildcard stays a wildcard).
	if len(orig.Names) > 1 {
		specs := in.tightenCond(orig)
		var kept []string
		for _, n := range clone.Names {
			if sp := specs.get(n); sp != nil && sp.class != Unsatisfiable {
				kept = append(kept, n)
			} else {
				rep.DroppedNames++
			}
		}
		if len(kept) > 0 && len(kept) < len(clone.Names) {
			clone.Names = kept
		}
	}
	// Prune valid, binding-free side conditions. A qualifier never competes
	// with siblings for a witness child, so it skips the disjointness guard.
	var keptKids []*xmas.Cond
	for i, oc := range orig.Children {
		cc := clone.Children[i]
		if isPrunable(in, orig, oc) && (oc.Qualifier || namesDisjointFromSiblings(orig, i)) {
			rep.PrunedConditions++
			continue
		}
		simplifyCond(in, oc, cc, src, rep)
		keptKids = append(keptKids, cc)
	}
	clone.Children = keptKids
}

// namesDisjointFromSiblings guards pruning: sibling conditions bind to
// distinct children (the Section 4.2 semantics), so removing a condition
// whose names overlap a sibling's would weaken the distinctness
// requirement and change the query's meaning.
func namesDisjointFromSiblings(parent *xmas.Cond, idx int) bool {
	c := parent.Children[idx]
	for j, sib := range parent.Children {
		if j == idx || sib.Qualifier {
			// Qualifier siblings never claim a distinct child, so overlap
			// with them cannot weaken the distinctness requirement.
			continue
		}
		if len(c.Names) == 0 || len(sib.Names) == 0 {
			return false // wildcards overlap everything
		}
		for _, a := range c.Names {
			for _, b := range sib.Names {
				if a == b {
					return false
				}
			}
		}
	}
	return true
}

// isPrunable reports whether the child condition is guaranteed by the DTD
// for every element its parent can match, and is free of observable
// bindings (variables, IDs, string tests) so that removing it cannot
// change the query's answer.
func isPrunable(in *inferencer, parent, child *xmas.Cond) bool {
	if hasBindings(child) {
		return false
	}
	specs := in.tightenCond(child)
	sel := make(map[string]regex.Name, len(specs))
	for _, sp := range specs {
		if sp.class == Unsatisfiable {
			continue
		}
		if sp.class != Valid {
			return false // some matched element might fail the subconditions
		}
		sel[sp.name.Base] = sp.name
	}
	if len(sel) == 0 {
		return false
	}
	// The parent's every possible type must force an occurrence.
	for _, n := range in.effNames(parent) {
		t := in.src.Types[n]
		if t.PCDATA {
			return false
		}
		refined := Refine(t.Model, sel, in.bud)
		if regex.IsFail(refined) {
			return false
		}
		if eq, err := automata.Equivalent(regex.Image(refined), t.Model, in.bud); err != nil || !eq {
			return false // not proven within the budget: keep the condition
		}
	}
	return true
}

// hasBindings reports whether the condition subtree binds any variable,
// names an ID, or tests a string — observable effects that pruning must
// preserve. The pick variable is a binding, so the pick path is never
// pruned.
func hasBindings(c *xmas.Cond) bool {
	found := false
	var walk func(*xmas.Cond)
	walk = func(n *xmas.Cond) {
		if n.Var != "" || n.IDVar != "" || n.HasText {
			found = true
		}
		for _, k := range n.Children {
			walk(k)
		}
	}
	walk(c)
	return found
}
