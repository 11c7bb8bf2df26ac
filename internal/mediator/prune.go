package mediator

import (
	"context"

	"repro/internal/infer"
	"repro/internal/xmas"
)

// Query-time per-part satisfiability pruning.
//
// A union view's document concatenates, under one root, the pick elements
// contributed by each part. An incoming query's root-level conditions can
// only be witnessed by those children; each part's inferred view DTD
// (ViewPart.DTD) describes exactly the children that part can contribute.
// So if EVERY root-level condition of the (simplified) query is
// unsatisfiable against a part's DTD, no element of that part can
// participate in any match — removing the part changes nothing about the
// answer, and its source need not be fetched at all.
//
// The test is infer.SatisfiabilityCached: proofs of unsatisfiability only
// (Unknown and Satisfiable both mean "fetch"), with verdicts cached on the
// query-skeleton × DTD key, so the first time a query is asked costs a cache
// lookup per (condition, part) pair — and the mask then stays in the query's
// plan (plan.go), so a repeat costs none.

// SetPruning enables or disables query-time per-part pruning (enabled by
// default). QueryUnsimplified is never pruned regardless of this setting —
// it is the structure-blind baseline.
func (m *Mediator) SetPruning(on bool) {
	m.mu.Lock()
	m.noPrune = !on
	m.mu.Unlock()
}

// PruningEnabled reports whether query-time pruning is on.
func (m *Mediator) PruningEnabled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.noPrune
}

// pruneParts decides, for each part of the view, whether the simplified
// query provably cannot touch it. It returns the keep mask, the pruned parts
// in part order, and whether some verdict came back Unknown (such a mask is
// sound — Unknown means fetch — but only one budget's opinion, so the plan
// made from it is not kept). Verdict computation runs under the budget ctx
// carries (analyse's; none: unlimited): exhaustion yields Unknown.
//
// Pruning declines conservatively (analyse does not call it when disabled):
//   - when the pick variable binds the query root: the answer then embeds
//     the root's full child list, so omitting parts would change it;
//   - when the query root has no child conditions: every child list
//     matches, nothing is refutable;
//   - when a part has no recorded DTD (defensive; DefineUnionView always
//     records one).
//
// A part whose definition-time Class is Unsatisfiable is pruned without
// consulting the verdict cache: it is empty for every query.
func pruneParts(ctx context.Context, v *View, q *xmas.Query) (keep []bool, pruned []prunedPart, unknown bool) {
	keep = keepAll(v)
	root := q.Root
	if root == nil || root.Var == q.PickVar || root.IDVar == q.PickVar {
		return keep, nil, false
	}
	probes := rootProbes(q)
	if probes == nil && !anyStaticallyEmpty(v) {
		return keep, nil, false
	}
	for i, p := range v.Parts {
		if p.Class == infer.Unsatisfiable {
			keep[i] = false
			pruned = append(pruned, prunedPart{p.Source, "static_unsatisfiable"})
			continue
		}
		if p.DTD == nil || probes == nil {
			continue
		}
		refuted := true
		for _, probe := range probes {
			verdict, _ := infer.SatisfiabilityCached(ctx, probe, p.DTD)
			if verdict != infer.VerdictUnsatisfiable {
				unknown = unknown || verdict == infer.VerdictUnknown
				refuted = false
				break
			}
		}
		if refuted {
			keep[i] = false
			pruned = append(pruned, prunedPart{p.Source, "verdict_unsatisfiable"})
		}
	}
	return keep, pruned, unknown
}

// anyStaticallyEmpty reports whether some part was classified
// Unsatisfiable at definition time (prunable even without probes).
func anyStaticallyEmpty(v *View) bool {
	for _, p := range v.Parts {
		if p.Class == infer.Unsatisfiable {
			return true
		}
	}
	return false
}

// rootProbes builds one satisfiability probe per root-level condition of
// the query: the root condition stripped to that single child, with all
// variable bindings and value constraints removed and the pick rebound to
// the probe root. Each probe asks "can this part contribute a child
// witnessing this condition?" — qualifiers and regular children alike,
// since either kind, if witnessable only by a pruned part, would change
// the answer. Returns nil when the root has no children (nothing to
// refute) or the root condition itself is recursive (the verdict
// machinery would answer Unknown for every probe anyway).
func rootProbes(q *xmas.Query) []*xmas.Query {
	if q.Root.Recursive || len(q.Root.Children) == 0 {
		return nil
	}
	probes := make([]*xmas.Query, 0, len(q.Root.Children))
	for i := range q.Root.Children {
		root := &xmas.Cond{
			Names:   append([]string(nil), q.Root.Names...),
			HasText: q.Root.HasText,
			Text:    q.Root.Text,
			Var:     "P",
		}
		child := q.Root.Children[i].Clone()
		stripBindings(child)
		// A lone child condition is existential either way; normalize the
		// qualifier flag so isomorphic probes share a verdict-cache entry.
		child.Qualifier = false
		root.Children = []*xmas.Cond{child}
		probes = append(probes, &xmas.Query{Name: q.Name, PickVar: "P", Root: root})
	}
	return probes
}

// stripBindings clears variable bindings in a probe subtree; satisfiability
// ignores them (it overapproximates by dropping joins), and removing them
// both keeps the probe a valid query (exactly one pick binding) and
// canonicalizes the verdict-cache key.
func stripBindings(c *xmas.Cond) {
	c.Var = ""
	c.IDVar = ""
	for _, k := range c.Children {
		stripBindings(k)
	}
}
