// Package engine evaluates pick-element XMAS queries over XML documents —
// the runtime of the MIX mediator. The semantics follow Section 2.1:
//
//   - the pick-variable binds to every element for which the tree condition
//     embeds into the document;
//   - the picked elements are grouped, in document order (depth-first,
//     left-to-right), under a fresh root element named by the view;
//   - sibling conditions bind to distinct children of their parent's match
//     (the paper's Section 4.2 assumption), and "!=" constraints require
//     the bound elements' IDs to differ;
//   - a qualifier condition ([<journal/>]) is an existential filter: it
//     must embed into some child but does not consume one, so it is exempt
//     from the distinct-children rule;
//   - a recursive step <name*> matches along a chain of name-elements of
//     any depth (Example 3.5).
//
// The condition tree must embed starting at the document root: the root
// condition constrains the root element, as in the paper's examples where
// the outermost <department> condition describes the source document type.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Eval runs the query against the document and returns the view document:
// a root element named q.Name whose children are (copies of) the elements
// the pick-variable binds to, in document order. An unsatisfied condition
// yields an empty view, not an error.
func Eval(q *xmas.Query, doc *xmlmodel.Document) (*xmlmodel.Document, error) {
	picks, err := EvalElements(q, doc)
	if err != nil {
		return nil, err
	}
	out := EmptyResult(q)
	for _, e := range picks {
		out.Root.Children = append(out.Root.Children, e.Clone())
	}
	return out, nil
}

// EmptyResult returns the view document Eval produces when no element
// binds the pick-variable: a childless root named by the view. Fast paths
// that answer a query without evaluating it (the mediator's unsatisfiable
// skip, per-part pruning that drops every part) MUST build their result
// through this function so their output is bit-identical to a genuine
// zero-match evaluation.
func EmptyResult(q *xmas.Query) *xmlmodel.Document {
	return &xmlmodel.Document{DocType: q.Name, Root: &xmlmodel.Element{Name: q.Name}}
}

// EvalElements returns the elements (of the original document, not copies)
// that the pick-variable binds to, in document order.
func EvalElements(q *xmas.Query, doc *xmlmodel.Document) ([]*xmlmodel.Element, error) {
	if errs := q.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("engine: invalid query: %v", errs[0])
	}
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("engine: empty document")
	}
	path, err := q.PathToPick()
	if err != nil {
		return nil, err
	}
	m := &matcher{q: q, feasible: map[feasKey]bool{}}
	pickCond := path[len(path)-1]

	// Enumerate candidate pick elements in document order (depth-first,
	// left-to-right — the grouping order of Section 2.1), then verify a
	// full anchored embedding for each. Plain steps take each element's
	// matching children in turn, which keeps candidates distinct and in
	// order; a recursive step can reach an element along two chains and
	// out of order, so only then are they deduplicated and sorted by their
	// position in the document.
	cands := m.candidates(path, doc.Root)
	if slices.ContainsFunc(path, func(c *xmas.Cond) bool { return c.Recursive }) {
		docPos := map[*xmlmodel.Element]int{}
		pos := 0
		doc.Root.Walk(func(e *xmlmodel.Element) bool { docPos[e] = pos; pos++; return true })
		cands = dedupeInOrder(cands)
		sort.Slice(cands, func(i, j int) bool { return docPos[cands[i]] < docPos[cands[j]] })
	}

	var picks []*xmlmodel.Element
	for _, cand := range cands {
		m.anchorCond = pickCond
		m.anchorElem = cand
		env := &env{vars: map[string]*xmlmodel.Element{}, neq: q.Neq}
		if m.embed(q.Root, doc.Root, env) {
			picks = append(picks, cand)
		}
	}
	return picks, nil
}

// Matches reports whether the query's condition embeds into the document at
// all (i.e. whether the view would be non-empty for at least one binding,
// or — for queries whose pick condition is optional — whether the root
// condition holds). It is used by tests and by the mediator's classifier
// cross-checks.
func Matches(q *xmas.Query, doc *xmlmodel.Document) bool {
	picks, err := EvalElements(q, doc)
	return err == nil && len(picks) > 0
}

type feasKey struct {
	c *xmas.Cond
	e *xmlmodel.Element
}

type matcher struct {
	q          *xmas.Query
	anchorCond *xmas.Cond
	anchorElem *xmlmodel.Element
	// feasible caches structural matches ignoring anchors and !=
	// constraints; it prunes the backtracking search.
	feasible map[feasKey]bool
}

// candidates walks the path conditions down the document and returns, in
// document order, every element that could bind the pick-variable on
// name-structure grounds alone (ancestor side conditions are verified later
// by the anchored embedding).
func (m *matcher) candidates(path []*xmas.Cond, root *xmlmodel.Element) []*xmlmodel.Element {
	var cur []*xmlmodel.Element
	if path[0].MatchesName(root.Name) {
		cur = m.expand(nil, path[0], root)
	}
	for _, step := range path[1:] {
		var next []*xmlmodel.Element
		for _, e := range cur {
			for _, k := range e.Children {
				if step.MatchesName(k.Name) {
					next = m.expand(next, step, k)
				}
			}
		}
		if step.Recursive {
			// Two elements of cur, one below the other, reach the same chains.
			next = dedupeInOrder(next)
		}
		cur = next
	}
	return cur
}

// expand appends e to dst and, for a recursive step, every element
// reachable from e by a downward chain of elements matching the step's
// names, in document order.
func (m *matcher) expand(dst []*xmlmodel.Element, step *xmas.Cond, e *xmlmodel.Element) []*xmlmodel.Element {
	dst = append(dst, e)
	if step.Recursive {
		for _, k := range e.Children {
			if step.MatchesName(k.Name) {
				dst = m.expand(dst, step, k)
			}
		}
	}
	return dst
}

func dedupeInOrder(es []*xmlmodel.Element) []*xmlmodel.Element {
	seen := map[*xmlmodel.Element]bool{}
	out := es[:0:0]
	for _, e := range es {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// env tracks variable bindings during an embedding attempt and checks the
// "!=" constraints incrementally: a violation is detected as soon as both
// sides of a pair are bound.
type env struct {
	vars map[string]*xmlmodel.Element
	neq  [][2]string
}

func (v *env) bind(name string, e *xmlmodel.Element) bool {
	if name == "" {
		return true
	}
	v.vars[name] = e
	for _, pair := range v.neq {
		a, aok := v.vars[pair[0]]
		b, bok := v.vars[pair[1]]
		if aok && bok && a == b {
			return false
		}
	}
	return true
}

func (v *env) unbind(name string) {
	if name != "" {
		delete(v.vars, name)
	}
}

// embed attempts to match condition c at element e under the current
// environment, with the anchored condition forced onto the anchored
// element.
func (m *matcher) embed(c *xmas.Cond, e *xmlmodel.Element, en *env) bool {
	if c == m.anchorCond && e != m.anchorElem {
		return false
	}
	if !m.structuralOK(c, e) {
		return false
	}
	if c.Recursive {
		return m.embedRecursiveCond(c, e, en)
	}
	return m.embedHere(c, e, en)
}

// embedRecursiveCond matches a recursive condition: its subconditions hold
// at e, or the condition re-embeds at a child of e with a matching name.
// The anchor applies to the element where the subconditions finally hold.
func (m *matcher) embedRecursiveCond(c *xmas.Cond, e *xmlmodel.Element, en *env) bool {
	if m.embedHere(c, e, en) {
		return true
	}
	for _, k := range e.Children {
		if c.MatchesName(k.Name) && m.structuralOK(c, k) && m.embedRecursiveCond(c, k, en) {
			return true
		}
	}
	return false
}

// embedHere binds c's variables to e and matches c's subconditions against
// distinct children of e.
func (m *matcher) embedHere(c *xmas.Cond, e *xmlmodel.Element, en *env) bool {
	if c == m.anchorCond && e != m.anchorElem {
		return false
	}
	if c.HasText {
		return e.IsText && e.Text == c.Text
	}
	if !en.bind(c.Var, e) {
		en.unbind(c.Var)
		return false
	}
	if !en.bind(c.IDVar, e) {
		en.unbind(c.Var)
		en.unbind(c.IDVar)
		return false
	}
	if m.assignChildren(c.Children, e.Children, 0, map[int]bool{}, en) {
		return true
	}
	en.unbind(c.Var)
	en.unbind(c.IDVar)
	return false
}

// assignChildren finds an injective assignment of the non-qualifier
// conditions to the children, each assigned pair embedding successfully.
// Qualifier conditions are existential: they must embed into some child
// but do not consume it, so they never compete with siblings (or each
// other) for a witness. They still take part in the backtracking so that
// a variable bound under a qualifier can drive "!=" constraints.
func (m *matcher) assignChildren(conds []*xmas.Cond, kids []*xmlmodel.Element, i int, used map[int]bool, en *env) bool {
	if i == len(conds) {
		return true
	}
	c := conds[i]
	for j, k := range kids {
		if !c.Qualifier && used[j] {
			continue
		}
		if !c.MatchesName(k.Name) { // the cheapest pruning test
			continue
		}
		if m.embed(c, k, en) {
			if !c.Qualifier {
				used[j] = true
			}
			if m.assignChildren(conds, kids, i+1, used, en) {
				return true
			}
			if !c.Qualifier {
				used[j] = false
			}
			// embed left bindings in place on success only; on the failed
			// continuation we must undo them.
			m.unbindSubtree(c, en)
		}
	}
	return false
}

// unbindSubtree clears every variable bound anywhere under c; used when
// backtracking over a previously successful partial embedding.
func (m *matcher) unbindSubtree(c *xmas.Cond, en *env) {
	for _, v := range c.Vars() {
		delete(en.vars, v)
	}
}

// structuralOK reports whether c can match e ignoring variables, anchors
// and != constraints — a necessary condition used to prune backtracking.
// Results are memoized across the whole evaluation.
func (m *matcher) structuralOK(c *xmas.Cond, e *xmlmodel.Element) bool {
	if !c.MatchesName(e.Name) {
		return false
	}
	key := feasKey{c, e}
	if v, ok := m.feasible[key]; ok {
		return v
	}
	m.feasible[key] = true // assume feasible on cycles (recursive conds revisit)
	ok := m.structuralHere(c, e)
	if !ok && c.Recursive {
		for _, k := range e.Children {
			if c.MatchesName(k.Name) && m.structuralOK(c, k) {
				ok = true
				break
			}
		}
	}
	m.feasible[key] = ok
	return ok
}

func (m *matcher) structuralHere(c *xmas.Cond, e *xmlmodel.Element) bool {
	if c.HasText {
		return e.IsText && e.Text == c.Text
	}
	if len(c.Children) == 0 {
		return true
	}
	if e.IsText {
		return false
	}
	// Injective feasibility via backtracking on the (small) bipartite
	// compatibility relation. Qualifier children are existential and do
	// not consume a child slot.
	var rec func(i int, used map[int]bool) bool
	rec = func(i int, used map[int]bool) bool {
		if i == len(c.Children) {
			return true
		}
		cc := c.Children[i]
		for j, k := range e.Children {
			if (!cc.Qualifier && used[j]) || !cc.MatchesName(k.Name) {
				continue
			}
			if !m.structuralMatchChild(cc, k) {
				continue
			}
			if cc.Qualifier {
				return rec(i+1, used)
			}
			used[j] = true
			if rec(i+1, used) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return rec(0, map[int]bool{})
}

func (m *matcher) structuralMatchChild(c *xmas.Cond, e *xmlmodel.Element) bool {
	if c.Recursive {
		return m.structuralOK(c, e)
	}
	if !c.MatchesName(e.Name) {
		return false
	}
	return m.structuralOK(c, e)
}
