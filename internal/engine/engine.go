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
//
// Evaluation is one depth-first walk of the document. A path condition —
// one between the root condition and the pick condition — can only ever
// bind an ancestor-or-self of the picked element, so the walk carries the
// path conditions that can sit on the element it is visiting and decides
// their side conditions there, by a memoized structural check: no candidate
// is ever re-embedded from the root. Only a query with "!=" constraints
// verifies each admissible pick by a backtracking embedding, and that one is
// anchored to the walk's ancestor chain: a path condition goes straight to
// its one admissible child.
package engine

import (
	"fmt"
	"slices"
	"sync"

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
	// One Clone of the whole result, not one per pick: the view document
	// is two arrays however many elements were picked, and shares no
	// Element with doc.
	root := xmlmodel.Element{Name: q.Name, Children: picks}
	return &xmlmodel.Document{DocType: q.Name, Root: root.Clone()}, nil
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
//
// The walk (visit) carries the set of path conditions that can sit on the
// element it is visiting, so picks come out in document order, each once,
// recursive steps included. The side conditions of a path condition are
// matched once per element it sits on, and again only for the few children
// that matching claimed. Without "!=" that decides the query in
// O(document × condition); with "!=" each structurally admissible pick is
// then verified by an embedding anchored to its ancestor chain (embed).
func EvalElements(q *xmas.Query, doc *xmlmodel.Document) ([]*xmlmodel.Element, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.EvalElements(doc)
}

// Prepared is a validated query with what every evaluation of it needs and
// the query alone decides; never written after Prepare, it may be shared.
type Prepared struct {
	q    *xmas.Query
	path []*xmas.Cond // root condition … pick condition
	// deep marks, for queries with "!=" only, the conditions an anchored
	// embedding must really embed: path conditions and those with a "!="-
	// constrained variable somewhere below. structuralOK decides the rest.
	deep map[*xmas.Cond]bool
}

// Prepare validates q, which must not be modified afterwards.
func Prepare(q *xmas.Query) (*Prepared, error) {
	if errs := q.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("engine: invalid query: %v", errs[0])
	}
	path, err := q.PathToPick()
	if err != nil {
		return nil, err
	}
	p := &Prepared{q: q, path: path}
	if len(q.Neq) > 0 {
		p.deep = map[*xmas.Cond]bool{}
		p.markDeep(q.Root)
	}
	return p, nil
}

// EvalElements is the package's EvalElements less its per-query work.
func (p *Prepared) EvalElements(doc *xmlmodel.Document) ([]*xmlmodel.Element, error) {
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("engine: empty document")
	}
	picks, _ := p.run(doc.Root, nil).done()
	return picks, nil
}

// EvalSplit evaluates over root, whose children are several runs one after
// another — run i ends before child ends[i] — in one walk (one matcher, one
// memo, one pick list) and says where each run's picks end: those below run i's
// children are picks[cuts[i-1]:cuts[i]]. (No caller's query can pick root itself.)
func (p *Prepared) EvalSplit(root *xmlmodel.Element, ends []int) (picks []*xmlmodel.Element, cuts []int) {
	m := p.run(root, ends)
	for len(m.cuts) < len(ends) { // the runs the root-level loop never reached
		m.cuts = append(m.cuts, len(m.picks))
	}
	return m.done()
}

// matchers pools the walk's scratch — every stack of a matcher, its memo and
// its growing pick list — so an evaluation allocates what it hands out and
// nothing else. What it hands out is copied out of the pool (done): nothing a
// caller holds points into it.
var matchers = sync.Pool{New: func() any { return new(matcher) }}

// maxPooled bounds what a pooled matcher may hold, in entries of any one of
// its stacks or of its memo: one that grew past it is dropped, not pooled, so
// one huge document does not keep its size in the pool.
const maxPooled = 1 << 14

// run is one evaluation, on a matcher from the pool that done gives back; the
// complexity tests read its visit count and let the collector have it.
func (p *Prepared) run(root *xmlmodel.Element, ends []int) *matcher {
	m := matchers.Get().(*matcher)
	m.Prepared, m.ends = p, ends
	if p.path[0].MatchesName(root.Name) {
		m.steps = append(m.steps, step{i: 0})
		m.chain = append(m.chain, link{root, 0})
		m.visit(root, 0)
	}
	return m
}

// done returns m's picks and cuts, each copied into a slice of exactly its
// length (nil for none), and gives m back to the pool, cleared.
func (m *matcher) done() (picks []*xmlmodel.Element, cuts []int) {
	if len(m.picks) > 0 {
		picks = append(make([]*xmlmodel.Element, 0, len(m.picks)), m.picks...)
	}
	if len(m.cuts) > 0 {
		cuts = append(make([]int, 0, len(m.cuts)), m.cuts...)
	}
	if max(cap(m.picks), cap(m.cuts), cap(m.steps), cap(m.chain), cap(m.used), cap(m.env), cap(m.frames), cap(m.claims), len(m.feasible)) > maxPooled {
		return picks, cuts
	}
	// Whatever holds a pointer is cleared to its capacity, popped entries
	// too, so the pool keeps no document and no query alive.
	clear(m.picks)
	clear(m.chain[:cap(m.chain)])
	clear(m.env[:cap(m.env)])
	clear(m.frames[:cap(m.frames)])
	clear(m.feasible)
	*m = matcher{picks: m.picks[:0], cuts: m.cuts[:0], steps: m.steps[:0], chain: m.chain[:0], used: m.used[:0],
		feasible: m.feasible, env: m.env[:0], frames: m.frames[:0], claims: m.claims[:0]}
	matchers.Put(m)
	return picks, cuts
}

// Matches reports whether the query's condition embeds into the document at
// all, i.e. whether the view would be non-empty. It is used by tests and by
// the mediator's classifier cross-checks.
func Matches(q *xmas.Query, doc *xmlmodel.Document) bool {
	picks, err := EvalElements(q, doc)
	return err == nil && len(picks) > 0
}

type feasKey struct {
	c *xmas.Cond
	e *xmlmodel.Element
}

// step is one path condition that can sit on the element being visited:
// the conditions above it embed along the element's ancestors.
type step struct {
	i    int  // index into matcher.path
	here bool // its side conditions hold at the element with no child reserved
}

// link is one element of the ancestor chain of the element being visited.
type link struct {
	e   *xmlmodel.Element
	idx int // position among its parent's children
}

type matcher struct {
	*Prepared
	picks      []*xmlmodel.Element
	ends, cuts []int // EvalSplit's: the root-level loop cuts at each run's end
	// steps is a stack of step sets, one per element on the walk's current
	// branch; chain holds those elements, root first.
	steps []step
	chain []link
	// used is the scratch stack of child indexes claimed by assign.
	used []int
	// feasible memoizes structuralOK for conditions that have children; it
	// is made when first needed, sized by the root's fan-out, and kept with
	// the matcher in the pool.
	feasible map[feasKey]bool
	// env holds an anchored embedding's bindings so far, frames and claims
	// its suspended sibling assignments.
	env    []binding
	frames []frame
	claims []claim
	// visits counts (condition, element) pairs examined. Production pays
	// for the increments on purpose: the complexity tests assert on the walk
	// that serves answers, not on an instrumented copy of it.
	visits int
}

// visit walks the subtree of e; m.steps[lo:] is the set of path conditions
// that can sit on e, ascending. A recursive step stays on every child it
// names. A step whose side conditions hold at e moves its successor onto
// each child the successor names — unless matching the side conditions
// claimed that very child, in which case they are matched again with the
// child reserved. The last step makes e a pick if the pick condition's own
// subconditions hold.
func (m *matcher) visit(e *xmlmodel.Element, lo int) {
	hi, base, last := len(m.steps), len(m.used), len(m.path)-1
	descend := false
	for s := lo; s < hi; s++ {
		m.visits++
		i := m.steps[s].i
		c := m.path[i]
		if i == last {
			if m.structuralHere(c, e) && (len(m.q.Neq) == 0 || m.embed(m.q.Root, m.chain[0].e, 0, -1)) {
				m.picks = append(m.picks, e)
			}
		} else if m.assign(c.Children, m.path[i+1], e.Children, len(m.used)) {
			m.steps[s].here = true // and its claims stay on m.used[base:]
		}
		descend = descend || c.Recursive || m.steps[s].here
	}
	if descend {
		for j, k := range e.Children {
			for lo == 0 && len(m.cuts) < len(m.ends) && m.ends[len(m.cuts)] <= j {
				m.cuts = append(m.cuts, len(m.picks)) // only the root's steps start at 0
			}
			for s := lo; s < hi; s++ {
				m.visits++
				st := m.steps[s]
				if c := m.path[st.i]; c.Recursive && c.MatchesName(k.Name) {
					m.push(hi, st.i)
				}
				if st.here && m.path[st.i+1].MatchesName(k.Name) && m.sideOK(st.i, e, j, base) {
					m.push(hi, st.i+1)
				}
			}
			if len(m.steps) > hi {
				m.chain = append(m.chain, link{k, j})
				m.visit(k, hi)
				m.chain = m.chain[:len(m.chain)-1]
				m.steps = m.steps[:hi]
			}
		}
	}
	m.used = m.used[:base]
}

// push adds path index i to the step set being built at m.steps[hi:]; the
// set is built in ascending order, so a duplicate can only be its tail.
func (m *matcher) push(hi, i int) {
	if n := len(m.steps); n == hi || m.steps[n-1].i != i {
		m.steps = append(m.steps, step{i: i})
	}
}

// sideOK reports whether the side conditions of path[i] still hold at e
// when child j is taken by path[i+1]: trivially when no step's matching
// claimed j (m.used[base:]), by matching again with j reserved otherwise.
func (m *matcher) sideOK(i int, e *xmlmodel.Element, j, base int) bool {
	if !slices.Contains(m.used[base:], j) {
		return true
	}
	from := len(m.used)
	m.used = append(m.used, j)
	ok := m.assign(m.path[i].Children, m.path[i+1], e.Children, from)
	m.used = m.used[:from]
	return ok
}

// assign finds an injective assignment of the conditions, except skip, to
// children that structurally satisfy them, avoiding the child indexes in
// m.used[from:] and leaving its own claims there on success. Qualifier
// conditions are existential: they need a witness but claim no child, so
// they never compete with siblings (or each other).
func (m *matcher) assign(conds []*xmas.Cond, skip *xmas.Cond, kids []*xmlmodel.Element, from int) bool {
	if len(conds) == 0 {
		return true
	}
	c, rest := conds[0], conds[1:]
	if c == skip {
		return m.assign(rest, skip, kids, from)
	}
	for j, k := range kids {
		m.visits++
		if !m.structuralOK(c, k) || (!c.Qualifier && slices.Contains(m.used[from:], j)) {
			continue
		}
		if c.Qualifier {
			return m.assign(rest, skip, kids, from)
		}
		m.used = append(m.used, j)
		if m.assign(rest, skip, kids, from) {
			return true
		}
		m.used = m.used[:len(m.used)-1]
	}
	return false
}

// structuralOK reports whether c can match at e, or for a recursive c
// along a chain below e, ignoring variables, anchors and != constraints.
// Leaf and text conditions are one comparison; conditions with children
// are memoized across the whole evaluation.
func (m *matcher) structuralOK(c *xmas.Cond, e *xmlmodel.Element) bool {
	if !c.MatchesName(e.Name) {
		return false
	}
	if len(c.Children) == 0 {
		return m.structuralHere(c, e)
	}
	key := feasKey{c, e}
	if v, ok := m.feasible[key]; ok {
		return v
	}
	ok := m.structuralHere(c, e)
	if !ok && c.Recursive {
		for _, k := range e.Children {
			if m.structuralOK(c, k) {
				ok = true
				break
			}
		}
	}
	if m.feasible == nil {
		m.feasible = make(map[feasKey]bool, len(m.chain[0].e.Children))
	}
	m.feasible[key] = ok
	return ok
}

// structuralHere is structuralOK without the name test and the chain: c's
// subconditions hold on distinct children of e.
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
	from := len(m.used)
	ok := m.assign(c.Children, nil, e.Children, from)
	m.used = m.used[:from]
	return ok
}

// binding is one variable bound during an anchored embedding.
type binding struct {
	name string
	e    *xmlmodel.Element
}

// markDeep fills p.deep for the subtree of c and reports whether c is in it.
func (p *Prepared) markDeep(c *xmas.Cond) bool {
	constrained := func(ne [2]string) bool {
		return ne[0] == c.Var || ne[1] == c.Var || ne[0] == c.IDVar || ne[1] == c.IDVar
	}
	deep := slices.Contains(p.path, c) || slices.ContainsFunc(p.q.Neq, constrained)
	for _, k := range c.Children {
		deep = p.markDeep(k) || deep
	}
	if deep {
		p.deep[c] = true
	}
	return deep
}

// bind records name -> e unless a "!=" forbids it: a constraint is checked
// as soon as both of its sides are bound.
func (m *matcher) bind(name string, e *xmlmodel.Element) bool {
	if name == "" {
		return true
	}
	for _, b := range m.env {
		if b.e == e && (slices.Contains(m.q.Neq, [2]string{name, b.name}) || slices.Contains(m.q.Neq, [2]string{b.name, name})) {
			return false
		}
	}
	m.env = append(m.env, binding{name, e})
	return true
}

// frame is a suspended assignChildren: the conditions still to place on
// children of e (at depth d) once the condition before them is embedded.
// Frames and claims link by index into matcher stacks: nothing is allocated.
type frame struct {
	conds []*xmas.Cond
	e     *xmlmodel.Element
	d     int
	used  int // newest claim on e's children, -1 for none
	then  int // the frame to resume after this one, -1 to succeed
}

// claim is one child index taken by an earlier sibling condition.
type claim struct{ j, prev int }

// resume continues the embedding at frame f.
func (m *matcher) resume(f int) bool {
	if f < 0 {
		return true
	}
	fr := m.frames[f]
	return m.assignChildren(fr.conds, fr.e, fr.d, fr.used, fr.then)
}

// embed enumerates the embeddings of the deep condition c on e (at depth d
// of the document; the caller has matched the name) or, for a recursive c,
// along a chain below e, resuming frame then under each until one attempt
// reports true. Enumerating, instead of committing to a subtree's first
// embedding, lets a variable bound under one sibling be re-bound when a "!="
// with a later sibling fails. Path conditions are anchored: they follow the
// walk's ancestor chain (span), the pick condition onto its last element.
func (m *matcher) embed(c *xmas.Cond, e *xmlmodel.Element, d, then int) bool {
	m.visits++
	if !m.structuralOK(c, e) {
		return false
	}
	if m.embedHere(c, e, d, then) {
		return true
	}
	if c.Recursive {
		for j, hi := m.span(c, e, d); j < hi; j++ {
			if k := e.Children[j]; c.MatchesName(k.Name) && m.embed(c, k, d+1, then) {
				return true
			}
		}
	}
	return false
}

// embedHere binds c's variables to e, embeds c's subconditions on distinct
// children of e and resumes then; the bindings last for that attempt only.
// (A text condition has no subconditions, and embed has compared its text.)
func (m *matcher) embedHere(c *xmas.Cond, e *xmlmodel.Element, d, then int) bool {
	if c == m.path[len(m.path)-1] && d != len(m.chain)-1 {
		return false
	}
	n := len(m.env)
	ok := m.bind(c.Var, e) && m.bind(c.IDVar, e) && m.assignChildren(c.Children, e, d, -1, then)
	m.env = m.env[:n]
	return ok
}

// span returns the range of indexes of the children of e (at depth d) that
// c may take: all of them, except that a path condition can only bind an
// ancestor-or-self of the anchored element — the one child on the chain.
func (m *matcher) span(c *xmas.Cond, e *xmlmodel.Element, d int) (lo, hi int) {
	if !slices.Contains(m.path, c) {
		return 0, len(e.Children)
	}
	if d+1 >= len(m.chain) {
		return 0, 0
	}
	return m.chain[d+1].idx, m.chain[d+1].idx + 1
}

// assignChildren extends the embedding with conds on distinct children of
// e not claimed through used (qualifiers claim none), then resumes then. A
// condition that is not deep cannot influence a "!=": any structurally fitting
// child serves, and for a qualifier one witness is as good as another.
func (m *matcher) assignChildren(conds []*xmas.Cond, e *xmlmodel.Element, d, used, then int) bool {
	if len(conds) == 0 {
		return m.resume(then)
	}
	c, nf, nc := conds[0], len(m.frames), len(m.claims)
	for j, hi := m.span(c, e, d); j < hi; j++ {
		k := e.Children[j]
		if !c.MatchesName(k.Name) || (!c.Qualifier && m.claimed(used, j)) {
			continue
		}
		next := used
		if !c.Qualifier {
			m.claims = append(m.claims, claim{j, used})
			next = nc
		}
		ok, done := false, false
		if m.deep[c] {
			m.frames = append(m.frames, frame{conds[1:], e, d, next, then})
			ok = m.embed(c, k, d+1, nf)
			m.frames = m.frames[:nf]
			done = ok
		} else if m.structuralOK(c, k) {
			ok = m.assignChildren(conds[1:], e, d, next, then)
			done = ok || c.Qualifier
		}
		m.claims = m.claims[:nc]
		if done {
			return ok
		}
	}
	return false
}

// claimed reports whether child index j is on the claim list ending at used.
func (m *matcher) claimed(used, j int) bool {
	for ; used >= 0; used = m.claims[used].prev {
		if m.claims[used].j == j {
			return true
		}
	}
	return false
}
