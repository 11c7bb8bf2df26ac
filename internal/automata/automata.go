// Package automata provides finite automata over element names. It decides
// the language questions the paper's framework needs:
//
//   - membership — does a sequence of child names match a content model?
//     (document validation, Definition 2.3)
//   - containment L(r1) ⊆ L(r2) — "type (n:r1) is tighter than (n:r2)"
//     (Definition 3.3), the building block of the tightness order on DTDs;
//   - equivalence — used to classify a refinement as valid (no change) or
//     satisfiable (strictly tighter), and to collapse redundant
//     specializations (the paper's footnote 8);
//   - emptiness — unsatisfiability detection (Section 4.2's side effect).
//
// Construction is Thompson NFA → subset construction → (optionally) Moore
// minimization. DFAs are always complete: every state has a transition for
// every alphabet symbol, with a non-accepting dead state absorbing the rest.
//
// Subset construction is exponential in the worst case, so every function
// that can build or walk a product takes a *budget.Budget as its last
// parameter, charges it per state and returns its exhaustion error. There
// is one function per question: nil is the unlimited budget and never
// fails, so a caller that wants no limit says so with a visible nil.
package automata

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/regex"
)

// DFA is a complete deterministic automaton over an explicit alphabet of
// names. Trans[s][a] is the successor of state s on Alphabet[a]; it is
// always a valid state index. Exactly one start state; any number of
// accepting states.
type DFA struct {
	Alphabet []regex.Name
	index    map[regex.Name]int
	Trans    [][]int
	Accept   []bool
	Start    int
}

// NumStates returns the number of states (including any dead state).
func (d *DFA) NumStates() int { return len(d.Trans) }

// SymbolIndex returns the alphabet index of n and whether n is in the
// alphabet.
func (d *DFA) SymbolIndex(n regex.Name) (int, bool) {
	i, ok := d.index[n]
	return i, ok
}

// Step returns the successor of state s on symbol n. A name outside the
// alphabet has no representable transition (it leads to the implicit dead
// behaviour, as in Match) and Step returns (s, false). Streaming
// validation uses this to advance one DFA per open element without
// materializing the children word.
func (d *DFA) Step(s int, n regex.Name) (int, bool) {
	ai, ok := d.index[n]
	if !ok {
		return s, false
	}
	return d.Trans[s][ai], true
}

// thompson NFA fragment machinery.

type nfa struct {
	eps [][]int
	sym []map[regex.Name][]int
}

func (m *nfa) newState() int {
	m.eps = append(m.eps, nil)
	m.sym = append(m.sym, nil)
	return len(m.eps) - 1
}

func (m *nfa) addEps(from, to int) { m.eps[from] = append(m.eps[from], to) }

func (m *nfa) addSym(from int, n regex.Name, to int) {
	if m.sym[from] == nil {
		m.sym[from] = map[regex.Name][]int{}
	}
	m.sym[from][n] = append(m.sym[from][n], to)
}

// build returns (start, end) of a fragment accepting L(e) from start to end.
func (m *nfa) build(e regex.Expr) (int, int) {
	start, end := m.newState(), m.newState()
	switch v := e.(type) {
	case regex.Empty:
		m.addEps(start, end)
	case regex.Fail:
		// no transitions: end unreachable
	case regex.Atom:
		m.addSym(start, v.Name, end)
	case regex.Concat:
		cur := start
		for _, it := range v.Items {
			s, f := m.build(it)
			m.addEps(cur, s)
			cur = f
		}
		m.addEps(cur, end)
	case regex.Alt:
		for _, it := range v.Items {
			s, f := m.build(it)
			m.addEps(start, s)
			m.addEps(f, end)
		}
	case regex.Star:
		s, f := m.build(v.Sub)
		m.addEps(start, s)
		m.addEps(f, s)
		m.addEps(start, end)
		m.addEps(f, end)
	case regex.Plus:
		s, f := m.build(v.Sub)
		m.addEps(start, s)
		m.addEps(f, s)
		m.addEps(f, end)
	case regex.Opt:
		s, f := m.build(v.Sub)
		m.addEps(start, s)
		m.addEps(f, end)
		m.addEps(start, end)
	default:
		panic(fmt.Sprintf("automata: unknown node %T", e))
	}
	return start, end
}

func (m *nfa) closure(set map[int]bool) map[int]bool {
	stack := make([]int, 0, len(set))
	for s := range set {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.eps[s] {
			if !set[t] {
				set[t] = true
				stack = append(stack, t)
			}
		}
	}
	return set
}

// setKeyer builds compact canonical keys for NFA state sets. Subset
// construction calls it once per discovered transition, so it is the
// hottest spot when compiling large content models (e.g. union views over
// many sources). The id and byte buffers are reused across calls — one
// construction allocates two scratch slices total instead of two per
// discovered transition — and the sorted ids are delta-encoded so almost
// every varint is a single byte regardless of how large the NFA grows. The
// only unavoidable allocation left is the string conversion for the map
// key.
type setKeyer struct {
	ids []int
	buf []byte
}

func (k *setKeyer) key(set map[int]bool) string {
	k.ids = k.ids[:0]
	for s := range set {
		k.ids = append(k.ids, s)
	}
	sort.Ints(k.ids)
	k.buf = k.buf[:0]
	prev := 0
	for _, id := range k.ids {
		k.buf = binary.AppendUvarint(k.buf, uint64(id-prev))
		prev = id
	}
	return string(k.buf)
}

// FromExpr compiles e into a complete DFA over the alphabet of names
// occurring in e (see FromExprAlphabet).
func FromExpr(e regex.Expr, bud *budget.Budget) (*DFA, error) {
	return FromExprAlphabet(e, regex.Names(e), bud)
}

// FromExprAlphabet compiles e over the given alphabet, which must contain
// every name of e (symbols outside the alphabet cannot be represented).
// Every subset-construction state charges the budget, so a pathological
// expression (the paper's exponential-blowup shapes) aborts with the
// budget's exhaustion error instead of constructing an arbitrarily large
// automaton. A nil budget is unlimited and never fails — here and in every
// function of this package that takes one.
func FromExprAlphabet(e regex.Expr, alphabet []regex.Name, bud *budget.Budget) (*DFA, error) {
	idx := map[regex.Name]int{}
	alpha := make([]regex.Name, 0, len(alphabet))
	for _, n := range alphabet {
		if _, dup := idx[n]; !dup {
			idx[n] = len(alpha)
			alpha = append(alpha, n)
		}
	}
	for _, n := range regex.Names(e) {
		if _, ok := idx[n]; !ok {
			panic(fmt.Sprintf("automata: alphabet misses name %s of expression %s", n, e))
		}
	}
	m := &nfa{}
	start, end := m.build(e)

	d := &DFA{Alphabet: alpha, index: idx}
	stateIDs := map[string]int{}
	var keyer setKeyer
	var sets []map[int]bool
	var budErr error
	newDState := func(set map[int]bool) int {
		key := keyer.key(set)
		if id, ok := stateIDs[key]; ok {
			return id
		}
		if err := bud.ChargeStates(1); err != nil {
			budErr = err
			return -1
		}
		id := len(d.Trans)
		stateIDs[key] = id
		sets = append(sets, set)
		d.Trans = append(d.Trans, make([]int, len(alpha)))
		d.Accept = append(d.Accept, set[end])
		return id
	}
	startSet := m.closure(map[int]bool{start: true})
	d.Start = newDState(startSet)
	if budErr != nil {
		return nil, budErr
	}
	for work := []int{d.Start}; len(work) > 0; {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		set := sets[cur]
		for ai, n := range alpha {
			next := map[int]bool{}
			for s := range set {
				for _, t := range m.sym[s][n] {
					next[t] = true
				}
			}
			m.closure(next)
			before := len(d.Trans)
			id := newDState(next)
			if budErr != nil {
				return nil, budErr
			}
			d.Trans[cur][ai] = id
			if id == before { // newly created
				work = append(work, id)
			}
		}
	}
	return d, nil
}

// Match reports whether the word is in the DFA's language. Names outside
// the alphabet make the word unmatchable (they lead to the implicit dead
// behaviour) and Match returns false.
func (d *DFA) Match(word []regex.Name) bool {
	s := d.Start
	for _, n := range word {
		ai, ok := d.index[n]
		if !ok {
			return false
		}
		s = d.Trans[s][ai]
	}
	return d.Accept[s]
}

// IsEmpty reports whether the DFA accepts no word at all.
func (d *DFA) IsEmpty() bool {
	return d.ShortestAccepted() == nil
}

// ShortestAccepted returns a shortest word of the DFA's language (the BFS
// parent chain to the closest accepting state), or nil when the language is
// empty. The empty word is a non-nil empty slice.
func (d *DFA) ShortestAccepted() []regex.Name {
	type crumb struct {
		prev int
		sym  int
	}
	if d.Accept[d.Start] {
		return []regex.Name{}
	}
	seen := make([]bool, len(d.Trans))
	from := make([]crumb, len(d.Trans))
	seen[d.Start] = true
	queue := []int{d.Start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ai, next := range d.Trans[cur] {
			if seen[next] {
				continue
			}
			seen[next] = true
			from[next] = crumb{prev: cur, sym: ai}
			if d.Accept[next] {
				var rev []regex.Name
				for s := next; s != d.Start; s = from[s].prev {
					rev = append(rev, d.Alphabet[from[s].sym])
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// boolOp combines two DFAs over identical alphabets with a boolean combiner
// on acceptance (product construction): each product state charges the
// budget, so quadratic-in-theory products that explode in practice stop at
// it instead of exhausting memory.
func boolOp(a, b *DFA, f func(bool, bool) bool, bud *budget.Budget) (*DFA, error) {
	if len(a.Alphabet) != len(b.Alphabet) {
		panic("automata: product over different alphabets")
	}
	for i := range a.Alphabet {
		if a.Alphabet[i] != b.Alphabet[i] {
			panic("automata: product over different alphabets")
		}
	}
	out := &DFA{Alphabet: a.Alphabet, index: a.index}
	type pair struct{ x, y int }
	ids := map[pair]int{}
	var pairs []pair
	var budErr error
	newState := func(p pair) int {
		if id, ok := ids[p]; ok {
			return id
		}
		if err := bud.ChargeStates(1); err != nil {
			budErr = err
			return -1
		}
		id := len(out.Trans)
		ids[p] = id
		pairs = append(pairs, p)
		out.Trans = append(out.Trans, make([]int, len(out.Alphabet)))
		out.Accept = append(out.Accept, f(a.Accept[p.x], b.Accept[p.y]))
		return id
	}
	out.Start = newState(pair{a.Start, b.Start})
	if budErr != nil {
		return nil, budErr
	}
	for work := []int{out.Start}; len(work) > 0; {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		p := pairs[cur]
		for ai := range out.Alphabet {
			np := pair{a.Trans[p.x][ai], b.Trans[p.y][ai]}
			before := len(out.Trans)
			id := newState(np)
			if budErr != nil {
				return nil, budErr
			}
			out.Trans[cur][ai] = id
			if id == before {
				work = append(work, id)
			}
		}
	}
	return out, nil
}

// unionAlphabet merges the names of the given expressions, deduplicated.
func unionAlphabet(exprs ...regex.Expr) []regex.Name {
	seen := map[regex.Name]bool{}
	var out []regex.Name
	for _, e := range exprs {
		for _, n := range regex.Names(e) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// Contains reports whether L(a) ⊆ L(b) — expression a is at least as tight
// as b in the sense of Definition 3.3. Compilation and the decision itself
// are memoized in the default compiler cache.
func Contains(a, b regex.Expr, bud *budget.Budget) (bool, error) {
	return defaultCompiler.Contains(a, b, bud)
}

// Witness returns a shortest word in L(a) \ L(b), or nil when L(a) ⊆ L(b).
// The empty word is returned as a non-nil empty slice. Cached.
func Witness(a, b regex.Expr, bud *budget.Budget) ([]regex.Name, error) {
	return defaultCompiler.Witness(a, b, bud)
}

// Equivalent reports whether L(a) = L(b). Cached, symmetric.
func Equivalent(a, b regex.Expr, bud *budget.Budget) (bool, error) {
	return defaultCompiler.Equivalent(a, b, bud)
}

// IsEmpty reports whether L(e) = ∅ (semantic fail). Uses the cached DFA.
func IsEmpty(e regex.Expr, bud *budget.Budget) (bool, error) {
	return defaultCompiler.IsEmpty(e, bud)
}

// MatchExpr reports whether the word is in L(e), matching against the
// cached compiled DFA: the first call per expression compiles, every later
// call is a lookup plus a linear scan of the word.
func MatchExpr(e regex.Expr, word []regex.Name, bud *budget.Budget) (bool, error) {
	return defaultCompiler.Match(e, word, bud)
}

// RestrictTo returns a DFA for the sub-language of d consisting of words
// that use only the allowed names: transitions on disallowed names are
// redirected to a dead state. This implements the "restriction to
// realizable names" step of the DTD tightness decision procedure.
func (d *DFA) RestrictTo(allowed func(regex.Name) bool) *DFA {
	out := &DFA{
		Alphabet: d.Alphabet,
		index:    d.index,
		Start:    d.Start,
		Trans:    make([][]int, len(d.Trans)+1),
		Accept:   make([]bool, len(d.Trans)+1),
	}
	dead := len(d.Trans)
	copy(out.Accept, d.Accept)
	for s := range d.Trans {
		row := make([]int, len(d.Alphabet))
		for ai := range d.Alphabet {
			if allowed(d.Alphabet[ai]) {
				row[ai] = d.Trans[s][ai]
			} else {
				row[ai] = dead
			}
		}
		out.Trans[s] = row
	}
	deadRow := make([]int, len(d.Alphabet))
	for ai := range deadRow {
		deadRow[ai] = dead
	}
	out.Trans[dead] = deadRow
	return out
}

// ContainsDFA reports whether L(a) ⊆ L(b) for two DFAs over the same
// alphabet; the product construction charges the budget per state.
func ContainsDFA(a, b *DFA, bud *budget.Budget) (bool, error) {
	diff, err := boolOp(a, b, func(x, y bool) bool { return x && !y }, bud)
	if err != nil {
		return false, err
	}
	return diff.ShortestAccepted() == nil, nil
}

// Minimize returns the Moore-minimized equivalent of d, restricted to
// reachable states. It is used for canonical state counts in benchmarks and
// to keep product inputs small.
func (d *DFA) Minimize() *DFA {
	// Reachable states.
	reach := make([]bool, len(d.Trans))
	reach[d.Start] = true
	for work := []int{d.Start}; len(work) > 0; {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for _, nxt := range d.Trans[cur] {
			if !reach[nxt] {
				reach[nxt] = true
				work = append(work, nxt)
			}
		}
	}
	// Initial partition: accepting vs not (reachable states only).
	part := make([]int, len(d.Trans))
	for s := range part {
		part[s] = -1
	}
	for s := range d.Trans {
		if !reach[s] {
			continue
		}
		if d.Accept[s] {
			part[s] = 1
		} else {
			part[s] = 0
		}
	}
	for {
		sig := map[string]int{}
		next := make([]int, len(d.Trans))
		n := 0
		changed := false
		for s := range d.Trans {
			if !reach[s] {
				next[s] = -1
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%d", part[s])
			for ai := range d.Alphabet {
				fmt.Fprintf(&b, ",%d", part[d.Trans[s][ai]])
			}
			key := b.String()
			id, ok := sig[key]
			if !ok {
				id = n
				n++
				sig[key] = id
			}
			next[s] = id
		}
		for s := range part {
			if part[s] != next[s] {
				changed = true
			}
		}
		part = next
		if !changed {
			break
		}
	}
	// Build the quotient automaton.
	nClasses := 0
	for s := range part {
		if part[s] >= nClasses {
			nClasses = part[s] + 1
		}
	}
	out := &DFA{
		Alphabet: d.Alphabet,
		index:    d.index,
		Trans:    make([][]int, nClasses),
		Accept:   make([]bool, nClasses),
	}
	for s := range d.Trans {
		if !reach[s] {
			continue
		}
		c := part[s]
		if out.Trans[c] == nil {
			row := make([]int, len(d.Alphabet))
			for ai := range d.Alphabet {
				row[ai] = part[d.Trans[s][ai]]
			}
			out.Trans[c] = row
			out.Accept[c] = d.Accept[s]
		}
	}
	out.Start = part[d.Start]
	return out
}

// DistToAccept returns, for every state, the length of the shortest word
// leading from it to an accepting state, or -1 when no accepting state is
// reachable. The document generator uses it to steer random walks toward
// termination.
func (d *DFA) DistToAccept() []int {
	dist := make([]int, len(d.Trans))
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for s := range d.Trans {
		if d.Accept[s] {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	// Reverse edges: predecessor BFS.
	preds := make([][]int, len(d.Trans))
	for s := range d.Trans {
		for _, t := range d.Trans[s] {
			preds[t] = append(preds[t], s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range preds[cur] {
			if dist[p] == -1 {
				dist[p] = dist[cur] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist
}
