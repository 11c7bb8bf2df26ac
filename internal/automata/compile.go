package automata

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/automata/cache"
	"repro/internal/budget"
	"repro/internal/regex"
)

// This file is the compiled-automata cache: every content-model question
// the mediator answers (validation, containment, equivalence, emptiness,
// witnesses) funnels through a Compiler that memoizes minimized DFAs and
// decision results in a shared, concurrency-safe LRU. The same content
// models recur constantly — every document validated against a view DTD
// replays the view's models, every Tighter decision replays both DTDs'
// models — so compiling each model once and reusing it everywhere converts
// the dominant cost of the serving path into a hash lookup.
//
// Syntax comes before automata: a containment or equivalence question the
// two trees decide on their own (containsSyntactic — equal trees, a
// nullability difference, a name the other side never mentions) is answered
// without a key, a lookup or a compile, which is what the pairwise
// absorption of Reduce asks almost exclusively on real content models. Only
// a question the trees leave open reaches the cache.
//
// Cache keys are canonical serializations of the expression: the DFA tier
// keys on regex.Key(regex.Simplify(e)), so syntactic variants with the same
// simplified form (the normal output of inference, which simplifies
// aggressively) share one compiled automaton; the decision tier keys on the
// raw regex.Key, so a repeated identical question costs one encode of the
// pair and one lookup, with equivalence keys normalized to be
// order-independent. All keys live in one LRU (namespaced by a leading
// opcode byte), so a single capacity bounds total memory.

// DefaultCacheCapacity bounds the process-wide default compiler. Entries
// are minimized DFAs of DTD content models — typically a few dozen states —
// plus booleans and witness words, so the default is generous without being
// a memory hazard.
const DefaultCacheCapacity = 8192

// Compiler memoizes DFA compilation and language decisions. All methods
// are safe for concurrent use; concurrent requests for the same key compile
// once (singleflight), their callers waiting without a context: a budget
// carries the deadline. The returned DFAs are shared — callers must treat
// them as immutable, which every DFA method already respects.
type Compiler struct {
	c *cache.Cache
}

// NewCompiler returns a compiler bounded to capacity cache entries.
func NewCompiler(capacity int) *Compiler {
	return &Compiler{c: cache.New(capacity)}
}

// defaultCompiler backs the package-level Contains/Equivalent/Witness/
// IsEmpty/MatchExpr and the Compiled* helpers.
var defaultCompiler = NewCompiler(DefaultCacheCapacity)

// CacheStats returns the counters of the default compiler's cache.
func CacheStats() cache.Stats { return defaultCompiler.Stats() }

// PurgeCache drops every entry of the default compiler (counters are
// kept). Benchmarks use it to measure the cold path; a long-running server
// may use it to shed memory after a schema change.
func PurgeCache() { defaultCompiler.Purge() }

// ResetCacheStats zeroes the default compiler's counters without dropping
// entries (tests isolate their accounting with it).
func ResetCacheStats() { defaultCompiler.c.ResetStats() }

// Compiled returns the cached minimized DFA for e over the alphabet of
// names occurring in (the simplified form of) e. For repeated matching this
// replaces FromExpr(e): first use compiles, every later use — from any
// goroutine — is a lookup. A cached DFA is returned for free; a cold compile
// charges the budget and fails with its exhaustion error instead of
// completing a blowup. Failed compiles are never cached, so a later call
// with a fresh budget recomputes cleanly.
func Compiled(e regex.Expr, bud *budget.Budget) (*DFA, error) {
	return defaultCompiler.DFA(e, bud)
}

// CompiledAlphabet returns the cached DFA for e extended to the given
// alphabet (which must contain every name of e). The expensive part —
// Thompson construction, subset construction, minimization — is cached
// independently of the alphabet; the extension is a cheap table re-index.
func CompiledAlphabet(e regex.Expr, alphabet []regex.Name, bud *budget.Budget) (*DFA, error) {
	return defaultCompiler.DFAAlphabet(e, alphabet, bud)
}

// Stats returns the compiler cache counters.
func (cp *Compiler) Stats() cache.Stats { return cp.c.Stats() }

// Purge drops every cached entry.
func (cp *Compiler) Purge() { cp.c.Purge() }

// DFA returns the minimized DFA of e, compiling it at most once per
// canonical (simplified) form. Cache hits cost nothing; a cold compile
// charges per subset-construction state. On exhaustion nothing is cached
// and only the caller whose budget it was fails: a singleflight waiter
// compiles under its own budget instead.
func (cp *Compiler) DFA(e regex.Expr, bud *budget.Budget) (*DFA, error) {
	canon := regex.Simplify(e, nil) // the key: a hit costs nothing, a cold compile its states
	key := string(opDFA) + regex.Key(canon)
	v, _, err := cp.c.GetOrCompute(context.Background(), key, func() (any, bool, error) {
		d, err := FromExpr(canon, bud)
		if err != nil {
			return nil, false, err
		}
		m := d.Minimize()
		// A cold compile is a budget hot spot worth a trace event: the
		// note reaches the span observing this budget (see
		// budget.Observer), so a degraded request's trace shows which
		// content models were compiled and at what state cost. Cache
		// hits stay silent — they cost nothing.
		bud.NoteEvent("automata.compile", int64(len(m.Trans)))
		return m, true, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*DFA), nil
}

// DFAAlphabet is DFA extended to a larger alphabet (see CompiledAlphabet;
// the extension itself is linear and uncharged).
func (cp *Compiler) DFAAlphabet(e regex.Expr, alphabet []regex.Name, bud *budget.Budget) (*DFA, error) {
	d, err := cp.DFA(e, bud)
	if err != nil {
		return nil, err
	}
	return extendTo(d, alphabet), nil
}

// Key namespaces within the shared LRU.
const (
	opDFA     = 'd'
	opWitness = 'w'
	opEquiv   = 'q'
)

// witnessResult wraps a cached witness so that "containment holds" (nil)
// is distinguishable from "not yet computed".
type witnessResult struct{ word []regex.Name }

// Witness returns a shortest word in L(a) \ L(b), or nil when L(a) ⊆ L(b)
// (the empty word is a non-nil empty slice). Results are cached per raw
// (a, b) key; the underlying DFAs are cached per canonical form, so even a
// cold witness for a known pair of models skips compilation. The two
// compilations and the difference product all charge the budget.
func (cp *Compiler) Witness(a, b regex.Expr, bud *budget.Budget) ([]regex.Name, error) {
	w, err := cp.witness(a, b, bud)
	if err != nil || w == nil {
		return nil, err
	}
	// Copy so callers own (and may mutate) their word; the empty witness
	// must stay non-nil — nil means "contained".
	return append(make([]regex.Name, 0, len(w)), w...), nil
}

// witness returns the cached, shared witness word of (a, b): nil when
// L(a) ⊆ L(b). The key is built once, from a buffer sized for the content
// models inference asks about.
func (cp *Compiler) witness(a, b regex.Expr, bud *budget.Budget) ([]regex.Name, error) {
	var buf [256]byte
	key := string(AppendKeys(append(buf[:0], opWitness), a, b))
	v, _, err := cp.c.GetOrCompute(context.Background(), key, func() (any, bool, error) {
		alpha := unionAlphabet(a, b)
		da, err := cp.DFA(a, bud)
		if err != nil {
			return nil, false, err
		}
		db, err := cp.DFA(b, bud)
		if err != nil {
			return nil, false, err
		}
		diff, err := boolOp(extendTo(da, alpha), extendTo(db, alpha),
			func(x, y bool) bool { return x && !y }, bud)
		if err != nil {
			return nil, false, err
		}
		return witnessResult{word: diff.ShortestAccepted()}, true, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(witnessResult).word, nil
}

// containsSyntactic is the front door of containment: it answers L(a) ⊆ L(b)
// when the two trees alone decide it — exactly, in both directions — and
// reports decided = false otherwise. Equal trees denote equal languages.
// ε ∈ L(a) \ L(b) is read off Nullable, which is exact. And an expression
// without Fail has no subexpression with an empty language, so by induction
// every atom of a lies on some word of L(a): a name that b never mentions
// puts that word outside L(b). Real content models are overwhelmingly
// duplicate-free or disjunction-capsuled (PAPERS.md: XPath Satisfiability …
// Tractable, Simple Schemas for Unordered XML), and the alternatives Reduce
// compares on those differ in exactly these two ways.
func containsSyntactic(a, b regex.Expr) (contained, decided bool) {
	switch {
	case regex.Equal(a, b):
		return true, true
	case regex.Nullable(a) && !regex.Nullable(b):
		return false, true
	case failFree(a) && !mentionsAll(b, a):
		return false, true
	}
	return false, false
}

// leaves reports that ok holds of every leaf of e; an empty alternation,
// which denotes ∅, counts as a Fail leaf.
func leaves(e regex.Expr, ok func(regex.Expr) bool) bool {
	switch v := e.(type) {
	case regex.Concat:
		return !slices.ContainsFunc(v.Items, func(it regex.Expr) bool { return !leaves(it, ok) })
	case regex.Alt:
		if len(v.Items) == 0 {
			return ok(regex.Fail{})
		}
		return !slices.ContainsFunc(v.Items, func(it regex.Expr) bool { return !leaves(it, ok) })
	case regex.Star:
		return leaves(v.Sub, ok)
	case regex.Plus:
		return leaves(v.Sub, ok)
	case regex.Opt:
		return leaves(v.Sub, ok)
	}
	return ok(e)
}

func failFree(e regex.Expr) bool {
	return leaves(e, func(l regex.Expr) bool { return !regex.IsFail(l) })
}

// mentionsAll reports that every name occurring in a occurs in b.
func mentionsAll(b, a regex.Expr) bool {
	return leaves(a, func(l regex.Expr) bool {
		_, isAtom := l.(regex.Atom)
		return !isAtom || !leaves(b, func(m regex.Expr) bool { return m != l })
	})
}

// Contains reports L(a) ⊆ L(b): from the trees when they decide it,
// otherwise as "no witness exists" from the witness cache. A question the
// trees decide charges nothing.
func (cp *Compiler) Contains(a, b regex.Expr, bud *budget.Budget) (bool, error) {
	if contained, decided := containsSyntactic(a, b); decided {
		return contained, nil
	}
	w, err := cp.witness(a, b, bud)
	return err == nil && w == nil, err
}

// Equivalent reports L(a) = L(b), cached under an order-normalized key so
// Equivalent(a, b) and Equivalent(b, a) share one entry. Either direction
// refuted by the trees answers without a key; the cached automaton decides
// only pairs the trees leave open both ways.
func (cp *Compiler) Equivalent(a, b regex.Expr, bud *budget.Budget) (bool, error) {
	ab, abDecided := containsSyntactic(a, b)
	ba, baDecided := containsSyntactic(b, a)
	if abDecided || baDecided {
		// Decided and contained means equal trees; anything else decided is
		// a refutation of one direction.
		return ab && ba, nil
	}
	ka, kb := regex.Key(a), regex.Key(b)
	if kb < ka {
		ka, kb = kb, ka
		a, b = b, a
	}
	key := string(opEquiv) + ka + kb
	v, _, err := cp.c.GetOrCompute(context.Background(), key, func() (any, bool, error) {
		w, err := cp.witness(a, b, bud)
		if err != nil || w != nil {
			return false, true, err
		}
		w, err = cp.witness(b, a, bud)
		return err == nil && w == nil, true, err
	})
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}

// IsEmpty reports L(e) = ∅ using the cached DFA (the emptiness walk on a
// minimized automaton is O(states)).
func (cp *Compiler) IsEmpty(e regex.Expr, bud *budget.Budget) (bool, error) {
	d, err := cp.DFA(e, bud)
	return err == nil && d.IsEmpty(), err
}

// Match reports word ∈ L(e) using the cached DFA.
func (cp *Compiler) Match(e regex.Expr, word []regex.Name, bud *budget.Budget) (bool, error) {
	d, err := cp.DFA(e, bud)
	return err == nil && d.Match(word), err
}

// AppendKeys appends the raw regex.Key bytecodes of the expressions to dst.
// The bytecode is a prefix code, so the concatenation is injective.
func AppendKeys(dst []byte, exprs ...regex.Expr) []byte {
	for _, e := range exprs {
		dst = regex.AppendKey(dst, e)
	}
	return dst
}

// extendTo embeds d into a (deduplicated) superset alphabet: transitions on
// names unknown to d go to a fresh dead state. When the alphabets coincide
// the original DFA is returned unchanged. The result accepts exactly L(d).
func extendTo(d *DFA, alphabet []regex.Name) *DFA {
	if slices.Equal(alphabet, d.Alphabet) {
		return d
	}
	idx := make(map[regex.Name]int, len(alphabet))
	alpha := make([]regex.Name, 0, len(alphabet))
	for _, n := range alphabet {
		if _, dup := idx[n]; !dup {
			idx[n] = len(alpha)
			alpha = append(alpha, n)
		}
	}
	if slices.Equal(alpha, d.Alphabet) {
		return d
	}
	for _, n := range d.Alphabet {
		if _, ok := idx[n]; !ok {
			panic(fmt.Sprintf("automata: extension alphabet misses name %s", n))
		}
	}
	n := len(d.Trans)
	dead := n
	out := &DFA{
		Alphabet: alpha,
		index:    idx,
		Start:    d.Start,
		Trans:    make([][]int, n+1),
		Accept:   make([]bool, n+1),
	}
	copy(out.Accept, d.Accept)
	cols := make([]int, len(alpha)) // alpha index -> column in d, or -1
	for ai, nm := range alpha {
		if si, ok := d.index[nm]; ok {
			cols[ai] = si
		} else {
			cols[ai] = -1
		}
	}
	for s := 0; s < n; s++ {
		row := make([]int, len(alpha))
		for ai, col := range cols {
			if col >= 0 {
				row[ai] = d.Trans[s][col]
			} else {
				row[ai] = dead
			}
		}
		out.Trans[s] = row
	}
	deadRow := make([]int, len(alpha))
	for i := range deadRow {
		deadRow[i] = dead
	}
	out.Trans[dead] = deadRow
	return out
}
