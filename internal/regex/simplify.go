package regex

import "slices"

// Simplify rewrites e into a smaller equivalent expression using algebraic
// identities. It performs only language-preserving syntactic rewrites (the
// automata package provides semantic equivalence checks); it is what turns
// the raw output of Merge — e.g. the paper's (D10)
// "publication*, publication, publication*, publication, publication*" —
// into the readable "publication, publication+" form.
func Simplify(e Expr) Expr {
	for i := 0; i < 16; i++ { // bounded fixpoint; rewrites strictly shrink in practice
		next, kept := simplifyOnce.Rewrite(e)
		if kept || Equal(next, e) {
			return next
		}
		e = next
	}
	return e
}

// simplifyOnce is one bottom-up round of rewrites. Being a Rewriter it is
// copy-on-write: a round over an expression no rewrite applies to returns
// the expression itself and allocates nothing.
var simplifyOnce = Rewriter{
	Cat: func(items []Expr, kept bool) Expr {
		if kept && !fusible(items) {
			return catKept(items, kept)
		}
		return Cat(fuseAdjacent(items)...)
	},
	Alt: func(items []Expr, kept bool) Expr {
		if kept && !absorbable(items) {
			return orKept(items, kept)
		}
		hasEps := slices.ContainsFunc(items, IsEmptyExpr)
		items = absorbAlternatives(items)
		if !hasEps {
			return Or(items...)
		}
		// ε | r1 | r2  =  (r1 | r2)?
		rest := items[:0:0]
		for _, it := range items {
			if !IsEmptyExpr(it) {
				rest = append(rest, it)
			}
		}
		return Maybe(Or(rest...))
	},
}

// fusible reports that fuseAdjacent would merge two neighbours.
func fusible(items []Expr) bool {
	for i := 1; i < len(items); i++ {
		if Equal(toOccurrence(items[i-1]).body, toOccurrence(items[i]).body) {
			return true
		}
	}
	return false
}

// absorbable reports that the Alt rewrites have something to do: an ε
// alternative to turn into "?", or one alternative subsuming another.
func absorbable(items []Expr) bool {
	for i, a := range items {
		if IsEmptyExpr(a) {
			return true
		}
		for j, b := range items {
			if i != j && subsumes(a, b) {
				return true
			}
		}
	}
	return false
}

// occurrence is a run of a common body expression with a repetition range:
// min..max occurrences, max = -1 meaning unbounded.
type occurrence struct {
	body Expr
	min  int
	max  int // -1 = unbounded
}

func toOccurrence(e Expr) occurrence {
	switch v := e.(type) {
	case Star:
		return occurrence{body: v.Sub, min: 0, max: -1}
	case Plus:
		return occurrence{body: v.Sub, min: 1, max: -1}
	case Opt:
		return occurrence{body: v.Sub, min: 0, max: 1}
	default:
		return occurrence{body: e, min: 1, max: 1}
	}
}

func fromOccurrence(o occurrence) Expr {
	switch {
	case o.min == 0 && o.max == -1:
		return Rep(o.body)
	case o.min == 1 && o.max == -1:
		return Rep1(o.body)
	case o.max == -1:
		// min copies then star.
		items := make([]Expr, 0, o.min+1)
		for i := 0; i < o.min-1; i++ {
			items = append(items, o.body)
		}
		items = append(items, Rep1(o.body))
		return Cat(items...)
	case o.min == 0 && o.max == 1:
		return Maybe(o.body)
	case o.min == 1 && o.max == 1:
		return o.body
	default:
		items := make([]Expr, 0, o.max)
		for i := 0; i < o.min; i++ {
			items = append(items, o.body)
		}
		for i := o.min; i < o.max; i++ {
			items = append(items, Maybe(o.body))
		}
		return Cat(items...)
	}
}

// fuseAdjacent merges adjacent concatenation items that repeat the same
// body: x, x* → x+ ; x*, x* → x* ; x+, x? → x, x+ (as ranges min/max add).
// This is exactly the cleanup needed after the paper's Merge step.
func fuseAdjacent(items []Expr) []Expr {
	if len(items) < 2 {
		return items
	}
	out := make([]Expr, 0, len(items))
	cur := toOccurrence(items[0])
	for _, it := range items[1:] {
		next := toOccurrence(it)
		if Equal(cur.body, next.body) {
			cur.min += next.min
			if cur.max == -1 || next.max == -1 {
				cur.max = -1
			} else {
				cur.max += next.max
			}
			continue
		}
		out = append(out, fromOccurrence(cur))
		cur = next
	}
	out = append(out, fromOccurrence(cur))
	return out
}

// absorbAlternatives drops an alternative when another alternative clearly
// subsumes it syntactically: r absorbed by r?, r*, r+; r? and r+ absorbed
// by r*; and any item equal to another (Or dedupes those anyway).
func absorbAlternatives(items []Expr) []Expr {
	keep := make([]bool, len(items))
	for i := range keep {
		keep[i] = true
	}
	for i, a := range items {
		if !keep[i] {
			continue
		}
		for j, b := range items {
			if i == j || !keep[j] || !keep[i] {
				continue
			}
			if subsumes(a, b) {
				keep[j] = false
			}
		}
	}
	out := items[:0:0]
	for i, it := range items {
		if keep[i] {
			out = append(out, it)
		}
	}
	return out
}

// subsumes reports syntactically-evident L(b) ⊆ L(a).
func subsumes(a, b Expr) bool {
	if Equal(a, b) {
		return false // handled by dedupe; avoid dropping both
	}
	switch va := a.(type) {
	case Star:
		switch vb := b.(type) {
		case Plus:
			return Equal(va.Sub, vb.Sub)
		case Opt:
			return Equal(va.Sub, vb.Sub)
		case Empty:
			return true
		default:
			return Equal(va.Sub, b)
		}
	case Plus:
		return Equal(va.Sub, b)
	case Opt:
		if _, ok := b.(Empty); ok {
			return true
		}
		return Equal(va.Sub, b)
	}
	return false
}
