// Package regex implements regular expressions over (optionally tagged)
// element names — the content models of DTDs (Definition 2.2) and of
// specialized DTDs (Definition 3.8, "tagged regular expressions").
//
// Following the paper's notation (Section 2), expressions are built from
// names with concatenation (","), union ("|"), Kleene closure ("*"), plus
// ("+" = r,r*) and option ("?" = r|ε). Two extra constants appear during
// inference: Empty (ε, the empty sequence) and Fail (the paper's "fail"
// result, denoting the empty language ∅). The special operators ⊕ and ∥ of
// Section 4.1, which propagate and absorb fail respectively, are provided
// as OConcat and OAlt.
//
// A Name carries a specialization tag (Definition 3.8); tag 0 is the plain,
// untagged name, written without a superscript. Image strips tags
// (Definition 3.9).
//
// Ownership: expressions are immutable, item slices included, and Cat and
// Or may build their node over the very slice they are called with
// (Cat(parts...)): from then on it belongs to the result, and the caller
// must not write to it nor append into its spare capacity.
package regex

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Name is a possibly specialized element name n^Tag. Tag 0 is the plain
// name n (the paper treats n as a shortcut for n⁰).
type Name struct {
	Base string
	Tag  int
}

// N returns the untagged name n⁰.
func N(base string) Name { return Name{Base: base} }

// T returns the tagged name base^tag.
func T(base string, tag int) Name { return Name{Base: base, Tag: tag} }

// String renders the name; tags are printed with a caret: publication^1.
func (n Name) String() string {
	if n.Tag == 0 {
		return n.Base
	}
	var buf [64]byte
	return string(AppendName(buf[:0], n))
}

// AppendName appends the rendering of n to dst.
func AppendName(dst []byte, n Name) []byte {
	dst = append(dst, n.Base...)
	if n.Tag != 0 {
		dst = strconv.AppendInt(append(dst, '^'), int64(n.Tag), 10)
	}
	return dst
}

// Compare orders names by base, then tag.
func (n Name) Compare(m Name) int {
	return cmp.Or(strings.Compare(n.Base, m.Base), cmp.Compare(n.Tag, m.Tag))
}

// Expr is a regular expression over Names. Expressions are immutable:
// every operation returns new nodes and never mutates its operands, so
// subtrees may be shared freely.
type Expr interface {
	// String renders the expression in DTD content-model syntax.
	String() string
	// precedence for printing: higher binds tighter.
	prec() int
}

// Empty is ε: the language containing only the empty sequence.
type Empty struct{}

// Fail is ∅: the empty language. It is the "fail" value threaded through
// the paper's refinement algorithm (Section 4.1).
type Fail struct{}

// Atom is a single (possibly tagged) name.
type Atom struct{ Name Name }

// Concat is the sequence r1, r2, ..., rn.
type Concat struct{ Items []Expr }

// Alt is the union r1 | r2 | ... | rn. Or builds it with no two items Equal
// and relies on that of every Alt it is handed, so code builds unions with
// Or, not as literals (one with duplicates only prints them).
type Alt struct{ Items []Expr }

// Star is r*.
type Star struct{ Sub Expr }

// Plus is r+ (= r, r*).
type Plus struct{ Sub Expr }

// Opt is r? (= r | ε).
type Opt struct{ Sub Expr }

func (Empty) prec() int  { return 4 }
func (Fail) prec() int   { return 4 }
func (Atom) prec() int   { return 4 }
func (Star) prec() int   { return 3 }
func (Plus) prec() int   { return 3 }
func (Opt) prec() int    { return 3 }
func (Concat) prec() int { return 2 }
func (Alt) prec() int    { return 1 }

func (e Empty) String() string  { return text(e) }
func (e Fail) String() string   { return text(e) }
func (e Atom) String() string   { return text(e) }
func (e Concat) String() string { return text(e) }
func (e Alt) String() string    { return text(e) }
func (e Star) String() string   { return text(e) }
func (e Plus) String() string   { return text(e) }
func (e Opt) String() string    { return text(e) }

func text(e Expr) string {
	var buf [128]byte
	return string(AppendString(buf[:0], e))
}

// AppendString appends e in DTD content-model syntax to dst: what String
// returns, without the string. A sequence or alternation with no items
// renders as the constant it denotes (EMPTY, FAIL).
func AppendString(dst []byte, e Expr) []byte { return appendExpr(dst, e, 0) }

// appendExpr parenthesizes e when it binds looser than min.
func appendExpr(dst []byte, e Expr, min int) []byte {
	if e.prec() < min {
		return append(appendExpr(append(dst, '('), e, 0), ')')
	}
	switch v := e.(type) {
	case Empty:
		return append(dst, "EMPTY"...)
	case Fail:
		return append(dst, "FAIL"...)
	case Atom:
		return AppendName(dst, v.Name)
	case Concat:
		return appendItems(dst, v.Items, 3, ", ", "EMPTY")
	case Alt:
		return appendItems(dst, v.Items, 2, " | ", "FAIL")
	case Star:
		return append(appendExpr(dst, v.Sub, 4), '*')
	case Plus:
		return append(appendExpr(dst, v.Sub, 4), '+')
	case Opt:
		return append(appendExpr(dst, v.Sub, 4), '?')
	}
	panic(fmt.Sprintf("regex: unknown node %T", e))
}

func appendItems(dst []byte, items []Expr, min int, sep, none string) []byte {
	if len(items) == 0 {
		return append(dst, none...)
	}
	for i, it := range items {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = appendExpr(dst, it, min)
	}
	return dst
}

// Constructors. Cat and Or flatten nested nodes and apply the cheap
// identities involving Empty and Fail so that intermediate results stay
// small; deeper simplification is in Simplify.

// Eps is the shared ε expression.
func Eps() Expr { return Empty{} }

// Bot is the shared ∅/fail expression.
func Bot() Expr { return Fail{} }

// Nm builds an atom for the untagged name.
func Nm(base string) Expr { return Atom{Name: N(base)} }

// NmT builds an atom for a tagged name.
func NmT(base string, tag int) Expr { return Atom{Name: T(base, tag)} }

// At builds an atom for the given name.
func At(n Name) Expr { return Atom{Name: n} }

// Cat builds the concatenation of the given expressions, flattening nested
// concatenations, dropping ε items, and collapsing to Fail when any item is
// Fail (concatenation with the empty language is empty). When nothing needs
// flattening or dropping the node is built over items itself, which the
// caller must then leave alone, like any other part of an expression.
func Cat(items ...Expr) Expr {
	out, own := items, false // until own, the result so far is items[:i]
	for i, it := range items {
		subs := items[i : i+1]
		if c, nested := it.(Concat); nested {
			subs = c.Items
			if !own {
				out, own = copyUpTo(items, i), true
			}
		}
		for _, e := range subs {
			if isFail(e) {
				return Fail{}
			}
			drop := IsEmptyExpr(e)
			if drop && !own {
				out, own = copyUpTo(items, i), true
			}
			if own && !drop {
				out = append(out, e)
			}
		}
	}
	switch len(out) {
	case 0:
		return Empty{}
	case 1:
		return out[0]
	}
	return Concat{Items: out}
}

// Or builds the union of the given expressions, flattening nested unions
// and dropping Fail items (union with the empty language is identity) and
// alternatives Equal to an earlier one. A nested union's items differ among
// themselves (see Alt) and are compared with what came before it only, which
// keeps a union accumulated one alternative at a time quadratic. Like Cat,
// Or builds the node over items itself when it can.
func Or(items ...Expr) Expr {
	out, own := items, false // until own, the result so far is items[:i]
	for i, it := range items {
		before, subs := out, items[i:i+1]
		if !own {
			before = items[:i]
		}
		if a, nested := it.(Alt); nested {
			subs = a.Items
			if !own {
				out, own = copyUpTo(items, i), true
			}
		}
		for _, e := range subs {
			drop := isFail(e) || containsEqual(before, e)
			if drop && !own {
				out, own = copyUpTo(items, i), true
			}
			if own && !drop {
				out = append(out, e)
			}
		}
	}
	switch len(out) {
	case 0:
		return Fail{}
	case 1:
		return out[0]
	}
	return Alt{Items: out}
}

func copyUpTo(items []Expr, i int) []Expr {
	return append(make([]Expr, 0, len(items)), items[:i]...)
}

func containsEqual(items []Expr, e Expr) bool {
	for _, it := range items {
		if Equal(it, e) {
			return true
		}
	}
	return false
}

// Rep builds r*, applying Star identities (ε* = ε, ∅* = ε, (r*)* = r*,
// (r+)* = r*, (r?)* = r*).
func Rep(e Expr) Expr {
	switch v := e.(type) {
	case Empty, Fail:
		return Empty{}
	case Star:
		return v
	case Plus:
		return Star{Sub: v.Sub}
	case Opt:
		return Rep(v.Sub)
	}
	return Star{Sub: e}
}

// Rep1 builds r+ (∅+ = ∅, ε+ = ε, (r*)+ = r*, (r?)+ = r*, (r+)+ = r+;
// when ε ∈ L(r), r+ = r*).
func Rep1(e Expr) Expr {
	switch v := e.(type) {
	case Empty:
		return Empty{}
	case Fail:
		return Fail{}
	case Star:
		return v
	case Opt:
		return Rep(v.Sub)
	case Plus:
		return v
	}
	if Nullable(e) {
		return Rep(e)
	}
	return Plus{Sub: e}
}

// Maybe builds r? (∅? = ε, ε? = ε, (r?)? = r?, (r*)? = r*, (r+)? = r*;
// when ε ∈ L(r), the "?" is redundant and dropped).
func Maybe(e Expr) Expr {
	switch v := e.(type) {
	case Empty, Fail:
		return Empty{}
	case Opt, Star:
		return e
	case Plus:
		return Star{Sub: v.Sub}
	}
	if Nullable(e) {
		return e
	}
	return Opt{Sub: e}
}

// OConcat is the paper's ⊕ operator (Section 4.1): concatenation that
// propagates fail — if either operand is fail, the result is fail;
// otherwise it is the ordinary concatenation.
func OConcat(a, b Expr) Expr {
	if isFail(a) || isFail(b) {
		return Fail{}
	}
	return Cat(a, b)
}

// OAlt is the paper's ∥ operator (Section 4.1): union that absorbs fail —
// fail operands are dropped, and the result is fail only when both operands
// are fail.
func OAlt(a, b Expr) Expr {
	switch {
	case isFail(a) && isFail(b):
		return Fail{}
	case isFail(a):
		return b
	case isFail(b):
		return a
	}
	return Or(a, b)
}

func isFail(e Expr) bool { _, ok := e.(Fail); return ok }

// IsFail reports whether e is the fail (empty-language) constant. Note this
// is syntactic; an expression may denote ∅ without being the constant
// (use automata.IsEmpty for the semantic test).
func IsFail(e Expr) bool { return isFail(e) }

// IsEmptyExpr reports whether e is syntactically ε.
func IsEmptyExpr(e Expr) bool { _, ok := e.(Empty); return ok }

// Nullable reports whether ε ∈ L(e).
func Nullable(e Expr) bool {
	switch v := e.(type) {
	case Empty:
		return true
	case Fail:
		return false
	case Atom:
		return false
	case Concat:
		for _, it := range v.Items {
			if !Nullable(it) {
				return false
			}
		}
		return true
	case Alt:
		for _, it := range v.Items {
			if Nullable(it) {
				return true
			}
		}
		return false
	case Star, Opt:
		return true
	case Plus:
		return Nullable(v.Sub)
	}
	panic(fmt.Sprintf("regex: unknown node %T", e))
}

// Names returns the set of names occurring in e, sorted by base then tag.
func Names(e Expr) []Name { return AppendNames(make([]Name, 0, 8), e) }

// AppendNames appends Names(e) to dst: a loop over many expressions reuses
// one slice (dst[:0]) where Names would allocate one per expression.
func AppendNames(dst []Name, e Expr) []Name {
	from := len(dst)
	dst = appendNames(dst, e)
	slices.SortFunc(dst[from:], Name.Compare)
	return dst[:from+len(slices.Compact(dst[from:]))]
}

func appendNames(dst []Name, e Expr) []Name {
	switch v := e.(type) {
	case Atom:
		return append(dst, v.Name)
	case Concat:
		for _, it := range v.Items {
			dst = appendNames(dst, it)
		}
	case Alt:
		for _, it := range v.Items {
			dst = appendNames(dst, it)
		}
	case Star:
		return appendNames(dst, v.Sub)
	case Plus:
		return appendNames(dst, v.Sub)
	case Opt:
		return appendNames(dst, v.Sub)
	}
	return dst
}

// Image strips specialization tags from every name in e (Definition 3.9).
func Image(e Expr) Expr {
	return Rename(e, func(n Name) Name { return N(n.Base) })
}

// Map rebuilds e with every atom replaced by f(name); a nil f(name) keeps
// the atom. Structure nodes are rebuilt through the smart constructors, so
// identities are applied; a subtree in which f changed no atom and no
// identity applies is returned as it is, not copied. Map is the workhorse
// behind one-level extension (Definition 4.3) and the substitution steps of
// the list-inference algorithm (Appendix B).
func Map(e Expr, f func(Name) Expr) Expr {
	out, _ := (&Rewriter{Atom: f}).Rewrite(e)
	return out
}

// Rename is Map for a substitution of names by names. An atom f maps to
// itself is kept, not re-boxed, so renaming nothing allocates nothing.
func Rename(e Expr, f func(Name) Name) Expr {
	return Map(e, func(n Name) Expr {
		if m := f(n); m != n {
			return Atom{Name: m}
		}
		return nil
	})
}

// Rewriter is one bottom-up, copy-on-write pass over an expression: Map,
// Simplify's rounds and automata.Reduce are each one. Atom replaces a name
// (nil function or nil result: keep the atom). Cat and Alt build the node
// over the rewritten items of a sequence or alternation; kept says the items
// are the node's own slice, none rewritten, and only then may the result be
// nil, which keeps the node. The defaults are the smart constructors.
// Repetitions go through Rep, Rep1 and Maybe.
type Rewriter struct {
	Atom     func(Name) Expr
	Cat, Alt func(items []Expr, kept bool) Expr
}

// Rewrite returns the rewritten e; kept reports that it is e itself, no
// rewrite and no constructor identity having applied anywhere in it.
func (r *Rewriter) Rewrite(e Expr) (_ Expr, kept bool) {
	switch v := e.(type) {
	case Atom:
		if r.Atom == nil {
			return e, true
		}
		a := r.Atom(v.Name)
		if a == nil || a == e {
			return e, true
		}
		return a, false
	case Star:
		return r.unary(e, v.Sub, Rep, false)
	case Plus:
		return r.unary(e, v.Sub, Rep1, true)
	case Opt:
		return r.unary(e, v.Sub, Maybe, true)
	case Concat:
		return r.nary(e, v.Items, r.Cat, catKept)
	case Alt:
		return r.nary(e, v.Items, r.Alt, orKept)
	}
	return e, true
}

// unary keeps a repetition whose operand was kept and is one the
// constructor would only wrap again.
func (r *Rewriter) unary(e, sub Expr, wrap func(Expr) Expr, dropsNullable bool) (Expr, bool) {
	s, kept := r.Rewrite(sub)
	if kept && bare(s) && !(dropsNullable && Nullable(s)) {
		return e, true
	}
	return wrap(s), false
}

// nary rewrites the items, copying the slice at the first one that did not
// come back as itself, and hands them to build.
func (r *Rewriter) nary(e Expr, items []Expr, build, deflt func([]Expr, bool) Expr) (Expr, bool) {
	out, kept := items, true
	for i, it := range items {
		x, same := r.Rewrite(it)
		if same {
			continue
		}
		if kept {
			out, kept = slices.Clone(items), false
		}
		out[i] = x
	}
	if build == nil {
		build = deflt
	}
	if b := build(out, kept); b != nil {
		return b, false
	}
	return e, true
}

// bare reports that e is neither a constant nor under a repetition
// operator, so Rep wraps it (and Rep1 and Maybe do unless it is nullable).
func bare(e Expr) bool {
	switch e.(type) {
	case Empty, Fail, Star, Plus, Opt:
		return false
	}
	return true
}

// catKept is Cat(items...), or nil when that is the node already held: kept
// items that Cat would neither drop nor flatten.
func catKept(items []Expr, kept bool) Expr {
	for _, it := range items {
		switch it.(type) {
		case Empty, Fail, Concat:
			kept = false
		}
	}
	if kept && len(items) >= 2 {
		return nil
	}
	return Cat(items...)
}

// orKept is Or(items...), or nil when that is the node already held: kept
// items that Or would neither drop, flatten nor deduplicate.
func orKept(items []Expr, kept bool) Expr {
	for i, it := range items {
		switch it.(type) {
		case Fail, Alt:
			kept = false
		}
		kept = kept && !containsEqual(items[:i], it)
	}
	if kept && len(items) >= 2 {
		return nil
	}
	return Or(items...)
}

// Equal reports syntactic equality of two expressions. It compares
// structurally, without rendering: the simplifier calls Equal quadratically
// over alternative lists (and once per fixpoint round on the whole
// expression), so on the big disjunctions-of-interleavings that refinement
// produces, string-based comparison dominates whole-inference runtime.
func Equal(a, b Expr) bool {
	switch va := a.(type) {
	case Empty:
		_, ok := b.(Empty)
		return ok
	case Fail:
		_, ok := b.(Fail)
		return ok
	case Atom:
		vb, ok := b.(Atom)
		return ok && va.Name == vb.Name
	case Star:
		vb, ok := b.(Star)
		return ok && Equal(va.Sub, vb.Sub)
	case Plus:
		vb, ok := b.(Plus)
		return ok && Equal(va.Sub, vb.Sub)
	case Opt:
		vb, ok := b.(Opt)
		return ok && Equal(va.Sub, vb.Sub)
	case Concat:
		vb, ok := b.(Concat)
		if !ok || len(va.Items) != len(vb.Items) {
			return false
		}
		for i := range va.Items {
			if !Equal(va.Items[i], vb.Items[i]) {
				return false
			}
		}
		return true
	case Alt:
		vb, ok := b.(Alt)
		if !ok || len(va.Items) != len(vb.Items) {
			return false
		}
		for i := range va.Items {
			if !Equal(va.Items[i], vb.Items[i]) {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("regex: unknown node %T", a))
}

// Enumerate returns up to limit words of L(e) with length at most maxLen,
// in shortlex-ish order (all words of length 0, then 1, ...). It is used by
// tests to cross-check the automata constructions against a direct
// semantics, and by the tightness analyzer's bounded enumerations.
func Enumerate(e Expr, maxLen, limit int) [][]Name {
	var out [][]Name
	seen := map[string]bool{}
	for l := 0; l <= maxLen && len(out) < limit; l++ {
		for _, w := range wordsOfLen(e, l, limit-len(out)) {
			k := wordKey(w)
			if !seen[k] {
				seen[k] = true
				out = append(out, w)
			}
		}
	}
	return out
}

func wordKey(w []Name) string {
	var buf [128]byte
	key := buf[:0]
	for i, n := range w {
		if i > 0 {
			key = append(key, ' ')
		}
		key = AppendName(key, n)
	}
	return string(key)
}

// wordsOfLen returns words of exactly length l in L(e), up to limit.
func wordsOfLen(e Expr, l, limit int) [][]Name {
	if limit <= 0 {
		return nil
	}
	switch v := e.(type) {
	case Empty:
		if l == 0 {
			return [][]Name{{}}
		}
		return nil
	case Fail:
		return nil
	case Atom:
		if l == 1 {
			return [][]Name{{v.Name}}
		}
		return nil
	case Opt:
		if l == 0 {
			return [][]Name{{}}
		}
		return wordsOfLen(v.Sub, l, limit)
	case Alt:
		var out [][]Name
		for _, it := range v.Items {
			out = append(out, wordsOfLen(it, l, limit-len(out))...)
			if len(out) >= limit {
				break
			}
		}
		return dedupWords(out)
	case Concat:
		return concatWords(v.Items, l, limit)
	case Star:
		if l == 0 {
			return [][]Name{{}}
		}
		// r* with total length l: first chunk non-empty of length k, rest r*.
		var out [][]Name
		for k := 1; k <= l && len(out) < limit; k++ {
			heads := wordsOfLen(v.Sub, k, limit)
			if len(heads) == 0 {
				continue
			}
			tails := wordsOfLen(v, l-k, limit)
			for _, h := range heads {
				for _, t := range tails {
					w := append(append([]Name{}, h...), t...)
					out = append(out, w)
					if len(out) >= limit {
						break
					}
				}
				if len(out) >= limit {
					break
				}
			}
		}
		return dedupWords(out)
	case Plus:
		return wordsOfLen(Cat(v.Sub, Rep(v.Sub)), l, limit)
	}
	panic(fmt.Sprintf("regex: unknown node %T", e))
}

func concatWords(items []Expr, l, limit int) [][]Name {
	if len(items) == 0 {
		if l == 0 {
			return [][]Name{{}}
		}
		return nil
	}
	if len(items) == 1 {
		return wordsOfLen(items[0], l, limit)
	}
	var out [][]Name
	for k := 0; k <= l && len(out) < limit; k++ {
		heads := wordsOfLen(items[0], k, limit)
		if len(heads) == 0 {
			continue
		}
		tails := concatWords(items[1:], l-k, limit)
		for _, h := range heads {
			for _, t := range tails {
				w := append(append([]Name{}, h...), t...)
				out = append(out, w)
				if len(out) >= limit {
					break
				}
			}
			if len(out) >= limit {
				break
			}
		}
	}
	return dedupWords(out)
}

func dedupWords(ws [][]Name) [][]Name {
	seen := map[string]bool{}
	out := ws[:0]
	for _, w := range ws {
		k := wordKey(w)
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	return out
}

// Size returns the number of AST nodes, a rough complexity measure used in
// benchmarks and in the simplifier's "did we improve" check.
func Size(e Expr) int {
	switch v := e.(type) {
	case Empty, Fail, Atom:
		return 1
	case Concat:
		n := 1
		for _, it := range v.Items {
			n += Size(it)
		}
		return n
	case Alt:
		n := 1
		for _, it := range v.Items {
			n += Size(it)
		}
		return n
	case Star:
		return 1 + Size(v.Sub)
	case Plus:
		return 1 + Size(v.Sub)
	case Opt:
		return 1 + Size(v.Sub)
	}
	panic(fmt.Sprintf("regex: unknown node %T", e))
}
