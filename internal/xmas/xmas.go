// Package xmas implements the pick-element fragment of XMAS (XML Matching
// And Structuring), the MIX mediator's query and view definition language
// (Section 2.1). A pick-element query has a SELECT clause with a single
// pick-variable that binds to elements, and a WHERE clause with a single
// tree containment condition applied to one source, plus "!=" constraints
// stating that the IDs of two bound elements differ — the only form of
// negation the language allows.
//
// The concrete syntax follows the paper's examples:
//
//	withJournals =
//	  SELECT P
//	  WHERE <department><name>CS</name>
//	          P:<professor|gradStudent>
//	             <publication id=Pub1><journal></journal></publication>
//	             <publication id=Pub2><journal></journal></publication>
//	          </>
//	        </>
//	  AND Pub1 != Pub2
//
// Element name positions may hold a single name, a disjunction of names
// (professor|gradStudent), or the wildcard * which stands for a variable
// not used elsewhere — the paper's preprocessing replaces it by the
// disjunction of all names in the source DTD. A trailing star inside the
// angle brackets, as in <section*>, denotes a recursive path step
// (Example 3.5): the condition applies at any depth along a chain of
// same-named elements. Inference rejects recursive steps (Section 4.4,
// footnote 9); the query engine evaluates them.
//
// A subcondition wrapped in square brackets, as in
// <professor>[<publication/>]</>, is a qualifier: an existential filter in
// the style of XPath qualifiers. It requires only that some child satisfy
// it and is exempt from the distinct-children reading of regular sibling
// conditions, so it never competes with siblings for witnesses.
package xmas

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Query is a pick-element XMAS query or view definition. A view is a query
// that has been given a name under which the mediator exports it.
type Query struct {
	// Name is the view document name preceding "=". The root element of
	// the result document carries this name. Defaults to "answer".
	Name string
	// PickVar is the SELECT variable; it must be bound exactly once in the
	// condition tree.
	PickVar string
	// Root is the tree condition of the WHERE clause.
	Root *Cond
	// Neq lists pairs of ID variables constrained to be distinct
	// ("Pub1 != Pub2").
	Neq [][2]string
}

// Cond is one node of a tree containment condition.
type Cond struct {
	// Names is the disjunction of element names this condition matches;
	// empty means the wildcard * (any name).
	Names []string
	// Recursive marks a recursive path step: <name*>. The condition then
	// matches name-elements at any nesting depth along a chain of elements
	// drawn from Names.
	Recursive bool
	// Var is the element variable bound to the matched element ("P:<...>").
	Var string
	// IDVar is the variable bound to the matched element's ID
	// ("id=Pub1"). Both Var and IDVar identify elements for the purpose of
	// "!=" constraints.
	IDVar string
	// HasText marks a string-content condition; Text is the required
	// PCDATA value (<name>CS</name>).
	HasText bool
	Text    string
	// Qualifier marks an existential filter condition, written in square
	// brackets: <professor>[<publication/>]</>. A qualifier only tests
	// that SOME child of the parent's match satisfies it — unlike regular
	// sibling conditions it is exempt from the distinct-children
	// assumption of Section 4.2, so several qualifiers (or a qualifier
	// and a regular sibling) may be witnessed by the same child element.
	// Qualifiers are the XMAS analogue of XPath qualifiers, whose
	// satisfiability stays tractable for real-world DTD classes.
	Qualifier bool
	// Children are the subconditions; each non-qualifier child must be
	// matched by a distinct child of the matched element (the paper's
	// Section 4.2 assumption that no two sibling conditions bind to the
	// same element).
	Children []*Cond
}

// Vars collects every element/ID variable bound in the subtree.
func (c *Cond) Vars() []string {
	set := map[string]bool{}
	c.walk(func(n *Cond) {
		if n.Var != "" {
			set[n.Var] = true
		}
		if n.IDVar != "" {
			set[n.IDVar] = true
		}
	})
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (c *Cond) walk(f func(*Cond)) {
	f(c)
	for _, k := range c.Children {
		k.walk(f)
	}
}

// WalkConds visits c and every descendant condition in preorder.
func (c *Cond) WalkConds(f func(*Cond)) { c.walk(f) }

// HasRecursive reports whether any condition in the subtree is a recursive
// path step.
func (c *Cond) HasRecursive() bool {
	found := false
	c.walk(func(n *Cond) { found = found || n.Recursive })
	return found
}

// MatchesName reports whether the condition's name position admits the
// given element name.
func (c *Cond) MatchesName(name string) bool {
	if len(c.Names) == 0 {
		return true // wildcard
	}
	for _, n := range c.Names {
		if n == name {
			return true
		}
	}
	return false
}

// Validate checks the well-formedness rules of pick-element queries:
// the pick variable is bound exactly once; no variable is bound twice;
// "!=" constraints refer to bound variables; string conditions have no
// subconditions. It returns all problems found.
func (q *Query) Validate() []error {
	var errs []error
	if q.PickVar == "" {
		errs = append(errs, fmt.Errorf("xmas: query has no pick variable"))
	}
	if q.Root == nil {
		errs = append(errs, fmt.Errorf("xmas: query has no condition"))
		return errs
	}
	if q.Root.Qualifier {
		errs = append(errs, fmt.Errorf("xmas: the root condition cannot be a qualifier"))
	}
	bound := map[string]int{}
	var inQualifier func(n *Cond, inside bool)
	inQualifier = func(n *Cond, inside bool) {
		if n.Var == q.PickVar && q.PickVar != "" && inside {
			errs = append(errs, fmt.Errorf("xmas: pick variable %s cannot be bound inside a qualifier", q.PickVar))
		}
		for _, k := range n.Children {
			inQualifier(k, inside || k.Qualifier)
		}
	}
	inQualifier(q.Root, false)
	q.Root.walk(func(n *Cond) {
		if n.Var != "" {
			bound[n.Var]++
		}
		if n.IDVar != "" {
			bound[n.IDVar]++
		}
		if n.HasText && len(n.Children) > 0 {
			errs = append(errs, fmt.Errorf("xmas: condition %s mixes a string value with subconditions", n.head()))
		}
		if n.HasText && n.Recursive {
			errs = append(errs, fmt.Errorf("xmas: recursive condition %s cannot carry a string value", n.head()))
		}
	})
	for v, k := range bound {
		if k > 1 {
			errs = append(errs, fmt.Errorf("xmas: variable %s bound %d times", v, k))
		}
	}
	if q.PickVar != "" && bound[q.PickVar] != 1 {
		errs = append(errs, fmt.Errorf("xmas: pick variable %s is not bound in the condition", q.PickVar))
	}
	for _, pair := range q.Neq {
		for _, v := range pair {
			if bound[v] == 0 {
				errs = append(errs, fmt.Errorf("xmas: != constraint references unbound variable %s", v))
			}
		}
		if pair[0] == pair[1] {
			errs = append(errs, fmt.Errorf("xmas: constraint %s != %s is unsatisfiable", pair[0], pair[1]))
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}

// PathToPick returns the chain of conditions from the root to the pick
// condition, inclusive. The pick-element shape guarantees the chain is
// unique when Validate passes.
func (q *Query) PathToPick() ([]*Cond, error) {
	var path []*Cond
	var find func(c *Cond, acc []*Cond) bool
	find = func(c *Cond, acc []*Cond) bool {
		acc = append(acc, c)
		if c.Var == q.PickVar && q.PickVar != "" {
			path = append([]*Cond(nil), acc...)
			return true
		}
		for _, k := range c.Children {
			if find(k, acc) {
				return true
			}
		}
		return false
	}
	if q.Root == nil || !find(q.Root, nil) {
		return nil, fmt.Errorf("xmas: pick variable %s not found in condition", q.PickVar)
	}
	return path, nil
}

// head renders the opening tag of a condition for diagnostics.
func (c *Cond) head() string {
	var b strings.Builder
	if c.Var != "" {
		b.WriteString(c.Var)
		b.WriteByte(':')
	}
	b.WriteByte('<')
	if len(c.Names) == 0 {
		b.WriteByte('*')
	} else {
		b.WriteString(strings.Join(c.Names, "|"))
	}
	if c.Recursive {
		b.WriteByte('*')
	}
	if c.IDVar != "" {
		b.WriteString(" id=")
		b.WriteString(c.IDVar)
	}
	b.WriteByte('>')
	return b.String()
}

// String renders the query in the paper's concrete syntax; the result
// parses back to an equivalent query.
func (q *Query) String() string {
	var b strings.Builder
	if q.Name != "" {
		fmt.Fprintf(&b, "%s =\n", q.Name)
	}
	fmt.Fprintf(&b, "SELECT %s\nWHERE ", q.PickVar)
	writeCond(&b, q.Root, 1)
	for _, pair := range q.Neq {
		fmt.Fprintf(&b, "\nAND %s != %s", pair[0], pair[1])
	}
	return b.String()
}

func writeCond(b *strings.Builder, c *Cond, level int) {
	b.WriteString(c.head())
	switch {
	case c.HasText:
		b.WriteString(c.Text)
	case len(c.Children) > 0:
		for _, k := range c.Children {
			b.WriteByte('\n')
			b.WriteString(strings.Repeat("  ", level))
			if k.Qualifier {
				b.WriteByte('[')
				writeCond(b, k, level+1)
				b.WriteByte(']')
				continue
			}
			writeCond(b, k, level+1)
		}
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("  ", level-1))
	}
	b.WriteString("</>")
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{Name: q.Name, PickVar: q.PickVar}
	c.Neq = append([][2]string(nil), q.Neq...)
	c.Root = q.Root.Clone()
	return c
}

// Clone returns a deep copy of the condition tree.
func (c *Cond) Clone() *Cond {
	if c == nil {
		return nil
	}
	out := &Cond{
		Names:     append([]string(nil), c.Names...),
		Recursive: c.Recursive,
		Var:       c.Var,
		IDVar:     c.IDVar,
		HasText:   c.HasText,
		Text:      c.Text,
		Qualifier: c.Qualifier,
	}
	for _, k := range c.Children {
		out.Children = append(out.Children, k.Clone())
	}
	return out
}

// AppendKey appends to dst an encoding of every field of the query tree and
// returns the extended slice: two queries get equal encodings exactly when
// their trees are equal, sibling order, variable names and text values
// included. Every string is length-framed and every list count-framed (a
// prefix code, like regex.AppendKey), so the encoding stays injective when
// something is put in front of it or behind it. A field added to Query or
// Cond belongs here as it belongs in Clone (TestKeyCoversEveryField counts
// them).
func (q *Query) AppendKey(dst []byte) []byte {
	dst = appendKeyString(dst, q.Name)
	dst = appendKeyString(dst, q.PickVar)
	dst = binary.AppendUvarint(dst, uint64(len(q.Neq)))
	for _, pair := range q.Neq {
		dst = appendKeyString(dst, pair[0])
		dst = appendKeyString(dst, pair[1])
	}
	return q.Root.appendKey(dst)
}

// Flag bits of a condition's key; keyNilCond stands for a missing condition
// and is no combination of the others.
const (
	keyRecursive byte = 1 << iota
	keyHasText
	keyQualifier
	keyNilCond byte = 0xff
)

func (c *Cond) appendKey(dst []byte) []byte {
	if c == nil {
		return append(dst, keyNilCond)
	}
	var flags byte
	if c.Recursive {
		flags |= keyRecursive
	}
	if c.HasText {
		flags |= keyHasText
	}
	if c.Qualifier {
		flags |= keyQualifier
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(c.Names)))
	for _, n := range c.Names {
		dst = appendKeyString(dst, n)
	}
	dst = appendKeyString(dst, c.Var)
	dst = appendKeyString(dst, c.IDVar)
	dst = appendKeyString(dst, c.Text)
	dst = binary.AppendUvarint(dst, uint64(len(c.Children)))
	for _, k := range c.Children {
		dst = k.appendKey(dst)
	}
	return dst
}

func appendKeyString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
