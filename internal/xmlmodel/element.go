// Package xmlmodel implements the mathematical abstraction of XML used by
// the MIX mediator (Papakonstantinou & Velikhov, ICDE 1999, Section 2).
//
// An element is a triple (name, ID, content) where the content is either a
// sequence of child elements or a PCDATA string (Definition 2.1). The model
// deliberately excludes attributes other than ID, mixed content, empty
// (EMPTY-declared) elements and entities, exactly as the paper's Section 2
// prescribes. A document is a root element plus, optionally, the name of the
// document type (Definition 2.4); the DTD itself lives in package dtd.
//
// The package also implements structural classes (Definition 3.5): two
// documents belong to the same structural class when they are identical
// after abstracting away PCDATA values and IDs. StructureKey computes a
// canonical fingerprint of an element's structural class.
//
// Memory. Parse builds a document per document, not per node: its Elements
// and child lists are carved out of a few arrays, and a Name — and a Text
// that needed no entity decoding — is a substring of the input. Any one
// element of a parsed document therefore keeps the document alive: the
// arrays it and its descendants were carved from, and the input text. A
// child list always has cap == len, so appending to one reallocates that
// list and never touches a neighbour's. Clone copies a subtree into arrays
// of its own size, by the same rules (DESIGN.md §5j).
package xmlmodel

import (
	"fmt"
	"sort"
	"strings"
)

// Element is the paper's Definition 2.1: a name, a unique ID, and content
// that is either a sequence of elements or a PCDATA string.
//
// The zero Element has element content with an empty child list, which the
// paper distinguishes from an EMPTY element (Appendix A): it is a list
// object with no subobjects, not an atomic object.
type Element struct {
	// Name is the element type name (the tag).
	Name string
	// ID is the value of the ID attribute. The paper assumes every element
	// carries a unique ID; AssignIDs fills in fresh IDs where missing.
	ID string
	// IsText reports whether the content is a PCDATA string rather than a
	// sequence of elements.
	IsText bool
	// Text is the PCDATA content; meaningful only when IsText is true.
	Text string
	// Children is the element-content sequence; meaningful only when IsText
	// is false. A nil or empty slice is an element with empty content.
	Children []*Element
}

// Document is the paper's Definition 2.4 minus the DTD component: a root
// element together with the declared document type name. A document is
// valid when it satisfies a DTD whose document type equals the root name;
// validation lives in package dtd.
type Document struct {
	// DocType is the declared document type (the DOCTYPE name). Empty when
	// the document carried no DOCTYPE declaration.
	DocType string
	// Root is the single top-level element.
	Root *Element
}

// NewElement returns an element with element content.
func NewElement(name string, children ...*Element) *Element {
	return &Element{Name: name, Children: children}
}

// NewText returns an element with PCDATA content.
func NewText(name, text string) *Element {
	return &Element{Name: name, IsText: true, Text: text}
}

// Clone returns a deep copy of the element, preserving IDs. The copy shares
// no Element and no child list with the original — only strings, which are
// immutable — so either may be mutated without the other noticing. It is
// built per subtree, not per node: the subtree is counted once and copied
// into one []Element and one []*Element, each child list carved with
// cap == len so that appending to it reallocates instead of overwriting
// the next list. Like a parsed document, a clone is therefore kept alive
// as a whole by any one of its elements.
func (e *Element) Clone() *Element {
	if e == nil {
		return nil
	}
	elems, kids := e.count()
	c := cloner{elems: slab[Element]{free: make([]Element, elems)}, kids: slab[*Element]{free: make([]*Element, kids)}}
	return c.copy(e)
}

// count returns the number of elements and of child-list slots in the
// subtree rooted at e.
func (e *Element) count() (elems, kids int) {
	elems, kids = 1, len(e.Children)
	for _, k := range e.Children {
		if k != nil {
			ke, kk := k.count()
			elems, kids = elems+ke, kids+kk
		}
	}
	return elems, kids
}

// cloner carves a Clone out of two slabs that were made the subtree's
// size, so neither ever allocates a second chunk.
type cloner struct {
	elems slab[Element]
	kids  slab[*Element]
}

func (c *cloner) copy(e *Element) *Element {
	out := &c.elems.take(1, 0)[0]
	*out = Element{Name: e.Name, ID: e.ID, IsText: e.IsText, Text: e.Text}
	if n := len(e.Children); n > 0 {
		out.Children = c.kids.take(n, 0)
		for i, k := range e.Children {
			if k != nil {
				out.Children[i] = c.copy(k)
			}
		}
	}
	return out
}

// Equal reports whether two elements are identical, including IDs and
// PCDATA values.
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Name != o.Name || e.ID != o.ID || e.IsText != o.IsText {
		return false
	}
	if e.IsText {
		return e.Text == o.Text
	}
	if len(e.Children) != len(o.Children) {
		return false
	}
	for i := range e.Children {
		if !e.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// StructuralEqual reports whether two elements belong to the same
// structural class (Definition 3.5): equal after mapping strings to strings
// and IDs to IDs. Because documents here are trees (no IDREFs, per the
// paper's Section 2), this is equality of shapes: same names, same nesting,
// text positions aligned with text positions.
func (e *Element) StructuralEqual(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Name != o.Name || e.IsText != o.IsText {
		return false
	}
	if e.IsText {
		return true // any string maps to any string
	}
	if len(e.Children) != len(o.Children) {
		return false
	}
	for i := range e.Children {
		if !e.Children[i].StructuralEqual(o.Children[i]) {
			return false
		}
	}
	return true
}

// StructureKey returns a canonical string identifying the element's
// structural class. Two elements have the same key iff StructuralEqual.
func (e *Element) StructureKey() string {
	var b strings.Builder
	e.writeStructureKey(&b)
	return b.String()
}

func (e *Element) writeStructureKey(b *strings.Builder) {
	b.WriteByte('<')
	b.WriteString(e.Name)
	b.WriteByte('>')
	if e.IsText {
		b.WriteByte('$')
	} else {
		for _, k := range e.Children {
			k.writeStructureKey(b)
		}
	}
	b.WriteString("</>")
}

// Walk visits e and every descendant in depth-first, left-to-right
// (document) order — the order in which XMAS groups picked elements into
// the view document. Walk stops early if f returns false.
func (e *Element) Walk(f func(*Element) bool) bool {
	if e == nil {
		return true
	}
	if !f(e) {
		return false
	}
	for _, k := range e.Children {
		if !k.Walk(f) {
			return false
		}
	}
	return true
}

// Size returns the number of elements in the subtree rooted at e.
func (e *Element) Size() int {
	n := 0
	e.Walk(func(*Element) bool { n++; return true })
	return n
}

// Depth returns the height of the subtree rooted at e; a leaf has depth 1.
func (e *Element) Depth() int {
	if e == nil {
		return 0
	}
	d := 0
	for _, k := range e.Children {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// Names returns the set of element names occurring in the subtree, sorted.
func (e *Element) Names() []string {
	seen := map[string]bool{}
	e.Walk(func(x *Element) bool { seen[x.Name] = true; return true })
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AssignIDs gives a fresh, unique ID to every element in the subtree that
// lacks one, using the prefix followed by a counter. Existing IDs are kept.
// It returns an error if two elements already share an ID (the validity
// requirement of Appendix A).
func (e *Element) AssignIDs(prefix string) error {
	seen := map[string]*Element{}
	var dup error
	e.Walk(func(x *Element) bool {
		if x.ID != "" {
			if _, ok := seen[x.ID]; ok {
				dup = fmt.Errorf("xmlmodel: duplicate ID %q", x.ID)
				return false
			}
			seen[x.ID] = x
		}
		return true
	})
	if dup != nil {
		return dup
	}
	n := 0
	e.Walk(func(x *Element) bool {
		if x.ID == "" {
			for {
				id := fmt.Sprintf("%s%d", prefix, n)
				n++
				if _, taken := seen[id]; !taken {
					x.ID = id
					seen[id] = x
					break
				}
			}
		}
		return true
	})
	return nil
}

// String renders the element as compact XML. It is intended for error
// messages and tests; use Marshal for full serialization control.
func (e *Element) String() string {
	return string(render("", []*Element{e}, -1, 0))
}
