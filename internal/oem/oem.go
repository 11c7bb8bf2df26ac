// Package oem implements the Object Exchange Model — the semistructured
// data model of TSIMMIS, the mediator the paper contrasts MIX against
// (Section 1) — together with strong dataguides (Goldman & Widom, cited as
// [GW97] in Section 5). It exists to make the paper's comparison concrete
// and measurable:
//
//   - OEM carries no schema at all ("living without structure"): the
//     benchmarks run queries with no metadata as the TSIMMIS baseline;
//   - dataguides summarize label paths but "do not capture constraints on
//     order and cardinality and they do not capture constraints on the
//     siblings" (Section 5) — converting a dataguide to a DTD-like
//     description makes this loss quantifiable against inferred view DTDs;
//   - dataguides "do not require the same type name to define the same
//     type, so in this respect dataguides are similar to s-DTDs"
//     (Section 5): the conversion naturally produces a specialized DTD
//     with one specialization per guide node.
package oem

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmlmodel"
)

// Object is an OEM object: a label and either an atomic value or a list of
// subobjects. (Appendix A: an XML element with character content maps to
// an atomic object; element content maps to a list object.)
type Object struct {
	Label    string
	Atomic   bool
	Value    string
	Children []*Object
}

// FromXML converts an element tree into an OEM object tree.
func FromXML(e *xmlmodel.Element) *Object {
	if e.IsText {
		return &Object{Label: e.Name, Atomic: true, Value: e.Text}
	}
	o := &Object{Label: e.Name}
	for _, k := range e.Children {
		o.Children = append(o.Children, FromXML(k))
	}
	return o
}

// ToXML converts an OEM object tree back into an element tree.
func (o *Object) ToXML() *xmlmodel.Element {
	if o.Atomic {
		return xmlmodel.NewText(o.Label, o.Value)
	}
	e := xmlmodel.NewElement(o.Label)
	for _, k := range o.Children {
		e.Children = append(e.Children, k.ToXML())
	}
	return e
}

// Size counts objects in the tree.
func (o *Object) Size() int {
	n := 1
	for _, k := range o.Children {
		n += k.Size()
	}
	return n
}

// String renders the object in the braces notation of the OEM literature.
func (o *Object) String() string {
	var b strings.Builder
	o.write(&b)
	return b.String()
}

func (o *Object) write(b *strings.Builder) {
	b.WriteString(o.Label)
	if o.Atomic {
		fmt.Fprintf(b, " %q", o.Value)
		return
	}
	b.WriteString(" {")
	for i, k := range o.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		k.write(b)
	}
	b.WriteString("}")
}

// GuideNode is a node of a strong dataguide: it summarizes the set of
// objects reachable by one label path.
type GuideNode struct {
	Label string
	// Atomic / HasList report whether some summarized object is atomic /
	// a list; both can hold at once (OEM imposes no homogeneity).
	Atomic  bool
	HasList bool
	// Count is the number of objects this node summarizes (a dataguide
	// annotation, useful for selectivity).
	Count    int
	children map[string]*GuideNode
}

// Children returns the child guide nodes sorted by label.
func (n *GuideNode) Children() []*GuideNode {
	labels := make([]string, 0, len(n.children))
	for l := range n.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]*GuideNode, len(labels))
	for i, l := range labels {
		out[i] = n.children[l]
	}
	return out
}

// Child returns the child guide node for a label, or nil.
func (n *GuideNode) Child(label string) *GuideNode { return n.children[label] }

// DataGuide is a strong dataguide over tree-shaped OEM data: every label
// path of the data occurs exactly once in the guide, and each guide node
// stands for the set of all objects reachable by its path.
type DataGuide struct {
	Root *GuideNode
}

// Build constructs the strong dataguide of the given objects, which must
// share a root label. For trees the construction is a simple simultaneous
// grouping of object sets by child label (the subset construction of
// [GW97] never meets a cycle).
func Build(roots ...*Object) (*DataGuide, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("oem: no objects to summarize")
	}
	label := roots[0].Label
	for _, r := range roots[1:] {
		if r.Label != label {
			return nil, fmt.Errorf("oem: root labels differ: %s vs %s", label, r.Label)
		}
	}
	return &DataGuide{Root: buildNode(label, roots)}, nil
}

func buildNode(label string, objs []*Object) *GuideNode {
	n := &GuideNode{Label: label, Count: len(objs), children: map[string]*GuideNode{}}
	groups := map[string][]*Object{}
	for _, o := range objs {
		if o.Atomic {
			n.Atomic = true
			continue
		}
		n.HasList = true
		for _, k := range o.Children {
			groups[k.Label] = append(groups[k.Label], k)
		}
	}
	for l, g := range groups {
		n.children[l] = buildNode(l, g)
	}
	return n
}

// Paths returns every label path of the guide as "a.b.c" strings, sorted.
// The root label is included as the first segment.
func (dg *DataGuide) Paths() []string {
	var out []string
	var walk func(n *GuideNode, prefix string)
	walk = func(n *GuideNode, prefix string) {
		p := prefix + n.Label
		out = append(out, p)
		for _, k := range n.Children() {
			walk(k, p+".")
		}
	}
	walk(dg.Root, "")
	sort.Strings(out)
	return out
}

// ToSDTD renders the dataguide as a specialized DTD: one specialization per
// guide node (dataguide nodes of the same label need not share a type —
// Section 5's observation), with content model (m1 | … | mk)* over the
// child specializations: order-free, cardinality-free, sibling-free, which
// is exactly the information dataguides lack compared to DTDs. A node with
// both atomic and list instances gets two specializations, and parents
// reference both.
func (dg *DataGuide) ToSDTD() *sdtd.SDTD {
	next := map[string]int{}
	tags := map[*GuideNode][]regex.Name{}
	var assign func(n *GuideNode)
	assign = func(n *GuideNode) {
		names := []regex.Name{regex.T(n.Label, next[n.Label])}
		next[n.Label]++
		if n.Atomic && n.HasList {
			names = append(names, regex.T(n.Label, next[n.Label]))
			next[n.Label]++
		}
		tags[n] = names
		for _, k := range n.Children() {
			assign(k)
		}
	}
	assign(dg.Root)

	out := sdtd.New(tags[dg.Root][0])
	var declare func(n *GuideNode)
	declare = func(n *GuideNode) {
		names := tags[n]
		switch {
		case n.Atomic && !n.HasList:
			out.Declare(names[0], dtd.PC())
		case n.Atomic && n.HasList:
			// names[0] is the list form, names[1] the atomic form.
			out.Declare(names[0], dtd.M(guideModel(n, tags)))
			out.Declare(names[1], dtd.PC())
		default:
			out.Declare(names[0], dtd.M(guideModel(n, tags)))
		}
		for _, k := range n.Children() {
			declare(k)
		}
	}
	declare(dg.Root)
	return out
}

func guideModel(n *GuideNode, tags map[*GuideNode][]regex.Name) regex.Expr {
	var alts []regex.Expr
	for _, k := range n.Children() {
		for _, name := range tags[k] {
			alts = append(alts, regex.At(name))
		}
	}
	if len(alts) == 0 {
		return regex.Eps()
	}
	return regex.Rep(regex.Or(alts...))
}

// ToDTD merges the dataguide s-DTD into a plain DTD — the flattest
// schema-like artifact a dataguide supports; merge events report where
// same-label nodes with different shapes collapsed.
func (dg *DataGuide) ToDTD() (*dtd.DTD, []sdtd.MergeEvent, error) {
	return dg.ToSDTD().Merge(nil) // a dataguide is built from data, not from a hostile schema
}
