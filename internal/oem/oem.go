// Package oem implements strong dataguides (Goldman & Widom, cited as
// [GW97] in Section 5) and Lorel-style path queries: the tools of TSIMMIS,
// the mediator the paper contrasts MIX against (Section 1), whose Object
// Exchange Model carries no schema at all. Appendix A maps OEM onto the
// paper's element trees — an element with character content is an atomic
// object, one with element content a list object — so the package works on
// xmlmodel trees and has no object model of its own. It exists to make the
// paper's comparison concrete and measurable:
//
//   - queries run with no metadata are the TSIMMIS baseline;
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

	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmlmodel"
)

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

// Build constructs the strong dataguide of the given element trees, which
// must share a root label. Each element folds into the guide node of its
// label path: the node counts it, notes it atomic (character content) or a
// list (element content), and passes each child to the child node of its
// label. For trees that one pass is the whole construction: the subset
// construction of [GW97] never meets a cycle.
func Build(roots ...*xmlmodel.Element) (*DataGuide, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("oem: no objects to summarize")
	}
	label := roots[0].Name
	for _, r := range roots[1:] {
		if r.Name != label {
			return nil, fmt.Errorf("oem: root labels differ: %s vs %s", label, r.Name)
		}
	}
	root := &GuideNode{Label: label}
	for _, r := range roots {
		root.add(r)
	}
	return &DataGuide{Root: root}, nil
}

func (n *GuideNode) add(e *xmlmodel.Element) {
	n.Count++
	if e.IsText {
		n.Atomic = true
		return
	}
	n.HasList = true
	for _, k := range e.Children {
		c := n.children[k.Name]
		if c == nil {
			if n.children == nil {
				n.children = map[string]*GuideNode{}
			}
			c = &GuideNode{Label: k.Name}
			n.children[k.Name] = c
		}
		c.add(k)
	}
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
