package oem

import (
	"fmt"
	"strings"

	"repro/internal/xmlmodel"
)

// Path queries over element trees read as OEM — the Lorel-style access
// pattern of the TSIMMIS world, included to make the paper's Section 5
// comparison executable: Goldman & Widom's dataguides exist to answer and
// optimize exactly these queries. A path is a sequence of steps, each a
// label, a disjunction "a|b", or the wildcard "%"; a step with a trailing
// "*" is recursive (any chain of matching labels), mirroring the XMAS
// <name*> step.
//
// PathQuery.Eval walks the data; Eval with a DataGuide first checks the
// path against the guide and prunes impossible paths without touching the
// data — the dataguide counterpart of the MIX query simplifier, which the
// benchmarks compare against the DTD-based one.

// PathStep is one step of a path query.
type PathStep struct {
	// Labels this step matches; empty = wildcard.
	Labels []string
	// Recursive marks a descent over a chain of matching labels.
	Recursive bool
}

func (s PathStep) matches(label string) bool {
	if len(s.Labels) == 0 {
		return true
	}
	for _, l := range s.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// PathQuery selects every element reachable from the root by the steps.
type PathQuery struct {
	Steps []PathStep
}

// ParsePath parses "department.professor|gradStudent.publication" style
// paths; "%" is the wildcard and a step suffixed "*" is recursive.
func ParsePath(s string) (*PathQuery, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("oem: empty path")
	}
	q := &PathQuery{}
	for _, part := range strings.Split(s, ".") {
		part = strings.TrimSpace(part)
		step := PathStep{}
		if strings.HasSuffix(part, "*") {
			step.Recursive = true
			part = strings.TrimSuffix(part, "*")
		}
		if part == "" {
			return nil, fmt.Errorf("oem: empty path step in %q", s)
		}
		if part != "%" {
			for _, l := range strings.Split(part, "|") {
				l = strings.TrimSpace(l)
				if l == "" {
					return nil, fmt.Errorf("oem: empty label in step %q", part)
				}
				if strings.ContainsAny(l, "*%") {
					return nil, fmt.Errorf("oem: bad label %q ('*' only as a step suffix, '%%' only alone)", l)
				}
				step.Labels = append(step.Labels, l)
			}
		}
		q.Steps = append(q.Steps, step)
	}
	return q, nil
}

// String renders the path in the input syntax.
func (q *PathQuery) String() string {
	parts := make([]string, len(q.Steps))
	for i, s := range q.Steps {
		p := "%"
		if len(s.Labels) > 0 {
			p = strings.Join(s.Labels, "|")
		}
		if s.Recursive {
			p += "*"
		}
		parts[i] = p
	}
	return strings.Join(parts, ".")
}

// Eval returns the elements selected by the path, in document order. The
// first step matches the root element itself.
func (q *PathQuery) Eval(root *xmlmodel.Element) []*xmlmodel.Element {
	cur := []*xmlmodel.Element{}
	if len(q.Steps) > 0 && q.Steps[0].matches(root.Name) {
		cur = expandStep(q.Steps[0], root)
	}
	for _, step := range q.Steps[1:] {
		var next []*xmlmodel.Element
		for _, e := range cur {
			for _, k := range e.Children {
				if step.matches(k.Name) {
					next = append(next, expandStep(step, k)...)
				}
			}
		}
		cur = dedupe(next)
	}
	return cur
}

func expandStep(step PathStep, e *xmlmodel.Element) []*xmlmodel.Element {
	if !step.Recursive {
		return []*xmlmodel.Element{e}
	}
	var out []*xmlmodel.Element
	var walk func(x *xmlmodel.Element)
	walk = func(x *xmlmodel.Element) {
		out = append(out, x)
		for _, k := range x.Children {
			if step.matches(k.Name) {
				walk(k)
			}
		}
	}
	walk(e)
	return out
}

// dedupe drops the repeats of xs, keeping first occurrences in order.
func dedupe[T comparable](xs []T) []T {
	seen := map[T]bool{}
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// Satisfiable reports whether the path can select anything according to
// the dataguide: the guide-side pre-check that lets a TSIMMIS-style
// processor skip data access for impossible paths ([GW97]'s use of
// dataguides in query optimization). It is exact for non-recursive paths
// over the data the guide summarizes; recursive steps are approximated
// conservatively (assumed satisfiable when any chain can start).
func (dg *DataGuide) Satisfiable(q *PathQuery) bool {
	if len(q.Steps) == 0 || !q.Steps[0].matches(dg.Root.Label) {
		return false
	}
	cur := expandGuideStep(q.Steps[0], dg.Root)
	for _, step := range q.Steps[1:] {
		var next []*GuideNode
		for _, n := range cur {
			for _, k := range n.Children() {
				if step.matches(k.Label) {
					next = append(next, expandGuideStep(step, k)...)
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = dedupe(next)
	}
	return true
}

func expandGuideStep(step PathStep, n *GuideNode) []*GuideNode {
	if !step.Recursive {
		return []*GuideNode{n}
	}
	var out []*GuideNode
	seen := map[*GuideNode]bool{}
	var walk func(x *GuideNode)
	walk = func(x *GuideNode) {
		if seen[x] {
			return
		}
		seen[x] = true
		out = append(out, x)
		for _, k := range x.Children() {
			if step.matches(k.Label) {
				walk(k)
			}
		}
	}
	walk(n)
	return out
}

// EvalWithGuide evaluates the path, first consulting the dataguide: an
// unsatisfiable path returns nil without touching the data.
func (q *PathQuery) EvalWithGuide(root *xmlmodel.Element, dg *DataGuide) []*xmlmodel.Element {
	if dg != nil && !dg.Satisfiable(q) {
		return nil
	}
	return q.Eval(root)
}
