// Package browse is the substrate of the paper's "DTD-based query
// interface" (Section 1): the MIX mediator shows the user the structure of
// the view elements and lets them place conditions without knowing the
// schema by heart. The package provides the two ingredients such an
// interface needs:
//
//   - Outline renders a DTD as an annotated tree: each child name with its
//     occurrence bounds derived from the content model (the "structure
//     display");
//   - Builder constructs pick-element XMAS queries from schema paths,
//     validating every step against the DTD and reporting the available
//     alternatives on a wrong step (the "fill-in windows and menus").
package browse

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmas"
)

// Occurs describes how often a child name can occur in a parent's content:
// Min ∈ {0,1,2+} and Max ∈ {0,1,unbounded}, derived exactly from the
// content model.
type Occurs struct {
	Min int
	// Max is -1 for unbounded.
	Max int
}

// Mark renders the usual DTD-style occurrence indicator.
func (o Occurs) Mark() string {
	switch {
	case o.Min == 0 && o.Max == 1:
		return "?"
	case o.Min == 0 && o.Max == -1:
		return "*"
	case o.Min >= 1 && o.Max == -1:
		if o.Min == 1 {
			return "+"
		}
		return fmt.Sprintf("%d+", o.Min)
	case o.Min == o.Max:
		return fmt.Sprintf("%d", o.Min)
	default:
		return fmt.Sprintf("%d..%d", o.Min, o.Max)
	}
}

// Occurrences computes, for each name in the content model, the minimal
// and maximal number of occurrences over accepted words (Max capped
// symbolically: counts ≥ 2 that can grow are reported unbounded only when
// truly unbounded). The computation runs the model DFA in product with a
// {0, 1, 2, many} counter per name.
func Occurrences(model regex.Expr) map[string]Occurs {
	out := map[string]Occurs{}
	for _, n := range regex.Names(model) {
		out[n.Base] = occursOf(model, n)
	}
	return out
}

func occursOf(model regex.Expr, target regex.Name) Occurs {
	d, _ := automata.FromExpr(model, nil) // interactive summary of one model: unlimited, cannot fail
	ti, ok := d.SymbolIndex(target)
	if !ok {
		return Occurs{}
	}
	// Product state: (dfa state, count capped at 3). Count 3 = "many".
	const cap = 3
	type ps struct{ s, c int }
	seen := map[ps]bool{}
	start := ps{d.Start, 0}
	seen[start] = true
	queue := []ps{start}
	minC, maxC := -1, -1
	// Detect unboundedness: an accepting-reachable cycle that increments.
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if d.Accept[cur.s] {
			if minC == -1 || cur.c < minC {
				minC = cur.c
			}
			if cur.c > maxC {
				maxC = cur.c
			}
		}
		for ai := range d.Alphabet {
			nc := cur.c
			if ai == ti && nc < cap {
				nc++
			}
			np := ps{d.Trans[cur.s][ai], nc}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	if minC == -1 {
		return Occurs{} // empty language
	}
	o := Occurs{Min: minC, Max: maxC}
	if maxC >= cap {
		o.Max = -1
	}
	return o
}

// OutlineOptions controls rendering.
type OutlineOptions struct {
	// MaxDepth bounds the expansion depth; recursion is always cut with a
	// back-reference marker. Default 8.
	MaxDepth int
}

// Outline renders the DTD as an indented tree from the document type, with
// occurrence annotations per child and #PCDATA leaves marked. Recursive
// references print as "↩ name" and are not expanded further.
func Outline(d *dtd.DTD, opts OutlineOptions) string {
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 8
	}
	var b strings.Builder
	var walk func(name, indent string, depth int, onPath map[string]bool)
	walk = func(name, indent string, depth int, onPath map[string]bool) {
		t, declared := d.Types[name]
		if !declared {
			fmt.Fprintf(&b, "%s(undeclared)\n", indent)
			return
		}
		if t.PCDATA {
			b.WriteString(" #PCDATA\n")
			return
		}
		b.WriteString("\n")
		if depth >= opts.MaxDepth {
			fmt.Fprintf(&b, "%s…\n", indent)
			return
		}
		occ := Occurrences(t.Model)
		names := make([]string, 0, len(occ))
		for n := range occ {
			names = append(names, n)
		}
		// Preserve the content model's left-to-right order of first
		// occurrence — the order the user sees in the declaration.
		order := map[string]int{}
		pos := 0
		regex.Map(t.Model, func(n regex.Name) regex.Expr {
			if _, ok := order[n.Base]; !ok {
				order[n.Base] = pos
				pos++
			}
			return regex.At(n)
		})
		sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
		for _, n := range names {
			fmt.Fprintf(&b, "%s%s %s", indent, n, occ[n].Mark())
			if onPath[n] {
				b.WriteString(" ↩ (recursive)\n")
				continue
			}
			onPath[n] = true
			walk(n, indent+"  ", depth+1, onPath)
			delete(onPath, n)
		}
	}
	fmt.Fprintf(&b, "%s", d.Root)
	walk(d.Root, "  ", 0, map[string]bool{d.Root: true})
	return b.String()
}

// Builder constructs pick-element queries from schema paths. Every step is
// validated against the DTD as it is added; errors carry the legal
// alternatives, which is what a DTD-driven UI would display.
type Builder struct {
	d    *dtd.DTD
	pick []string // pick path steps (each a name or disjunction a|b)
	errs []error
	ops  []op
}

type op struct {
	kind  string // "where", "text", "atleast"
	path  []string
	value string
	n     int
}

// NewBuilder starts a query builder over the source DTD.
func NewBuilder(d *dtd.DTD) *Builder {
	return &Builder{d: d}
}

// Pick sets the pick path, a slash-separated chain of element names from
// the document type down to the picked elements; a step may be a
// disjunction written a|b. Example:
// "department/professor|gradStudent".
func (b *Builder) Pick(path string) *Builder {
	steps := splitPath(path)
	if len(steps) == 0 {
		b.errs = append(b.errs, fmt.Errorf("browse: empty pick path"))
		return b
	}
	b.pick = steps
	b.validatePath(steps, false)
	return b
}

// Where adds an existence condition: the slash-separated path (sharing the
// pick path's prefix where applicable) must have at least one match.
func (b *Builder) Where(path string) *Builder {
	steps := splitPath(path)
	b.validatePath(steps, false)
	b.ops = append(b.ops, op{kind: "where", path: steps})
	return b
}

// WhereText adds a string-equality condition on a PCDATA element.
func (b *Builder) WhereText(path, value string) *Builder {
	steps := splitPath(path)
	b.validatePath(steps, true)
	b.ops = append(b.ops, op{kind: "text", path: steps, value: value})
	return b
}

// WhereAtLeast requires n pairwise-distinct matches of the path's final
// step (compiled to n sibling conditions with fresh ID variables and
// pairwise != constraints — the Q2 pattern).
func (b *Builder) WhereAtLeast(path string, n int) *Builder {
	steps := splitPath(path)
	b.validatePath(steps, false)
	if n < 1 {
		b.errs = append(b.errs, fmt.Errorf("browse: WhereAtLeast needs n ≥ 1"))
	}
	b.ops = append(b.ops, op{kind: "atleast", path: steps, n: n})
	return b
}

// Err returns the accumulated validation errors.
func (b *Builder) Err() error {
	if len(b.errs) == 0 {
		return nil
	}
	return b.errs[0]
}

// Build assembles the query. The pick variable is "P".
func (b *Builder) Build(name string) (*xmas.Query, error) {
	if len(b.pick) == 0 {
		b.errs = append(b.errs, fmt.Errorf("browse: no pick path set"))
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	root := &xmas.Cond{Names: parseStep(b.pick[0])}
	// Build the pick chain.
	chain := []*xmas.Cond{root}
	cur := root
	for _, step := range b.pick[1:] {
		k := &xmas.Cond{Names: parseStep(step)}
		cur.Children = append(cur.Children, k)
		chain = append(chain, k)
		cur = k
	}
	cur.Var = "P"
	q := &xmas.Query{Name: name, PickVar: "P", Root: root}

	idCounter := 0
	freshID := func() string {
		idCounter++
		return fmt.Sprintf("B%d", idCounter)
	}
	for _, o := range b.ops {
		// Share the longest prefix that lies on the pick chain.
		shared := 0
		for shared < len(o.path) && shared < len(b.pick) && o.path[shared] == b.pick[shared] {
			shared++
		}
		if shared == 0 {
			return nil, fmt.Errorf("browse: condition path %q does not start at the document type %q",
				strings.Join(o.path, "/"), b.pick[0])
		}
		attach := chain[shared-1]
		rest := o.path[shared:]
		build := func() *xmas.Cond {
			if len(rest) == 0 {
				// The condition targets a pick-chain element itself; hang
				// the semantics off that node.
				return nil
			}
			top := &xmas.Cond{Names: parseStep(rest[0])}
			cur := top
			for _, s := range rest[1:] {
				k := &xmas.Cond{Names: parseStep(s)}
				cur.Children = append(cur.Children, k)
				cur = k
			}
			return top
		}
		switch o.kind {
		case "where":
			top := build()
			if top == nil {
				continue // existence of a pick-chain element is implied
			}
			attach.Children = append(attach.Children, top)
		case "text":
			top := build()
			if top == nil {
				if len(attach.Children) > 0 {
					return nil, fmt.Errorf("browse: text condition on non-leaf %q", strings.Join(o.path, "/"))
				}
				attach.HasText, attach.Text = true, o.value
				continue
			}
			leaf := top
			for len(leaf.Children) > 0 {
				leaf = leaf.Children[0]
			}
			leaf.HasText, leaf.Text = true, o.value
			attach.Children = append(attach.Children, top)
		case "atleast":
			var ids []string
			for i := 0; i < o.n; i++ {
				top := build()
				if top == nil {
					return nil, fmt.Errorf("browse: WhereAtLeast needs a path below the pick chain")
				}
				top.IDVar = freshID()
				ids = append(ids, top.IDVar)
				attach.Children = append(attach.Children, top)
			}
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					q.Neq = append(q.Neq, [2]string{ids[i], ids[j]})
				}
			}
		}
	}
	if errs := q.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("browse: built query invalid: %v", errs[0])
	}
	return q, nil
}

// validatePath checks each step against the DTD: names declared, each step
// reachable from its parent's content model. Errors include the legal
// children — the menu a UI would show.
func (b *Builder) validatePath(steps []string, wantPCDATA bool) {
	if len(steps) == 0 {
		b.errs = append(b.errs, fmt.Errorf("browse: empty path"))
		return
	}
	first := parseStep(steps[0])
	for _, n := range first {
		if n != b.d.Root {
			b.errs = append(b.errs, fmt.Errorf("browse: path must start at the document type %q, got %q", b.d.Root, n))
			return
		}
	}
	parents := first
	for _, step := range steps[1:] {
		names := parseStep(step)
		for _, n := range names {
			if _, declared := b.d.Types[n]; !declared {
				b.errs = append(b.errs, fmt.Errorf("browse: %q is not declared; children of %s are: %s",
					n, strings.Join(parents, "|"), strings.Join(b.childrenOf(parents), ", ")))
				return
			}
			if !b.reachableFromAny(parents, n) {
				b.errs = append(b.errs, fmt.Errorf("browse: %q is not a child of %s; legal children: %s",
					n, strings.Join(parents, "|"), strings.Join(b.childrenOf(parents), ", ")))
				return
			}
		}
		parents = names
	}
	if wantPCDATA {
		for _, n := range parents {
			if t, ok := b.d.Types[n]; !ok || !t.PCDATA {
				b.errs = append(b.errs, fmt.Errorf("browse: %q does not hold character data; a string condition needs a #PCDATA element", n))
				return
			}
		}
	}
}

func (b *Builder) reachableFromAny(parents []string, child string) bool {
	for _, p := range parents {
		t, ok := b.d.Types[p]
		if !ok || t.PCDATA {
			continue
		}
		for _, m := range regex.Names(t.Model) {
			if m.Base == child {
				return true
			}
		}
	}
	return false
}

func (b *Builder) childrenOf(parents []string) []string {
	set := map[string]bool{}
	for _, p := range parents {
		t, ok := b.d.Types[p]
		if !ok || t.PCDATA {
			continue
		}
		for _, m := range regex.Names(t.Model) {
			set[m.Base] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func splitPath(path string) []string {
	var out []string
	for _, s := range strings.Split(path, "/") {
		s = strings.TrimSpace(s)
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

func parseStep(step string) []string {
	var out []string
	for _, s := range strings.Split(step, "|") {
		s = strings.TrimSpace(s)
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}
