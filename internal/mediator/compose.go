package mediator

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// ErrNotComposable reports that a query over a view cannot be rewritten
// into a query over the view's source; the caller should fall back to
// materializing the view. The composable fragment covers the common
// drill-down shape: the query's root condition matches the view root and
// has exactly one subcondition (which restricts the picked elements and
// descends to the query's own pick).
var ErrNotComposable = errors.New("mediator: query is not composable with the view definition")

// ErrEmptyComposition reports that composition succeeded trivially: the
// query can match nothing in the view (e.g. it asks for element names the
// view never picks), so the answer is empty without consulting the source.
var ErrEmptyComposition = errors.New("mediator: composed query is empty")

// Compose rewrites a pick-element query q posed against the view defined
// by viewDef into a pick-element query against the view's source — the
// query/view composition step of the mediator architecture (Section 1: the
// mediator "first combines the incoming query and the view into a query
// which refers directly to the source data"). Composition avoids
// materializing the view.
//
// Requirements (else ErrNotComposable):
//
//   - q's root condition matches the view name, carries no variable, ID or
//     string test, and has exactly one subcondition c. (With several
//     subconditions the query relates multiple picked elements, which a
//     single-pick source query cannot express when picks come from
//     different parents.)
//   - no recursive steps, in q or on the view's pick path: pick-element
//     views over fixed-length paths pick pairwise non-nested elements,
//     which is what makes the composition order- and multiplicity-
//     preserving.
//
// The composed query is viewDef's condition with c's name restriction
// intersected into the view's pick condition and c's subconditions grafted
// under it. Variables of q are renamed where they collide with viewDef's;
// c's own variable and ID variable become aliases of the view's pick.
func Compose(viewDef, q *xmas.Query) (*xmas.Query, error) {
	if errs := viewDef.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("mediator: invalid view definition: %v", errs[0])
	}
	if errs := q.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("mediator: invalid query: %v", errs[0])
	}
	if viewDef.Root.HasRecursive() || q.Root.HasRecursive() {
		return nil, ErrNotComposable
	}
	root := q.Root
	if !root.MatchesName(viewDef.Name) {
		return nil, ErrEmptyComposition // the view document root never matches
	}
	if root.Var != "" || root.IDVar != "" || root.HasText || !rootChildrenAlone(q) {
		return nil, ErrNotComposable
	}
	c := root.Children[0]

	out := viewDef.Clone()
	out.Name = q.Name
	path, err := out.PathToPick()
	if err != nil {
		return nil, err
	}
	pick := path[len(path)-1]

	// rename maps q's variables into the composed query's namespace:
	// c's own Var/IDVar alias the view's pick element; variables below c
	// keep their names unless they collide with the view's.
	used := map[string]bool{}
	for _, v := range out.Root.Vars() {
		used[v] = true
	}
	rename := map[string]string{}
	if c.Var != "" {
		rename[c.Var] = viewDef.PickVar
	}
	if c.IDVar != "" {
		if pick.IDVar != "" {
			rename[c.IDVar] = pick.IDVar
		} else if used[c.IDVar] {
			rename[c.IDVar] = viewDef.PickVar // same element; any alias works
		} else {
			pick.IDVar = c.IDVar
			used[c.IDVar] = true
		}
	}
	grafted := c.Clone()
	grafted.Var, grafted.IDVar = "", "" // aliased to the pick above
	grafted.WalkConds(func(n *xmas.Cond) {
		if n == grafted {
			return
		}
		for _, ref := range []*string{&n.Var, &n.IDVar} {
			if *ref == "" {
				continue
			}
			if used[*ref] {
				fresh := *ref
				for used[fresh] {
					fresh += "_q"
				}
				rename[*ref] = fresh
				*ref = fresh
				used[fresh] = true
			} else {
				used[*ref] = true
			}
		}
	})

	// Name restriction: intersect the view's pick names with c's.
	switch {
	case len(grafted.Names) == 0:
		// wildcard: keep the view's names
	case len(pick.Names) == 0:
		pick.Names = append([]string(nil), grafted.Names...)
	default:
		var both []string
		for _, n := range pick.Names {
			if grafted.MatchesName(n) {
				both = append(both, n)
			}
		}
		if len(both) == 0 {
			return nil, ErrEmptyComposition
		}
		pick.Names = both
	}
	if grafted.HasText {
		// A string test on the picked elements themselves.
		if len(pick.Children) > 0 {
			return nil, ErrEmptyComposition // picked elements have element content
		}
		pick.HasText = true
		pick.Text = grafted.Text
	}
	// Sibling conditions bind to distinct children (Section 4.2), so
	// merging the query's subconditions next to the view's would force
	// distinctness ACROSS the two groups — but in the view semantics the
	// view's conditions were already consumed, and one child may serve
	// both a view condition and a query condition. Composition is only
	// faithful when the groups cannot compete for the same child: their
	// name sets must be disjoint. Otherwise the caller must materialize.
	for _, vc := range pick.Children {
		for _, qc := range grafted.Children {
			if nameOverlap(vc, qc) {
				return nil, ErrNotComposable
			}
		}
	}
	pick.Children = append(pick.Children, grafted.Children...)

	// The composed pick variable is q's pick, mapped into the new
	// namespace; when q picks the view members themselves it aliases the
	// view's own pick variable.
	pv := q.PickVar
	if r, ok := rename[pv]; ok {
		pv = r
	}
	out.PickVar = pv

	// Carry q's distinctness constraints, renamed.
	for _, pair := range q.Neq {
		a, b := pair[0], pair[1]
		if r, ok := rename[a]; ok {
			a = r
		}
		if r, ok := rename[b]; ok {
			b = r
		}
		out.Neq = append(out.Neq, [2]string{a, b})
	}
	if errs := out.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("mediator: composed query invalid: %v", errs[0])
	}
	return out, nil
}

// rootChildrenAlone reports whether q takes the document root's children one
// at a time: its root condition is no recursive step and has exactly one
// subcondition, with the pick variable bound below it. An embedding then lies,
// but for the root, in one root child's subtree, "!=" variables and all: the
// subcondition is all q says about a view member (Compose), and q's picks over
// the runs of any split of the root's children concatenate (DESIGN §5l).
func rootChildrenAlone(q *xmas.Query) bool {
	return !q.Root.Recursive && len(q.Root.Children) == 1 && q.Root.Var != q.PickVar
}

// nameOverlap reports whether two conditions could match a common element
// name (wildcards overlap everything).
func nameOverlap(a, b *xmas.Cond) bool {
	if len(a.Names) == 0 || len(b.Names) == 0 {
		return true
	}
	for _, n := range a.Names {
		if b.MatchesName(n) {
			return true
		}
	}
	return false
}

// QueryComposed answers a query against a view by composing it with the
// view definition and evaluating directly against the sources — no view
// materialization. Union views compose per part. Queries outside the
// composable fragment return ErrNotComposable; the caller can then use
// Query (which materializes).
func (m *Mediator) QueryComposed(ctx context.Context, viewName string, q *xmas.Query) (*xmlmodel.Document, error) {
	v, err := m.View(viewName)
	if err != nil {
		return nil, err
	}
	root := &xmlmodel.Element{Name: q.Name}
	for _, p := range v.Parts {
		composed, err := Compose(p.Query, q)
		if errors.Is(err, ErrEmptyComposition) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		w := m.wrappers[p.Source]
		m.mu.Unlock()
		doc, err := w.Fetch(ctx)
		if err != nil {
			return nil, err
		}
		part, err := engine.Eval(composed, doc)
		if err != nil {
			return nil, err
		}
		root.Children = append(root.Children, part.Root.Children...)
	}
	return &xmlmodel.Document{DocType: q.Name, Root: root}, nil
}
