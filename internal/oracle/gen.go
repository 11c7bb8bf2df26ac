package oracle

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The query generator. Queries are generated from a target element of a
// document — the path conditions follow its ancestor chain — so that they hit
// what the engine's anchored walk and the mediator's static analysis treat
// specially: side conditions and qualifiers competing with the path for a
// child, wildcard, disjunctive and recursive steps, variables under a
// qualifier compared with ones on the path, and same-named levels.

// Feature is one special thing a generated query can contain.
type Feature int

const (
	AncestorSide      Feature = iota // non-qualifier side condition on an ancestor of the pick
	AncestorQualifier                // qualifier on an ancestor of the pick
	Stealer                          // non-qualifier sibling declared before the path condition that can take the path's child
	NeqQualifierPath                 // != between a variable under a qualifier and one on the path
	WildcardStep                     // wildcard path step
	DisjunctiveStep                  // disjunctive path step
	RecursiveOnPath                  // recursive step on the path
	RecursiveOffPath                 // recursive side condition
	SameNamedLevels                  // pick below two consecutive same-named levels
	NumFeatures
)

var featureNames = [NumFeatures]string{
	"side condition on an ancestor", "qualifier on an ancestor",
	"sibling before the path condition that can take its child", "!= between a qualifier's and a path variable",
	"wildcard path step", "disjunctive path step", "recursive step on the path", "recursive side condition",
	"pick below two same-named levels",
}

func (f Feature) String() string { return featureNames[f] }

// Coverage counts, per feature, how often generated queries contain it.
type Coverage [NumFeatures]int

// Add counts the features of one more query.
func (c *Coverage) Add(o Coverage) {
	for f := range c {
		c[f] += o[f]
	}
}

// Gen generates queries over the documents whose element names Names lists.
type Gen struct {
	R     *rand.Rand
	Names []string // every element name of the documents, plus one they lack (NamesOf)
}

// query is the state of one query being generated: its features and its
// ID variables by where they sit.
type query struct {
	*Gen
	cov                           Coverage
	ids                           int
	pathIDs, qualifierIDs, allIDs []string
}

// Query builds a query named v whose path follows chain (root … target),
// picking the target, and reports the features it has. It returns nil when
// the draw does not make a valid query.
func (g *Gen) Query(chain []*xmlmodel.Element) (*xmas.Query, Coverage) {
	s := &query{Gen: g}
	q := s.anchoredQuery(chain)
	return q, s.cov
}

func (g *query) coin(n int) bool { return g.R.Intn(n) == 0 }

func (g *query) idVar(c *xmas.Cond, underQualifier bool) {
	g.ids++
	c.IDVar = fmt.Sprintf("I%d", g.ids)
	g.allIDs = append(g.allIDs, c.IDVar)
	if underQualifier {
		g.qualifierIDs = append(g.qualifierIDs, c.IDVar)
	}
}

func (g *query) anchoredQuery(chain []*xmlmodel.Element) *xmas.Query {
	q := &xmas.Query{Name: "v", PickVar: "P"}
	for i := 2; i < len(chain); i++ {
		if chain[i-1].Name == chain[i-2].Name {
			g.cov[SameNamedLevels]++
			break
		}
	}
	var parent *xmas.Cond
	for i := 0; i < len(chain); i++ {
		c := &xmas.Cond{Names: []string{chain[i].Name}}
		switch g.R.Intn(6) {
		case 0:
			c.Names = nil
			g.cov[WildcardStep]++
		case 1:
			if other := g.Names[g.R.Intn(len(g.Names))]; other != c.Names[0] {
				c.Names = append(c.Names, other)
				g.cov[DisjunctiveStep]++
			}
		}
		if g.coin(4) {
			// A recursive step swallows a run of the chain it names.
			c.Recursive = true
			g.cov[RecursiveOnPath]++
			for i+1 < len(chain) && c.MatchesName(chain[i+1].Name) && g.coin(2) {
				i++
			}
		}
		here, pick := chain[i], i == len(chain)-1
		if g.coin(2) {
			g.idVar(c, false)
			g.pathIDs = append(g.pathIDs, c.IDVar)
		}
		if pick && here.IsText && !c.Recursive && g.coin(2) {
			c.HasText, c.Text = true, here.Text
		} else {
			for n := g.R.Intn(3); n > 0; n-- {
				side := g.sideCond(here, chain[i+1:])
				c.Children = slices.Insert(c.Children, g.R.Intn(len(c.Children)+1), side)
				switch {
				case pick:
				case side.Qualifier:
					g.cov[AncestorQualifier]++
				default:
					g.cov[AncestorSide]++
				}
			}
		}
		if parent == nil {
			q.Root = c
		} else {
			at := g.R.Intn(len(parent.Children) + 1)
			for _, before := range parent.Children[:at] {
				if !before.Qualifier && before.MatchesName(chain[i].Name) {
					g.cov[Stealer]++
					break
				}
			}
			parent.Children = slices.Insert(parent.Children, at, c)
		}
		parent = c
	}
	parent.Var = "P"
	if len(g.qualifierIDs) > 0 && len(g.pathIDs) > 0 && g.coin(2) {
		q.Neq = append(q.Neq, [2]string{g.qualifierIDs[g.R.Intn(len(g.qualifierIDs))], g.pathIDs[g.R.Intn(len(g.pathIDs))]})
		g.cov[NeqQualifierPath]++
	}
	if len(g.allIDs) > 1 && g.coin(3) {
		a, b := g.allIDs[g.R.Intn(len(g.allIDs))], g.allIDs[g.R.Intn(len(g.allIDs))]
		if a != b {
			q.Neq = append(q.Neq, [2]string{a, b})
		}
	}
	if errs := q.Validate(); len(errs) > 0 {
		return nil
	}
	return q
}

// sideCond builds a side condition for the condition sitting on here,
// modelled on one of here's children — often the one the path continues on
// (below[0]), so that it competes with the path condition for that child.
func (g *query) sideCond(here *xmlmodel.Element, below []*xmlmodel.Element) *xmas.Cond {
	var k *xmlmodel.Element
	switch {
	case len(below) > 0 && g.coin(2):
		k = below[0]
	case len(here.Children) > 0:
		k = here.Children[g.R.Intn(len(here.Children))]
	}
	s := &xmas.Cond{Names: []string{g.Names[g.R.Intn(len(g.Names))]}, Qualifier: g.coin(3)}
	if k != nil && !g.coin(8) {
		s.Names[0] = k.Name
	}
	if g.coin(6) {
		s.Names = nil
	}
	if k == nil {
		return s
	}
	switch g.R.Intn(4) {
	case 0:
		if k.IsText {
			s.HasText, s.Text = true, k.Text
		}
	case 1, 2:
		// One subcondition, modelled on the chain's next element when k is on
		// the chain, so that its variable can collide with a path variable.
		var gk *xmlmodel.Element
		switch {
		case len(below) > 1 && k == below[0] && g.coin(2):
			gk = below[1]
		case len(k.Children) > 0:
			gk = k.Children[g.R.Intn(len(k.Children))]
		}
		if gk != nil {
			sub := &xmas.Cond{Names: []string{gk.Name}}
			if gk.IsText && g.coin(2) {
				sub.HasText, sub.Text = true, gk.Text
			}
			if g.coin(2) {
				g.idVar(sub, s.Qualifier)
			}
			s.Children = append(s.Children, sub)
		}
		if g.coin(3) {
			s.Recursive = true
			g.cov[RecursiveOffPath]++
		}
	}
	if g.coin(2) {
		g.idVar(s, s.Qualifier)
	}
	return s
}

// Chains returns, for every element under root in document order, its
// ancestor chain from root.
func Chains(root *xmlmodel.Element) [][]*xmlmodel.Element {
	var out [][]*xmlmodel.Element
	var walk func(e *xmlmodel.Element, above []*xmlmodel.Element)
	walk = func(e *xmlmodel.Element, above []*xmlmodel.Element) {
		chain := append(slices.Clone(above), e)
		out = append(out, chain)
		for _, k := range e.Children {
			walk(k, chain)
		}
	}
	walk(root, nil)
	return out
}

// NamesOf is the name pool of Gen over chains: "absent", which no document
// has, then every name the chains end on, in order of first appearance.
func NamesOf(chains [][]*xmlmodel.Element) []string {
	names := []string{"absent"}
	for _, chain := range chains {
		if name := chain[len(chain)-1].Name; !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

// Queries generates n distinct query texts over the documents of view — the
// reference's, with every source serving its k-th version, for each k —
// and adds the features of those it returns to cov. A draw whose text does
// not parse back to it (a recursive step of any name has no concrete syntax)
// is drawn again.
func (o *Oracle) Queries(r *rand.Rand, view string, n int, cov *Coverage) ([]string, error) {
	var chains [][]*xmlmodel.Element
	for k := 0; ; k++ {
		versions, more := make([]int, len(o.fleet.Sources)), false
		for i, s := range o.fleet.Sources {
			versions[i], more = k%len(s.Docs), more || k+1 < len(s.Docs)
		}
		_, text, err := o.ref.Answer(versions, view, "")
		if err != nil {
			return nil, err
		}
		doc, _, err := xmlmodel.Parse(text)
		if err != nil {
			return nil, err
		}
		chains = append(chains, Chains(doc.Root)...)
		if !more {
			break
		}
	}
	g := &Gen{R: r, Names: NamesOf(chains)}
	var out []string
	seen := map[string]bool{}
	for len(out) < n {
		q, features := g.Query(chains[r.Intn(len(chains))])
		if q == nil {
			continue
		}
		text := q.String()
		if back, err := xmas.Parse(text); err != nil || !bytes.Equal(back.AppendKey(nil), q.AppendKey(nil)) || seen[text] {
			continue
		}
		seen[text] = true
		cov.Add(features)
		out = append(out, text)
	}
	return out, nil
}
