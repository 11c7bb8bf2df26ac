package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The differential test of the anchored walk. Queries are generated from a
// target element of the document — the path conditions follow its ancestor
// chain — so that they hit what the anchoring treats specially, and the
// engine's picks are compared with the brute-force oracle's as element
// identities in order.

// coverage counts the generated queries that have each special feature;
// the test fails if the generator stops producing one of them.
type coverage struct {
	ancestorSide      int // non-qualifier side condition on an ancestor of the pick
	ancestorQualifier int // qualifier on an ancestor of the pick
	stealer           int // non-qualifier sibling declared before the path condition that can take the path's child
	neqQualifierPath  int // != between a variable under a qualifier and one on the path
	wildcardStep      int // wildcard path step
	disjunctiveStep   int // disjunctive path step
	recursiveOnPath   int // recursive step on the path
	recursiveOffPath  int // recursive side condition
	sameNamedLevels   int // pick below two consecutive same-named levels
	nonEmpty          int // queries with at least one pick
}

type queryGen struct {
	r     *rand.Rand
	cov   *coverage
	names []string // every element name of the document, plus one it lacks
	ids   int
	// IDVars by where they sit.
	pathIDs, qualifierIDs, allIDs []string
}

func (g *queryGen) coin(n int) bool { return g.r.Intn(n) == 0 }

func (g *queryGen) idVar(c *xmas.Cond, underQualifier bool) {
	g.ids++
	c.IDVar = fmt.Sprintf("I%d", g.ids)
	g.allIDs = append(g.allIDs, c.IDVar)
	if underQualifier {
		g.qualifierIDs = append(g.qualifierIDs, c.IDVar)
	}
}

// anchoredQuery builds a query whose path follows chain (root … target).
func (g *queryGen) anchoredQuery(chain []*xmlmodel.Element) *xmas.Query {
	q := &xmas.Query{Name: "v", PickVar: "P"}
	for i := 2; i < len(chain); i++ {
		if chain[i-1].Name == chain[i-2].Name {
			g.cov.sameNamedLevels++
			break
		}
	}
	var parent *xmas.Cond
	for i := 0; i < len(chain); i++ {
		c := &xmas.Cond{Names: []string{chain[i].Name}}
		switch g.r.Intn(6) {
		case 0:
			c.Names = nil
			g.cov.wildcardStep++
		case 1:
			if other := g.names[g.r.Intn(len(g.names))]; other != c.Names[0] {
				c.Names = append(c.Names, other)
				g.cov.disjunctiveStep++
			}
		}
		if g.coin(4) {
			// A recursive step swallows a run of the chain it names.
			c.Recursive = true
			g.cov.recursiveOnPath++
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
			for n := g.r.Intn(3); n > 0; n-- {
				side := g.sideCond(here, chain[i+1:])
				c.Children = slices.Insert(c.Children, g.r.Intn(len(c.Children)+1), side)
				switch {
				case pick:
				case side.Qualifier:
					g.cov.ancestorQualifier++
				default:
					g.cov.ancestorSide++
				}
			}
		}
		if parent == nil {
			q.Root = c
		} else {
			at := g.r.Intn(len(parent.Children) + 1)
			for _, before := range parent.Children[:at] {
				if !before.Qualifier && before.MatchesName(chain[i].Name) {
					g.cov.stealer++
					break
				}
			}
			parent.Children = slices.Insert(parent.Children, at, c)
		}
		parent = c
	}
	parent.Var = "P"
	if len(g.qualifierIDs) > 0 && len(g.pathIDs) > 0 && g.coin(2) {
		q.Neq = append(q.Neq, [2]string{g.qualifierIDs[g.r.Intn(len(g.qualifierIDs))], g.pathIDs[g.r.Intn(len(g.pathIDs))]})
		g.cov.neqQualifierPath++
	}
	if len(g.allIDs) > 1 && g.coin(3) {
		a, b := g.allIDs[g.r.Intn(len(g.allIDs))], g.allIDs[g.r.Intn(len(g.allIDs))]
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
func (g *queryGen) sideCond(here *xmlmodel.Element, below []*xmlmodel.Element) *xmas.Cond {
	var k *xmlmodel.Element
	switch {
	case len(below) > 0 && g.coin(2):
		k = below[0]
	case len(here.Children) > 0:
		k = here.Children[g.r.Intn(len(here.Children))]
	}
	s := &xmas.Cond{Names: []string{g.names[g.r.Intn(len(g.names))]}, Qualifier: g.coin(3)}
	if k != nil && !g.coin(8) {
		s.Names[0] = k.Name
	}
	if g.coin(6) {
		s.Names = nil
	}
	if k == nil {
		return s
	}
	switch g.r.Intn(4) {
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
			gk = k.Children[g.r.Intn(len(k.Children))]
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
			g.cov.recursiveOffPath++
		}
	}
	if g.coin(2) {
		g.idVar(s, s.Qualifier)
	}
	return s
}

// chains returns, for every element of the document in document order, its
// ancestor chain from the root.
func chains(root *xmlmodel.Element) [][]*xmlmodel.Element {
	var out [][]*xmlmodel.Element
	var walk func(e *xmlmodel.Element, above []*xmlmodel.Element)
	walk = func(e *xmlmodel.Element, above []*xmlmodel.Element) {
		chain := append(append([]*xmlmodel.Element(nil), above...), e)
		out = append(out, chain)
		for _, k := range e.Children {
			walk(k, chain)
		}
	}
	walk(root, nil)
	return out
}

// checkAgainstReference runs n generated queries over doc.
func checkAgainstReference(t *testing.T, r *rand.Rand, cov *coverage, label string, doc *xmlmodel.Document, n int) {
	t.Helper()
	all := chains(doc.Root)
	seen := map[string]bool{}
	names := []string{"absent"}
	for _, chain := range all {
		if name := chain[len(chain)-1].Name; !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for i := 0; i < n; i++ {
		g := &queryGen{r: r, cov: cov, names: names}
		q := g.anchoredQuery(all[r.Intn(len(all))])
		if q == nil {
			continue
		}
		got, err := engine.EvalElements(q, doc)
		if err != nil {
			t.Fatalf("%s query %d: %v\n%s", label, i, err, q)
		}
		want := engine.ReferenceEval(q, doc)
		same := len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j] == want[j]
		}
		if !same {
			t.Fatalf("%s query %d: engine picks %v, reference picks %v\nquery:\n%s\ndoc: %s",
				label, i, idsOf(got), idsOf(want), q, xmlmodel.MarshalElement(doc.Root, -1))
		}
		if len(got) > 0 {
			cov.nonEmpty++
		}
	}
}

func idsOf(es []*xmlmodel.Element) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name + "#" + e.ID
	}
	return out
}

// familyDocs builds small documents of one load family: a few entries (and
// auctions, where the family has them) per seed.
func familyDocs(t *testing.T, f load.Family, seeds int) []*xmlmodel.Document {
	t.Helper()
	var docs []*xmlmodel.Document
	for seed := int64(1); seed <= int64(seeds); seed++ {
		src, err := load.BuildSource("site", load.SourceOptions{
			Schema: load.SchemaOptions{Seed: seed, Family: f, Depth: 3, Width: 3},
			Gen:    gen.Options{AssignIDs: true, MaxDepth: 6, LengthBias: 0.5, TextPool: []string{"x", "y"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The oracle is exponential: keep the first entries and auctions only.
		root := &xmlmodel.Element{Name: src.Doc.Root.Name, ID: src.Doc.Root.ID}
		kept := map[string]int{}
		for _, k := range src.Doc.Root.Children {
			if kept[k.Name] < 3 && len(chains(k)) <= 25 {
				kept[k.Name]++
				root.Children = append(root.Children, k)
			}
		}
		docs = append(docs, &xmlmodel.Document{DocType: root.Name, Root: root})
	}
	return docs
}

// forests returns every ordered forest of n unlabelled nodes.
func forests(n int) [][]*xmlmodel.Element {
	if n == 0 {
		return [][]*xmlmodel.Element{nil}
	}
	var out [][]*xmlmodel.Element
	for first := 1; first <= n; first++ {
		for _, kids := range forests(first - 1) {
			for _, rest := range forests(n - first) {
				out = append(out, append([]*xmlmodel.Element{{Children: kids}}, rest...))
			}
		}
	}
	return out
}

// tinyDocs returns every document of up to maxNodes elements named a or b.
func tinyDocs(maxNodes int) []*xmlmodel.Document {
	var docs []*xmlmodel.Document
	for n := 1; n <= maxNodes; n++ {
		for _, kids := range forests(n - 1) {
			shape := &xmlmodel.Element{Children: kids}
			for labels := 0; labels < 1<<n; labels++ {
				root, i := shape.Clone(), 0
				root.Walk(func(e *xmlmodel.Element) bool {
					e.Name, e.ID = string(rune('a'+labels>>i&1)), fmt.Sprint(i)
					i++
					return true
				})
				docs = append(docs, &xmlmodel.Document{Root: root})
			}
		}
	}
	return docs
}

func TestAnchoredWalkAgreesWithReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	cov := &coverage{}
	for _, f := range load.Families() {
		for i, doc := range familyDocs(t, f, 8) {
			checkAgainstReference(t, r, cov, fmt.Sprintf("%s/%d", f, i), doc, 150)
		}
	}
	tiny := tinyDocs(5)
	for i, doc := range tiny {
		checkAgainstReference(t, r, cov, fmt.Sprintf("tiny/%d", i), doc, 12)
	}
	t.Logf("%d tiny documents; coverage %+v", len(tiny), *cov)
	for _, feature := range []struct {
		name string
		n    int
	}{
		{"side condition on an ancestor", cov.ancestorSide},
		{"qualifier on an ancestor", cov.ancestorQualifier},
		{"sibling before the path condition that can take its child", cov.stealer},
		{"!= between a qualifier's and a path variable", cov.neqQualifierPath},
		{"wildcard path step", cov.wildcardStep},
		{"disjunctive path step", cov.disjunctiveStep},
		{"recursive step on the path", cov.recursiveOnPath},
		{"recursive side condition", cov.recursiveOffPath},
		{"pick below two same-named levels", cov.sameNamedLevels},
		{"non-empty answer", cov.nonEmpty},
	} {
		if feature.n < 200 {
			t.Errorf("generator too weak: only %d queries with a %s", feature.n, feature.name)
		}
	}
}
