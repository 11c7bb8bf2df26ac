package engine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// referenceEval is an independent, brute-force implementation of the
// pick-element semantics: it enumerates every embedding of the condition
// tree (sibling conditions on pairwise-distinct children, qualifiers on any
// child, recursive steps expanded by chain, != constraints on the final
// assignment) and collects the pick bindings. Exponential and only fit for
// tiny inputs — which is exactly what a differential-testing oracle should
// be: too simple to share bugs with the optimized engine.
func referenceEval(q *xmas.Query, doc *xmlmodel.Document) []*xmlmodel.Element {
	path, err := q.PathToPick()
	if err != nil {
		return nil
	}
	pick := path[len(path)-1]
	var picks []*xmlmodel.Element
	seen := map[*xmlmodel.Element]bool{}
	for _, asg := range embeddings(q.Root, doc.Root) {
		if !neqOK(q, asg) {
			continue
		}
		e := asg[pick]
		if e != nil && !seen[e] {
			seen[e] = true
			picks = append(picks, e)
		}
	}
	// Document order.
	pos := map[*xmlmodel.Element]int{}
	i := 0
	doc.Root.Walk(func(e *xmlmodel.Element) bool { pos[e] = i; i++; return true })
	for a := 0; a < len(picks); a++ {
		for b := a + 1; b < len(picks); b++ {
			if pos[picks[b]] < pos[picks[a]] {
				picks[a], picks[b] = picks[b], picks[a]
			}
		}
	}
	return picks
}

type assignment map[*xmas.Cond]*xmlmodel.Element

// embeddings returns every assignment of the condition subtree rooted at c
// when matched against element e (empty slice = no embedding).
func embeddings(c *xmas.Cond, e *xmlmodel.Element) []assignment {
	if !c.MatchesName(e.Name) {
		return nil
	}
	if c.Recursive {
		// Match here, or descend along a matching chain.
		out := embedHereRef(c, e)
		for _, k := range e.Children {
			if c.MatchesName(k.Name) {
				out = append(out, embeddings(c, k)...)
			}
		}
		return out
	}
	return embedHereRef(c, e)
}

func embedHereRef(c *xmas.Cond, e *xmlmodel.Element) []assignment {
	if c.HasText {
		if e.IsText && e.Text == c.Text {
			return []assignment{{c: e}}
		}
		return nil
	}
	// Choose pairwise-distinct children for the subconditions, in every
	// possible way.
	results := []assignment{{}}
	used := make([]bool, len(e.Children))
	var rec func(i int, acc assignment) []assignment
	rec = func(i int, acc assignment) []assignment {
		if i == len(c.Children) {
			cp := assignment{}
			for k, v := range acc {
				cp[k] = v
			}
			return []assignment{cp}
		}
		var out []assignment
		// A qualifier needs a witness but claims no child: it may share one
		// with a sibling condition or with another qualifier.
		claims := !c.Children[i].Qualifier
		for j, k := range e.Children {
			if claims && used[j] {
				continue
			}
			for _, sub := range embeddings(c.Children[i], k) {
				if claims {
					used[j] = true
				}
				merged := assignment{}
				for a, b := range acc {
					merged[a] = b
				}
				for a, b := range sub {
					merged[a] = b
				}
				out = append(out, rec(i+1, merged)...)
				if claims {
					used[j] = false
				}
			}
		}
		return out
	}
	if len(c.Children) > 0 {
		results = rec(0, assignment{})
	}
	for i := range results {
		results[i][c] = e
	}
	return results
}

func neqOK(q *xmas.Query, asg assignment) bool {
	// Resolve variables to elements.
	vars := map[string]*xmlmodel.Element{}
	for c, e := range asg {
		if c.Var != "" {
			vars[c.Var] = e
		}
		if c.IDVar != "" {
			vars[c.IDVar] = e
		}
	}
	for _, pair := range q.Neq {
		a, aok := vars[pair[0]]
		b, bok := vars[pair[1]]
		if aok && bok && a == b {
			return false
		}
	}
	return true
}

// randomDocForRef builds small random documents over a fixed name pool.
func randomDocForRef(r *rand.Rand, depth int) *xmlmodel.Element {
	names := []string{"a", "b", "c"}
	e := xmlmodel.NewElement(names[r.Intn(len(names))])
	if depth <= 0 {
		if r.Intn(3) == 0 {
			e.IsText = true
			e.Text = []string{"x", "y"}[r.Intn(2)]
		}
		return e
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		e.Children = append(e.Children, randomDocForRef(r, depth-1))
	}
	return e
}

// randomQueryForRef builds a small random pick-element query over the same
// name pool.
func randomQueryForRef(r *rand.Rand) *xmas.Query {
	names := []string{"a", "b", "c"}
	pickDepth := 1 + r.Intn(2)
	var build func(d int) *xmas.Cond
	build = func(d int) *xmas.Cond {
		c := &xmas.Cond{}
		switch r.Intn(4) {
		case 0: // wildcard
		case 1:
			c.Names = []string{names[r.Intn(3)], names[r.Intn(3)]}
			if c.Names[0] == c.Names[1] {
				c.Names = c.Names[:1]
			}
		default:
			c.Names = []string{names[r.Intn(3)]}
		}
		if d == pickDepth {
			c.Var = "P"
			if r.Intn(3) == 0 {
				c.Children = append(c.Children, &xmas.Cond{Names: []string{names[r.Intn(3)]}})
			}
			return c
		}
		c.Children = append(c.Children, build(d+1))
		if r.Intn(3) == 0 {
			side := &xmas.Cond{Names: []string{names[r.Intn(3)]}}
			if r.Intn(3) == 0 {
				side.HasText, side.Text = true, "x"
			}
			c.Children = append(c.Children, side)
		}
		return c
	}
	q := &xmas.Query{Name: "v", PickVar: "P", Root: build(0)}
	// Occasionally demand two distinct same-named children of the pick.
	if r.Intn(3) == 0 {
		path, _ := q.PathToPick()
		if path != nil {
			pick := path[len(path)-1]
			n := names[r.Intn(3)]
			pick.Children = append(pick.Children,
				&xmas.Cond{Names: []string{n}, IDVar: "I1"},
				&xmas.Cond{Names: []string{n}, IDVar: "I2"})
			q.Neq = append(q.Neq, [2]string{"I1", "I2"})
		}
	}
	if errs := q.Validate(); len(errs) > 0 {
		return nil
	}
	return q
}

// TestEngineAgreesWithReference is the engine's differential oracle: on
// thousands of random (document, query) pairs the optimized backtracking
// engine must return exactly the brute-force semantics.
func TestEngineAgreesWithReference(t *testing.T) {
	r := rand.New(rand.NewSource(1999)) // the year of the paper
	rounds := 3000
	checked := 0
	for i := 0; i < rounds; i++ {
		q := randomQueryForRef(r)
		if q == nil {
			continue
		}
		doc := &xmlmodel.Document{Root: randomDocForRef(r, 3)}
		got, err := EvalElements(q, doc)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		want := referenceEval(q, doc)
		if len(got) != len(want) {
			t.Fatalf("round %d: engine %d picks, reference %d\nquery:\n%s\ndoc: %s",
				i, len(got), len(want), q, xmlmodel.MarshalElement(doc.Root, -1))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("round %d: pick %d differs\nquery:\n%s\ndoc: %s",
					i, j, q, xmlmodel.MarshalElement(doc.Root, -1))
			}
		}
		if len(got) > 0 {
			checked++
		}
	}
	if checked < rounds/20 {
		t.Fatalf("only %d/%d rounds had non-empty results; generator too weak", checked, rounds)
	}
	t.Logf("%d rounds, %d with non-empty results", rounds, checked)
}

func TestReferenceSelfCheck(t *testing.T) {
	// The oracle itself must agree with a hand-computed case.
	doc, _, err := xmlmodel.Parse(`<a><b id="1"><c/></b><b id="2"/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	q := xmas.MustParse(`v = SELECT X WHERE <a> X:<b><c/></b> </a>`)
	picks := referenceEval(q, doc)
	ids := []string{}
	for _, p := range picks {
		ids = append(ids, p.ID)
	}
	if strings.Join(ids, ",") != "1" {
		t.Errorf("reference picks = %v", ids)
	}
}
