package regex

import (
	"math/rand"
	"testing"
)

// eachItems calls f with the items of every sequence and alternation of e.
func eachItems(e Expr, f func(items []Expr)) {
	switch v := e.(type) {
	case Concat:
		f(v.Items)
		for _, it := range v.Items {
			eachItems(it, f)
		}
	case Alt:
		f(v.Items)
		for _, it := range v.Items {
			eachItems(it, f)
		}
	case Star:
		eachItems(v.Sub, f)
	case Plus:
		eachItems(v.Sub, f)
	case Opt:
		eachItems(v.Sub, f)
	}
}

// TestParserCarvesExactItems: one Parser carves the items of every model of
// a document from one slab, and no carved slice has room past its end.
// Every sequence and alternation the parser builds — over the carved slice,
// or over the copy Cat and Or make when they flatten or drop — has
// cap(Items) == len(Items). So an append to one model's items moves them,
// and after one append to every item slice of every model, each model is
// still Equal to a copy of it parsed apart.
func TestParserCarvesExactItems(t *testing.T) {
	inputs := []string{
		"a, (b, c)", "a | a | b", "a, EMPTY, b", "(a, b) | (a, b) | c", "((a | b) | (c | d))*, e+",
		"a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q, r, s, t, u, v, w, x, y, z, aa, bb, cc, dd, ee, ff, gg",
		"(a | b)?, (c, (d | FAIL))", "a^1, a^2 | b",
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		inputs = append(inputs, randomExpr(r, 6).String())
	}
	var p Parser
	models := make([]Expr, len(inputs))
	for i, in := range inputs {
		e, err := p.Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		eachItems(e, func(items []Expr) {
			if cap(items) != len(items) {
				t.Errorf("Parse(%q): items %v have cap %d, len %d", in, items, cap(items), len(items))
			}
		})
		models[i] = e
	}
	for _, e := range models {
		eachItems(e, func(items []Expr) {
			if grown := append(items, Nm("intruder")); &grown[0] == &items[0] {
				t.Errorf("an append to %v wrote past its end", items)
			}
		})
	}
	for i, e := range models {
		if want := MustParse(inputs[i]); !Equal(e, want) {
			t.Fatalf("model %d, %q, reads %s after appends to the others' items; parsed apart, %s", i, inputs[i], e, want)
		}
	}
}
