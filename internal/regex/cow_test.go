package regex

import (
	"math/rand"
	"testing"
)

// simplifyByRebuild and mapByRebuild are Simplify and Map as they were
// before they became copy-on-write: every node goes through its smart
// constructor whether or not anything beneath it changed. They are the
// reference for what the copy-on-write versions must return.
func simplifyByRebuild(e Expr) Expr {
	for i := 0; i < 16; i++ {
		next := simplifyOnceByRebuild(e)
		if Equal(next, e) {
			return next
		}
		e = next
	}
	return e
}

func simplifyOnceByRebuild(e Expr) Expr {
	rebuildAll := func(items []Expr) []Expr {
		out := make([]Expr, len(items))
		for i, it := range items {
			out[i] = simplifyOnceByRebuild(it)
		}
		return out
	}
	switch v := e.(type) {
	case Star:
		return Rep(simplifyOnceByRebuild(v.Sub))
	case Plus:
		return Rep1(simplifyOnceByRebuild(v.Sub))
	case Opt:
		return Maybe(simplifyOnceByRebuild(v.Sub))
	case Concat:
		return Cat(fuseAdjacent(rebuildAll(v.Items))...)
	case Alt:
		items := absorbAlternatives(rebuildAll(v.Items))
		rest := items[:0:0]
		for _, it := range items {
			if !IsEmptyExpr(it) {
				rest = append(rest, it)
			}
		}
		if len(rest) < len(items) {
			return Maybe(Or(rest...))
		}
		return Or(items...)
	}
	return e
}

func mapByRebuild(e Expr, f func(Name) Expr) Expr {
	rebuildAll := func(items []Expr) []Expr {
		out := make([]Expr, len(items))
		for i, it := range items {
			out[i] = mapByRebuild(it, f)
		}
		return out
	}
	switch v := e.(type) {
	case Atom:
		return f(v.Name)
	case Concat:
		return Cat(rebuildAll(v.Items)...)
	case Alt:
		return Or(rebuildAll(v.Items)...)
	case Star:
		return Rep(mapByRebuild(v.Sub, f))
	case Plus:
		return Rep1(mapByRebuild(v.Sub, f))
	case Opt:
		return Maybe(mapByRebuild(v.Sub, f))
	}
	return e
}

// TestCopyOnWriteAgreesWithRebuild: sharing untouched subtrees changes what
// Simplify and Map allocate, never what they return.
func TestCopyOnWriteAgreesWithRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	maps := []func(Name) Expr{
		func(n Name) Expr { return At(n) },
		func(n Name) Expr { return Nm(n.Base) },
		func(n Name) Expr {
			switch n.Base {
			case "a":
				return Eps()
			case "b":
				return Bot()
			case "x":
				return Or(Nm("a"), Nm("y"))
			}
			return At(n)
		},
	}
	for i := 0; i < 4000; i++ {
		e := randKeyExpr(r, 4)
		if i%2 == 0 {
			e = randomExpr(r, 5)
		}
		if got, want := Simplify(e, nil), simplifyByRebuild(e); !Equal(got, want) {
			t.Fatalf("case %d: Simplify(%s) = %s, rebuilt it is %s", i, e, got, want)
		}
		if got, want := Image(e), mapByRebuild(e, maps[1]); !Equal(got, want) {
			t.Fatalf("case %d: Image(%s) = %s, rebuilt it is %s", i, e, got, want)
		}
		for k, f := range maps {
			if got, want := Map(e, f), mapByRebuild(e, f); !Equal(got, want) {
				t.Fatalf("case %d: Map(%s, f%d) = %s, rebuilt it is %s", i, e, k, got, want)
			}
		}
	}
}

// TestSimpleExpressionsCostNoAllocation is the ratchet on the copy-on-write
// paths: an expression no rewrite applies to is returned as it is.
func TestSimpleExpressionsCostNoAllocation(t *testing.T) {
	for _, src := range []string{
		"(word | bold | emph | keyword | markup3 | markup4)*",
		"name, description+, (kind | profile0)?, grant?",
		"title, author+, (journal | conference)",
	} {
		e := MustParse(src)
		if allocs := testing.AllocsPerRun(100, func() { Simplify(e, nil) }); allocs != 0 {
			t.Errorf("Simplify(%s) allocates %.0f times, want 0", src, allocs)
		}
		// Image boxes one atom per name it is asked about and nothing else.
		atoms := float64(len(appendNames(nil, e)))
		if allocs := testing.AllocsPerRun(100, func() { Image(e) }); allocs > atoms {
			t.Errorf("Image(%s) allocates %.0f times, want at most one per atom (%.0f)", src, allocs, atoms)
		}
	}
}
