package automata

import (
	"fmt"
	"testing"

	"repro/internal/regex"
)

// benchModels are content models shaped like the ones inference and
// validation replay: a realistic department model, a wide union view, and a
// deeply specialized model with tagged names.
func benchModels() []regex.Expr {
	texts := []string{
		"name, (office|phone)?, (publication|project)*, (gradStudent|postdoc)*",
		"(professor|gradStudent|staff|visitor|postdoc|lecturer)*",
		"a, (b|c)*, (d, (e|f)+)?, g*, (h|i|j)?",
	}
	out := make([]regex.Expr, 0, len(texts)+1)
	for _, s := range texts {
		m, err := dtdModel(s)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	out = append(out, regex.Cat(
		regex.NmT("item", 1),
		regex.Rep(regex.Or(regex.NmT("item", 2), regex.NmT("item", 3))),
	))
	return out
}

// dtdModel parses a DTD-style content-model fragment. The automata package
// cannot import the dtd parser (import cycle), so the benchmarks carry this
// minimal recursive-descent equivalent.
func dtdModel(s string) (regex.Expr, error) {
	p := &modelParser{s: s}
	e := p.alt()
	if p.err != nil {
		return nil, p.err
	}
	return e, nil
}

type modelParser struct {
	s   string
	i   int
	err error
}

func (p *modelParser) ws() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *modelParser) alt() regex.Expr {
	items := []regex.Expr{p.cat()}
	for p.err == nil {
		p.ws()
		if p.i < len(p.s) && p.s[p.i] == '|' {
			p.i++
			items = append(items, p.cat())
		} else {
			break
		}
	}
	return regex.Or(items...)
}

func (p *modelParser) cat() regex.Expr {
	items := []regex.Expr{p.post()}
	for p.err == nil {
		p.ws()
		if p.i < len(p.s) && p.s[p.i] == ',' {
			p.i++
			items = append(items, p.post())
		} else {
			break
		}
	}
	return regex.Cat(items...)
}

func (p *modelParser) post() regex.Expr {
	e := p.atom()
	for p.err == nil && p.i < len(p.s) {
		switch p.s[p.i] {
		case '*':
			e = regex.Rep(e)
			p.i++
		case '+':
			e = regex.Rep1(e)
			p.i++
		case '?':
			e = regex.Maybe(e)
			p.i++
		default:
			return e
		}
	}
	return e
}

func (p *modelParser) atom() regex.Expr {
	p.ws()
	if p.err != nil {
		return regex.Bot()
	}
	if p.i < len(p.s) && p.s[p.i] == '(' {
		p.i++
		e := p.alt()
		p.ws()
		if p.i >= len(p.s) || p.s[p.i] != ')' {
			p.err = fmt.Errorf("model %q: missing )", p.s)
			return regex.Bot()
		}
		p.i++
		return e
	}
	start := p.i
	for p.i < len(p.s) {
		c := p.s[p.i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			p.i++
		} else {
			break
		}
	}
	if p.i == start {
		p.err = fmt.Errorf("model %q: expected name at %d", p.s, start)
		return regex.Bot()
	}
	return regex.Nm(p.s[start:p.i])
}

func benchSets() []map[int]bool {
	sets := make([]map[int]bool, 16)
	for i := range sets {
		set := map[int]bool{}
		for s := 0; s < 3+i*4; s++ {
			set[s*7%97+i] = true
		}
		sets[i] = set
	}
	return sets
}

func BenchmarkSetKey(b *testing.B) {
	sets := benchSets()
	var k setKeyer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.key(sets[i%len(sets)])
	}
}

// raceEnabled says the binary was built with -race (race_test.go).
var raceEnabled bool

// compileAll, containsAll and equivalentAll are one iteration of the
// benchmarks below and one run of their ratchet.
func compileAll(models []regex.Expr) {
	for _, m := range models {
		must(Compiled(m, nil))
	}
}

func containsAll(models []regex.Expr) {
	for _, m := range models {
		must(Contains(m, regex.Rep(m), nil))
	}
}

func equivalentAll(pairs [][2]regex.Expr) {
	for _, p := range pairs {
		must(Equivalent(p[0], p[1], nil))
	}
}

// BenchmarkCompileCold measures the uncached compile path (the cache is
// purged every iteration, so each iteration pays Thompson + subset +
// minimization for every model).
func BenchmarkCompileCold(b *testing.B) {
	models := benchModels()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PurgeCache()
		compileAll(models)
	}
}

// BenchmarkCompileWarm measures the steady-state path the mediator
// actually serves: the same content models looked up again and again.
func BenchmarkCompileWarm(b *testing.B) {
	models := benchModels()
	compileAll(models)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileAll(models)
	}
}

// BenchmarkContainsCold / BenchmarkContainsWarm: the acceptance bar is the
// warm (cached) path beating the cold path by ≥5× on repeated
// expressions.
func BenchmarkContainsCold(b *testing.B) {
	models := benchModels()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PurgeCache()
		containsAll(models)
	}
}

func BenchmarkContainsWarm(b *testing.B) {
	models := benchModels()
	containsAll(models)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		containsAll(models)
	}
}

// equivalentPairs builds language-equal but syntactically distinct pairs
// (raw duplicate alternation), outside the timed loops, so the benchmarks
// measure the decision, not expression construction.
func equivalentPairs() [][2]regex.Expr {
	models := benchModels()
	pairs := make([][2]regex.Expr, len(models))
	for i, m := range models {
		pairs[i] = [2]regex.Expr{m, regex.Alt{Items: []regex.Expr{m, m}}}
	}
	return pairs
}

func BenchmarkEquivalentCold(b *testing.B) {
	pairs := equivalentPairs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PurgeCache()
		equivalentAll(pairs)
	}
}

func BenchmarkEquivalentWarm(b *testing.B) {
	pairs := equivalentPairs()
	equivalentAll(pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		equivalentAll(pairs)
	}
}

// validateWord is a department model and a word it accepts.
func validateWord() (regex.Expr, []regex.Name) {
	return must(dtdModel("name, (office|phone)?, (publication|project)*, (gradStudent|postdoc)*")),
		[]regex.Name{
			regex.N("name"), regex.N("phone"),
			regex.N("publication"), regex.N("project"), regex.N("publication"),
			regex.N("gradStudent"),
		}
}

// BenchmarkValidateWarm exercises the full document-validation hot path on
// a cached DFA (what dtd.Validate does per element).
func BenchmarkValidateWarm(b *testing.B) {
	model, word := validateWord()
	must(MatchExpr(model, word, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(MatchExpr(model, word, nil))
	}
}

// TestBenchmarkedPathsAllocs pins the allocations of every path the
// benchmarks above time, one row per benchmark and the same work per run:
// the warm rows are the cache-hit path the mediator serves, the cold rows
// purge the cache first and pay the whole compile. A row fails when its path
// allocates more than it did when measured, plus the one allocation of slack
// this package's ratchets allow (reduceAllocCeiling). Under -race a cold
// compile allocates ≈ 16 % more and a few allocations more or less from run
// to run (sync.Pool drops Puts at random), so the cold rows are checked by
// `make allocs` and tier-1, which run without it.
func TestBenchmarkedPathsAllocs(t *testing.T) {
	models, pairs, sets := benchModels(), equivalentPairs(), benchSets()
	model, word := validateWord()
	var keyer setKeyer
	next := 0
	for _, c := range []struct {
		name     string
		cold     bool
		run      func()
		measured float64 // the benchmark's allocs/op at -benchtime 2000x, go1.24 linux/amd64
	}{
		{"SetKey", false, func() { _ = keyer.key(sets[next%len(sets)]); next++ }, 1},
		{"CompileWarm", false, func() { compileAll(models) }, 9},
		{"ContainsWarm", false, func() { containsAll(models) }, 7},
		{"EquivalentWarm", false, func() { equivalentAll(pairs) }, 18},
		{"ValidateWarm", false, func() { must(MatchExpr(model, word, nil)) }, 3},
		{"CompileCold", true, func() { PurgeCache(); compileAll(models) }, 1739},
		{"ContainsCold", true, func() { PurgeCache(); containsAll(models) }, 2818},
		{"EquivalentCold", true, func() { PurgeCache(); equivalentAll(pairs) }, 2045},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.cold && raceEnabled {
				t.Skip("a cold compile's allocations vary under -race")
			}
			c.run()
			if allocs := testing.AllocsPerRun(50, c.run); allocs > c.measured+1 {
				t.Errorf("%.0f allocs a run, measured %.0f", allocs, c.measured)
			}
		})
	}
}
