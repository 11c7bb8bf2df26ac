package mix_test

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/regex"
)

// The text path of internal/regex as it was before it stopped paying per
// token — the recursive-descent parser with a one-element slice per
// precedence level, the renderer that joins one string per node, and the Or
// that deduplicates through a map of renderings — kept as the references the
// differential tests and the fuzz targets compare regex.Parser,
// regex.AppendString and regex.Or against.

func refParseModel(input string) (regex.Expr, error) {
	p := &refModelParser{src: input}
	e, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected %q", p.src[p.pos:])
	}
	return e, nil
}

type refModelParser struct {
	src   string
	pos   int
	depth int
}

func (p *refModelParser) errf(format string, args ...any) error {
	return fmt.Errorf("regex: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *refModelParser) ws() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *refModelParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *refModelParser) parseAlt() (regex.Expr, error) {
	first, err := p.parseCat()
	if err != nil {
		return nil, err
	}
	items := []regex.Expr{first}
	for {
		p.ws()
		if p.peek() != '|' {
			break
		}
		p.pos++
		next, err := p.parseCat()
		if err != nil {
			return nil, err
		}
		items = append(items, next)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return refOr(items...), nil
}

func (p *refModelParser) parseCat() (regex.Expr, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	items := []regex.Expr{first}
	for {
		p.ws()
		if p.peek() != ',' {
			break
		}
		p.pos++
		next, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		items = append(items, next)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return regex.Cat(items...), nil
}

func (p *refModelParser) parseUnary() (regex.Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		p.ws()
		switch p.peek() {
		case '*':
			p.pos++
			e = regex.Rep(e)
		case '+':
			p.pos++
			e = regex.Rep1(e)
		case '?':
			p.pos++
			e = regex.Maybe(e)
		default:
			return e, nil
		}
	}
}

func (p *refModelParser) parsePrimary() (regex.Expr, error) {
	p.ws()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of expression")
	}
	if p.peek() == '(' {
		if p.depth >= 2048 {
			return nil, p.errf("parenthesis nesting exceeds %d levels", 2048)
		}
		p.depth++
		p.pos++
		e, err := p.parseAlt()
		p.depth--
		if err != nil {
			return nil, err
		}
		p.ws()
		if p.peek() != ')' {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		return e, nil
	}
	name := p.readName()
	if name == "" {
		return nil, p.errf("expected name, '(' or keyword")
	}
	switch name {
	case "EMPTY":
		return regex.Empty{}, nil
	case "FAIL":
		return regex.Fail{}, nil
	}
	tag := 0
	if p.peek() == '^' {
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == start {
			return nil, p.errf("expected tag number after '^'")
		}
		t, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil {
			return nil, p.errf("bad tag: %v", err)
		}
		tag = t
	}
	return regex.Atom{Name: regex.Name{Base: name, Tag: tag}}, nil
}

func (p *refModelParser) readName() string {
	start := p.pos
	for p.pos < len(p.src) {
		r, sz := utf8.DecodeRuneInString(p.src[p.pos:])
		ok := unicode.IsLetter(r) || r == '_' ||
			(p.pos > start && (unicode.IsDigit(r) || r == '-' || r == '.' || r == ':'))
		if !ok {
			break
		}
		p.pos += sz
	}
	return p.src[start:p.pos]
}

// refModelString is the renderer every String method was: one string per
// node, parenthesized by precedence, joined.
func refModelString(e regex.Expr) string {
	paren := func(e regex.Expr, min int) string {
		if refPrec(e) < min {
			return "(" + refModelString(e) + ")"
		}
		return refModelString(e)
	}
	join := func(items []regex.Expr, min int, sep, none string) string {
		if len(items) == 0 {
			return none
		}
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = paren(it, min)
		}
		return strings.Join(parts, sep)
	}
	switch v := e.(type) {
	case regex.Empty:
		return "EMPTY"
	case regex.Fail:
		return "FAIL"
	case regex.Atom:
		if v.Name.Tag == 0 {
			return v.Name.Base
		}
		return fmt.Sprintf("%s^%d", v.Name.Base, v.Name.Tag)
	case regex.Concat:
		return join(v.Items, 3, ", ", "EMPTY")
	case regex.Alt:
		return join(v.Items, 2, " | ", "FAIL")
	case regex.Star:
		return paren(v.Sub, 4) + "*"
	case regex.Plus:
		return paren(v.Sub, 4) + "+"
	case regex.Opt:
		return paren(v.Sub, 4) + "?"
	}
	panic(fmt.Sprintf("unknown node %T", e))
}

func refPrec(e regex.Expr) int {
	switch e.(type) {
	case regex.Star, regex.Plus, regex.Opt:
		return 3
	case regex.Concat:
		return 2
	case regex.Alt:
		return 1
	}
	return 4
}

// refOr is Or deduplicating through a map of renderings.
func refOr(items ...regex.Expr) regex.Expr {
	var out []regex.Expr
	seen := map[string]bool{}
	add := func(e regex.Expr) {
		if regex.IsFail(e) {
			return
		}
		k := refModelString(e)
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, e)
	}
	for _, it := range items {
		if v, ok := it.(regex.Alt); ok {
			for _, sub := range v.Items {
				add(sub)
			}
		} else {
			add(it)
		}
	}
	switch len(out) {
	case 0:
		return regex.Fail{}
	case 1:
		return out[0]
	}
	return regex.Alt{Items: out}
}

// checkModelAgainstReference is the parser differential on one input (same
// tree, or an error from both) and, when it parses, the renderer
// differential on the tree and the print→parse fixed point.
func checkModelAgainstReference(t *testing.T, input string) {
	t.Helper()
	got, err := regex.Parse(input)
	want, refErr := refParseModel(input)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("Parse(%q): error %v, the reference's %v", input, err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			t.Fatalf("Parse(%q): error %q, the reference's %q", input, err, refErr)
		}
		return
	}
	if !regex.Equal(got, want) {
		t.Fatalf("Parse(%q) = %s, the reference parses %s", input, got, want)
	}
	checkRenderAgainstReference(t, got)
	back, err := regex.Parse(got.String())
	if err != nil || back.String() != got.String() {
		t.Fatalf("printer not a fixed point: %q -> %q -> %v (%v)", input, got, back, err)
	}
}

func checkRenderAgainstReference(t *testing.T, e regex.Expr) {
	t.Helper()
	want := refModelString(e)
	if got := e.String(); got != want {
		t.Fatalf("String() = %q, the reference renders %q", got, want)
	}
	// Behind a prefix, so that the append does append.
	if got := string(regex.AppendString([]byte("> "), e)); got != "> "+want {
		t.Fatalf("AppendString = %q, the reference renders %q", got, want)
	}
}

// randomModel draws an expression over a small alphabet. With raw set, nodes
// are struct literals, including the ones no constructor builds: sequences
// and alternations of no or one item, or holding their own kind, or
// duplicates.
func randomModel(rng *rand.Rand, depth int, raw bool) regex.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(12) {
		case 0:
			return regex.Empty{}
		case 1:
			return regex.Fail{}
		}
		return regex.NmT(string(rune('a'+rng.Intn(4))), rng.Intn(3))
	}
	items := func() []regex.Expr {
		n := 2 + rng.Intn(3)
		if raw {
			n = rng.Intn(4)
		}
		out := make([]regex.Expr, n)
		for i := range out {
			out[i] = randomModel(rng, depth-1, raw)
		}
		return out
	}
	sub := func() regex.Expr { return randomModel(rng, depth-1, raw) }
	switch k := rng.Intn(5); {
	case k == 0 && raw:
		return regex.Concat{Items: items()}
	case k == 0:
		return regex.Cat(items()...)
	case k == 1 && raw:
		return regex.Alt{Items: items()}
	case k == 1:
		return regex.Or(items()...)
	case k == 2 && raw:
		return regex.Star{Sub: sub()}
	case k == 2:
		return regex.Rep(sub())
	case k == 3 && raw:
		return regex.Plus{Sub: sub()}
	case k == 3:
		return regex.Rep1(sub())
	case raw:
		return regex.Opt{Sub: sub()}
	}
	return regex.Maybe(sub())
}

// goldenModels returns every content model internal/load's infer.golden
// holds: the inferred view DTDs of the paper's examples and of all five
// schema families.
func goldenModels(t *testing.T) []string {
	t.Helper()
	text, err := os.ReadFile("internal/load/testdata/infer.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "  <!ELEMENT "); ok {
			_, model, _ := strings.Cut(strings.TrimSuffix(rest, ">"), " ")
			if model != "(#PCDATA)" {
				out = append(out, model)
			}
		}
	}
	if len(out) < 1000 {
		t.Fatalf("infer.golden yields %d content models, expected the 94 cases' worth", len(out))
	}
	return out
}

func TestModelParserMatchesReference(t *testing.T) {
	for _, m := range goldenModels(t) {
		checkModelAgainstReference(t, m)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		text := randomModel(rng, 4, i%2 == 0).String()
		checkModelAgainstReference(t, text)
		// The same text damaged: a byte dropped, doubled or replaced.
		if len(text) > 0 {
			at := rng.Intn(len(text))
			for _, bad := range []string{
				text[:at] + text[at+1:],
				text[:at] + text[at:at+1] + text[at:],
				text[:at] + string("(),|*+?^ 1a"[rng.Intn(11)]) + text[at+1:],
			} {
				checkModelAgainstReference(t, bad)
			}
		}
	}
	for _, hand := range []string{
		"", " ", "a,", "a|", "(a", "a)", "a^", "a^x", "a^99999999999999999999", "EMPTY*", "FAIL+", "(FAIL)?",
		"a | a | a", "(a | b) | (b | a)", "a, (b, c), EMPTY", strings.Repeat("(", 2049) + "a" + strings.Repeat(")", 2049),
		strings.Repeat("(", 2048) + "a" + strings.Repeat(")", 2048), "é, _x-1.2:3*", "a\t,\nb\r| c",
	} {
		checkModelAgainstReference(t, hand)
	}
}

// One Parser over many inputs — errors in between included — parses each as
// a fresh one would: what it keeps between calls is an economy, not state.
func TestModelParserReuse(t *testing.T) {
	var p regex.Parser
	for _, input := range append([]string{"a, b", "a,,b", "(a | b)*, a^1", "(((", "a^1?, (b, a)+"}, goldenModels(t)[:200]...) {
		got, err := p.Parse(input)
		want, refErr := refParseModel(input)
		if (err != nil) != (refErr != nil) || (err == nil && !regex.Equal(got, want)) {
			t.Fatalf("reused Parser on %q: %v, %v; the reference: %v, %v", input, got, err, want, refErr)
		}
	}
}

func TestAppendStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4000; i++ {
		checkRenderAgainstReference(t, randomModel(rng, 5, i%2 == 0))
	}
	for _, n := range []regex.Name{regex.N("a"), regex.T("a", 1), regex.T("publication", 1<<40), regex.T("", -3)} {
		if got, want := n.String(), refModelString(regex.At(n)); got != want {
			t.Errorf("Name.String() = %q, the reference renders %q", got, want)
		}
	}
}

// TestOrEqualDedupMatchesStringDedup: Or deduplicates by regex.Equal where
// it used to compare renderings. On expressions the constructors build the
// two coincide and the results are the same tree. Renderings are coarser
// only on struct literals no constructor builds — Concat{} reads EMPTY like
// Empty{}, a one-item node reads like its item — and a nested Alt literal
// holding duplicates is taken at its word; there Or may keep an alternative
// the reference dropped, never the reverse and never a different language:
// deduplicated by rendering, its items are the reference's.
func TestOrEqualDedupMatchesStringDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 4000; i++ {
		raw := i%4 == 0
		items := make([]regex.Expr, rng.Intn(6))
		for j := range items {
			if j > 0 && rng.Intn(3) == 0 {
				items[j] = items[rng.Intn(j)] // a duplicate
			} else {
				items[j] = randomModel(rng, 3, raw)
			}
		}
		want := refOr(slices.Clone(items)...)
		got := regex.Or(slices.Clone(items)...)
		if !raw {
			if !regex.Equal(got, want) {
				t.Fatalf("Or(%v) = %s, with string dedup %s", items, got, want)
			}
			continue
		}
		if text := refModelString(refOr(got)); text != refModelString(want) {
			t.Fatalf("Or(%v) = %s: by rendering %s, with string dedup %s", items, got, text, want)
		}
	}
	// The corner by hand.
	for _, c := range []struct {
		items []regex.Expr
		want  string
	}{
		{[]regex.Expr{regex.Alt{}, regex.Nm("a")}, "a"},
		{[]regex.Expr{regex.Empty{}, regex.Concat{}}, "EMPTY | EMPTY"},
		{[]regex.Expr{regex.Nm("a"), regex.Alt{Items: []regex.Expr{regex.Nm("a"), regex.Nm("b"), regex.Nm("b")}}}, "a | b | b"},
		{[]regex.Expr{regex.Nm("a"), regex.Nm("b"), regex.Nm("a"), regex.Fail{}}, "a | b"},
	} {
		if got := regex.Or(c.items...).String(); got != c.want {
			t.Errorf("Or(%v) = %s, want %s", c.items, got, c.want)
		}
	}
}

// Cat and Or build their node over the slice they are handed when it needs
// no flattening or dropping, and over a copy otherwise: the argument is
// never written to. The other way round, a caller that writes to the slice
// afterwards changes exactly the results built over it — those whose items
// are the arguments, all of them, as passed — which is why their doc
// comments tell the caller to leave a passed slice alone.
func TestCatOrLeaveTheirArgumentAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	aliased := 0
	for i := 0; i < 2000; i++ {
		items := make([]regex.Expr, rng.Intn(6))
		for j := range items {
			items[j] = randomModel(rng, 2, false)
		}
		before := slices.Clone(items)
		for _, build := range []func(...regex.Expr) regex.Expr{regex.Cat, regex.Or} {
			got := build(items...)
			if !slices.EqualFunc(items, before, regex.Equal) {
				t.Fatalf("constructor rewrote its argument: %v, was %v", items, before)
			}
			var kept []regex.Expr
			switch n := got.(type) {
			case regex.Concat:
				kept = n.Items
			case regex.Alt:
				kept = n.Items
			}
			asPassed := len(items) >= 2 && slices.EqualFunc(kept, items, regex.Equal)
			rendered := got.String()
			for j := range items {
				items[j] = regex.Nm("overwritten")
			}
			if changed := got.String() != rendered; changed != asPassed {
				t.Fatalf("built from %v: %s became %s when the argument was overwritten; nothing flattened or dropped: %v", before, rendered, got, asPassed)
			} else if changed {
				aliased++
			}
			copy(items, before)
		}
	}
	if aliased < 100 || aliased > 3900 {
		t.Errorf("%d of 4000 results were built over their argument: the test no longer sees both kinds", aliased)
	}
}
