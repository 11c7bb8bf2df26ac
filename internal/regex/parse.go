package regex

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse parses a content-model expression in DTD syntax extended with
// specialization tags:
//
//	expr   := alt
//	alt    := cat { "|" cat }
//	cat    := unary { "," unary }
//	unary  := primary { "*" | "+" | "?" }
//	primary:= name [ "^" int ] | "(" expr ")" | "EMPTY" | "FAIL"
//
// EMPTY and FAIL denote ε and ∅ and exist mainly for tests and tool input;
// DTD files use the standard forms. Whitespace is insignificant.
func Parse(input string) (Expr, error) { return new(Parser).Parse(input) }

// MustParse is Parse that panics on error; for tests and package literals.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// maxNesting bounds parenthesis nesting in content models; the parser is
// recursive and must reject adversarial "(((((…" inputs gracefully.
const maxNesting = 2048

// Parser parses content models; the zero value is ready. One Parser serves
// all the models of a document, one Parse at a time, and what it keeps
// between calls is why a document costs per declaration and not per token:
// operands wait on one stack and are copied out only into a sequence or
// alternation that has at least two of them, each copy carved, exactly
// sized, from one slab; and every distinct name is boxed into an Atom once,
// all its occurrences sharing the box — expressions are immutable, so they
// cannot tell.
type Parser struct {
	src   string
	pos   int
	depth int
	stack []Expr
	atoms map[Name]Expr
	// slab is where the items of sequences and alternations are carved
	// from: a carved slice has cap == len, so an append to one model's
	// items moves it and never writes into another's. A full slab is left
	// to the models carved from it and replaced by one twice its size.
	slab []Expr
}

// Grow sizes the atom table for n distinct names, for a caller that knows
// about how many are coming, so that it is not grown from empty. Called
// once the table exists — after the first name — it does nothing.
func (p *Parser) Grow(n int) {
	if p.atoms == nil {
		p.atoms = make(map[Name]Expr, n)
	}
}

// Parse parses one expression, as the package's Parse does.
func (p *Parser) Parse(input string) (Expr, error) {
	p.src, p.pos, p.depth, p.stack = input, 0, 0, p.stack[:0]
	if p.stack == nil {
		p.stack = make([]Expr, 0, 16)
	}
	if err := p.parseAlt(); err != nil {
		return nil, err
	}
	p.ws()
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected %q", p.src[p.pos:])
	}
	return p.stack[0], nil
}

// minSlab is the size of a parser's first slab, in items.
const minSlab = 32

// carve returns a copy of items from the slab, with cap == len.
func (p *Parser) carve(items []Expr) []Expr {
	n := len(p.slab)
	if cap(p.slab)-n < len(items) {
		p.slab, n = make([]Expr, 0, max(minSlab, 2*cap(p.slab), len(items))), 0
	}
	p.slab = append(p.slab, items...)
	return p.slab[n:len(p.slab):len(p.slab)]
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("regex: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *Parser) ws() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *Parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// Each parse function leaves its result on top of the stack.

func (p *Parser) parseAlt() error { return p.parseList('|') }
func (p *Parser) parseCat() error { return p.parseList(',') }

// parseList parses item { sep item } — an alternation of sequences for '|',
// a sequence of unary expressions for ',' — and replaces the items it
// stacked, when they are two or more, by Or or Cat over a copy of exactly
// them carved from the slab. It calls no function value, which would make
// the parser escape to the heap.
func (p *Parser) parseList(sep byte) error {
	base := len(p.stack)
	for {
		var err error
		if sep == '|' {
			err = p.parseCat()
		} else {
			err = p.parseUnary()
		}
		if err != nil {
			return err
		}
		p.ws()
		if p.peek() != sep {
			break
		}
		p.pos++
	}
	if items := p.stack[base:]; len(items) > 1 {
		var e Expr
		if sep == '|' {
			e = Or(p.carve(items)...)
		} else {
			e = Cat(p.carve(items)...)
		}
		p.stack = append(p.stack[:base], e)
	}
	return nil
}

func (p *Parser) parseUnary() error {
	if err := p.parsePrimary(); err != nil {
		return err
	}
	top := &p.stack[len(p.stack)-1]
	for {
		p.ws()
		switch p.peek() {
		case '*':
			*top = Rep(*top)
		case '+':
			*top = Rep1(*top)
		case '?':
			*top = Maybe(*top)
		default:
			return nil
		}
		p.pos++
	}
}

func (p *Parser) parsePrimary() error {
	p.ws()
	if p.pos >= len(p.src) {
		return p.errf("unexpected end of expression")
	}
	if p.peek() == '(' {
		if p.depth >= maxNesting {
			return p.errf("parenthesis nesting exceeds %d levels", maxNesting)
		}
		p.depth++
		p.pos++
		err := p.parseAlt()
		p.depth--
		if err != nil {
			return err
		}
		p.ws()
		if p.peek() != ')' {
			return p.errf("expected ')'")
		}
		p.pos++
		return nil
	}
	name := p.readName()
	switch name {
	case "":
		return p.errf("expected name, '(' or keyword")
	case "EMPTY":
		p.stack = append(p.stack, Empty{})
		return nil
	case "FAIL":
		p.stack = append(p.stack, Fail{})
		return nil
	}
	tag := 0
	if p.peek() == '^' {
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == start {
			return p.errf("expected tag number after '^'")
		}
		t, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil {
			return p.errf("bad tag: %v", err)
		}
		tag = t
	}
	n := Name{Base: name, Tag: tag}
	a, ok := p.atoms[n]
	if !ok {
		if p.atoms == nil {
			p.atoms = map[Name]Expr{}
		}
		a = Atom{Name: n}
		p.atoms[n] = a
	}
	p.stack = append(p.stack, a)
	return nil
}

func (p *Parser) readName() string {
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

// ParseWord parses a whitespace-separated sequence of (possibly tagged)
// names, e.g. "name professor publication^1". It is a convenience for tests
// and tools that feed words to automata.
func ParseWord(input string) ([]Name, error) {
	fields := strings.Fields(input)
	out := make([]Name, 0, len(fields))
	for _, f := range fields {
		e, err := Parse(f)
		if err != nil {
			return nil, err
		}
		a, ok := e.(Atom)
		if !ok {
			return nil, fmt.Errorf("regex: %q is not a name", f)
		}
		out = append(out, a.Name)
	}
	return out, nil
}
