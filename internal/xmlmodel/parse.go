package xmlmodel

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseError describes a syntax error in an XML input, with a byte offset
// and a 1-based line number into the original text.
type ParseError struct {
	Offset int
	Line   int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmlmodel: parse error at line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}

// Doctype carries the raw DOCTYPE declaration found while parsing a
// document: the declared root name and the text of the internal subset
// (the part between '[' and ']'), if any. Package dtd parses the subset.
type Doctype struct {
	Root     string
	Internal string
}

// Parse parses an XML document in the paper's model: a prolog (XML
// declaration, comments, an optional DOCTYPE with internal subset) followed
// by a single element. Attributes other than id are accepted and ignored
// (lenient mode) so that realistic documents parse; mixed content — text
// and elements interleaved under one parent — is rejected, per Section 2.
func Parse(input string) (*Document, *Doctype, error) {
	p := &parser{src: input}
	p.skipProlog()
	dt := p.doctype
	p.left = startTagBound(p.src[p.pos:])
	root, err := p.parseElement()
	if err != nil {
		return nil, nil, err
	}
	p.skipMisc()
	if !p.eof() {
		return nil, nil, p.errf("trailing content after root element")
	}
	doc := &Document{Root: root}
	if dt != nil {
		doc.DocType = dt.Root
	}
	return doc, dt, nil
}

// ParseElement parses a single element (no prolog allowed).
func ParseElement(input string) (*Element, error) {
	p := &parser{src: input}
	p.skipWS()
	p.left = startTagBound(p.src[p.pos:])
	e, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if !p.eof() {
		return nil, p.errf("trailing content after element")
	}
	return e, nil
}

// maxParseDepth bounds element nesting; the parser is recursive, so
// adversarial inputs like "<a><a><a>…" must not overflow the stack.
const maxParseDepth = 4096

type parser struct {
	src     string
	pos     int
	depth   int
	doctype *Doctype

	// The tree is built per document, not per node: elements and child
	// lists are carved out of chunked slabs. The children of every open
	// element wait on one stack and are copied out, exactly sized, when
	// their parent closes.
	elems slab[Element]
	kids  slab[*Element]
	stack []*Element
	// left is an upper bound on the start tags in the unread input (see
	// startTagBound), counted once and decremented per element: no chunk
	// is sized past it, so a well-formed document's slabs end full.
	left int
}

// Slab chunks double from minChunk to maxChunk, so the chunk being filled
// is never larger than what the input has already earned by parsing
// cleanly: a hostile body fails having allocated a constant, whatever
// startTagBound made of it.
const (
	minChunk = 8
	maxChunk = 1024
)

// slab hands out sub-slices of chunks it allocates by the doubling rule.
type slab[T any] struct {
	free []T
	next int
}

// take returns n fresh zeroed Ts with cap == len, so that an append to
// what it returns reallocates instead of overwriting a neighbour. bound
// caps a new chunk (but never below n).
func (s *slab[T]) take(n, bound int) []T {
	if n > len(s.free) {
		s.next = min(max(2*s.next, minChunk), maxChunk)
		s.free = make([]T, max(n, min(s.next, bound)))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// startTagBound counts the '<' of s that can open an element, those not
// followed by '/', '!' or '?': an upper bound on the elements in s.
func startTagBound(s string) int {
	n := 0
	for {
		i := strings.IndexByte(s, '<')
		if i < 0 {
			return n
		}
		s = s[i+1:]
		if s == "" || (s[0] != '/' && s[0] != '!' && s[0] != '?') {
			n++
		}
	}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) errf(format string, args ...any) error {
	off := min(p.pos, len(p.src))
	line := 1
	for i := 0; i < off; i++ {
		switch p.src[i] {
		case '\n':
			line++
		case '\r':
			// A lone \r (classic Mac line ending) terminates a line; the
			// \r of a \r\n pair must not, or CRLF input double-counts.
			if i+1 >= off || p.src[i+1] != '\n' {
				line++
			}
		}
	}
	return &ParseError{Offset: off, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
}

// skipMisc skips whitespace and comments.
func (p *parser) skipMisc() {
	for {
		p.skipWS()
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 4 + end + 3
			continue
		}
		return
	}
}

func (p *parser) skipProlog() {
	for {
		p.skipMisc()
		rest := p.src[p.pos:]
		switch {
		case strings.HasPrefix(rest, "<?"):
			end := strings.Index(rest, "?>")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 2
		case strings.HasPrefix(rest, "<!DOCTYPE"):
			p.parseDoctype()
		default:
			return
		}
	}
}

func (p *parser) parseDoctype() {
	p.pos += len("<!DOCTYPE")
	p.skipWS()
	root := p.readName()
	dt := &Doctype{Root: root}
	// Scan to the end of the declaration, capturing an internal subset.
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '[' {
			start := p.pos + 1
			d := 1
			i := start
			for i < len(p.src) && d > 0 {
				switch p.src[i] {
				case '[':
					d++
				case ']':
					d--
				}
				i++
			}
			end := i
			if d == 0 {
				end = i - 1 // drop the consumed closing ']'
			}
			dt.Internal = p.src[start:end]
			p.pos = i
			continue
		}
		if c == '>' {
			p.pos++
			break
		}
		p.pos++
	}
	p.doctype = dt
}

func (p *parser) readName() string {
	start := p.pos
	for p.pos < len(p.src) {
		r, sz := utf8.DecodeRuneInString(p.src[p.pos:])
		if isNameRune(r, p.pos == start) {
			p.pos += sz
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func isNameRune(r rune, first bool) bool {
	if unicode.IsLetter(r) || r == '_' {
		return true
	}
	if first {
		return false
	}
	return unicode.IsDigit(r) || r == '-' || r == '.' || r == ':'
}

func (p *parser) parseElement() (*Element, error) {
	if p.depth >= maxParseDepth {
		return nil, p.errf("element nesting exceeds %d levels", maxParseDepth)
	}
	if p.eof() || p.src[p.pos] != '<' {
		return nil, p.errf("expected '<'")
	}
	p.pos++
	name := p.readName()
	if name == "" {
		return nil, p.errf("expected element name")
	}
	e := &p.elems.take(1, p.left)[0]
	p.left--
	e.Name = name
	// Attributes: only id is kept; others are accepted and dropped.
	for {
		p.skipWS()
		if p.eof() {
			return nil, p.errf("unterminated start tag <%s", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			return e, nil // empty-content element
		}
		if p.src[p.pos] == '>' {
			p.pos++
			break
		}
		attr := p.readName()
		if attr == "" {
			return nil, p.errf("expected attribute name in <%s>", name)
		}
		p.skipWS()
		if p.eof() || p.src[p.pos] != '=' {
			return nil, p.errf("expected '=' after attribute %s", attr)
		}
		p.pos++
		p.skipWS()
		val, err := p.readQuoted()
		if err != nil {
			return nil, err
		}
		if attr == "id" || attr == "ID" {
			e.ID = val
		}
	}
	// Content: element content or character content, never mixed. The
	// text is its chunks concatenated and trimmed; blank chunks before the
	// first non-blank one would be trimmed away, so they are dropped here,
	// and content that is a single chunk (no comment splits it) is never
	// copied: without entities it is a substring of the input, which
	// every Name keeps alive anyway.
	var text string
	var split strings.Builder
	sawText := false
	base := len(p.stack)
	p.depth++
	for {
		if p.eof() {
			return nil, p.errf("unterminated element <%s>", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				return nil, p.errf("unterminated comment")
			}
			p.pos += 4 + end + 3
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			p.skipWS()
			end := p.readName()
			p.skipWS()
			if p.eof() || p.src[p.pos] != '>' {
				return nil, p.errf("malformed end tag for <%s>", name)
			}
			p.pos++
			if end != "" && end != name {
				return nil, p.errf("end tag </%s> does not match <%s>", end, name)
			}
			break
		}
		if p.src[p.pos] == '<' {
			child, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			p.stack = append(p.stack, child)
			continue
		}
		// Character data.
		chunk, err := p.readText()
		if err != nil {
			return nil, err
		}
		switch {
		case sawText:
			if split.Len() == 0 {
				split.WriteString(text)
			}
			split.WriteString(chunk)
		case strings.TrimSpace(chunk) != "":
			sawText = true
			text = chunk
		}
	}
	p.depth--
	if n := len(p.stack) - base; n > 0 {
		e.Children = p.kids.take(n, len(p.stack)+p.left)
		copy(e.Children, p.stack[base:])
		p.stack = p.stack[:base]
	}
	if sawText {
		if len(e.Children) > 0 {
			return nil, p.errf("mixed content in <%s> is not supported by the model (Section 2)", name)
		}
		if split.Len() > 0 {
			text = split.String()
		}
		e.IsText = true
		e.Text = strings.TrimSpace(text)
	}
	return e, nil
}

func (p *parser) readQuoted() (string, error) {
	if p.eof() || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return "", p.errf("expected quoted attribute value")
	}
	q := p.src[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.eof() {
		return "", p.errf("unterminated attribute value")
	}
	val := p.src[start:p.pos]
	p.pos++
	return unescape(val)
}

func (p *parser) readText() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '<' {
		p.pos++
	}
	return unescape(p.src[start:p.pos])
}

var errUnterminatedEntity = errors.New("unterminated entity reference")

// entityRune decodes one entity body (the text between '&' and ';') to its
// rune. Error messages carry no package prefix so both the tree parser and
// the scanner can wrap them in their own error shapes.
func entityRune(ent string) (rune, error) {
	switch {
	case ent == "lt":
		return '<', nil
	case ent == "gt":
		return '>', nil
	case ent == "amp":
		return '&', nil
	case ent == "quot":
		return '"', nil
	case ent == "apos":
		return '\'', nil
	case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
		n, err := strconv.ParseInt(ent[2:], 16, 32)
		if err != nil {
			return 0, fmt.Errorf("bad character reference &%s;", ent)
		}
		return rune(n), nil
	case strings.HasPrefix(ent, "#"):
		n, err := strconv.ParseInt(ent[1:], 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad character reference &%s;", ent)
		}
		return rune(n), nil
	}
	return 0, fmt.Errorf("unknown entity &%s; (entities are outside the model, Section 2)", ent)
}

func unescape(s string) (string, error) {
	if !strings.Contains(s, "&") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", fmt.Errorf("xmlmodel: unterminated entity reference in %q", s)
		}
		r, err := entityRune(s[i+1 : i+semi])
		if err != nil {
			return "", fmt.Errorf("xmlmodel: %v", err)
		}
		b.WriteRune(r)
		i += semi + 1
	}
	return b.String(), nil
}
