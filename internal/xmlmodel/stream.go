package xmlmodel

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// EventKind discriminates scanner events.
type EventKind uint8

const (
	// EventStart is an element start tag. A self-closing element produces
	// an EventStart immediately followed by its EventEnd.
	EventStart EventKind = iota
	// EventEnd is an element end tag.
	EventEnd
	// EventText is a non-whitespace character-data chunk.
	EventText
	// EventEOF reports a well-formed end of the document. Next keeps
	// returning it once the root element has closed cleanly.
	EventEOF
)

// Event is one SAX-style scanner event. Entities are resolved: Text and ID
// are what the document says, not how it spells it. A chunk or attribute
// value containing '&' is the only thing an event allocates; every other
// string field is a slice of the scanner's input.
type Event struct {
	Kind EventKind
	// Name is the element name of a Start or End event, and of the element
	// a Text event's chunk belongs to.
	Name string
	// Text is the character data of a Text event: one chunk (comments split
	// an element's text into several), untrimmed.
	Text string
	// ID is the id/ID attribute value of a Start event ("" when absent).
	ID string
}

// openElem is the scanner's state per open element: enough to match end
// tags and reject mixed content, so a document of any size scans in
// O(depth) memory. A scan that builds the tree also keeps the element
// here (its Text is the text so far) and where its closed children start
// on Scanner.closed.
type openElem struct {
	name     string
	sawText  bool
	sawChild bool
	elem     *Element
	base     int
}

// maxParseDepth bounds element nesting, and with it the open-element stack
// an adversarial "<a><a><a>…" can make a scan hold.
const maxParseDepth = 4096

// Scanner is the tokenizer of the paper's XML model, the only code that
// knows its lexical rules: prolog, a single element, attributes beyond id
// ignored, mixed content rejected (Section 2) when the element closes. It
// delivers a flat event stream; Parse, ParseElement and NewTreeScanner are
// the same scan with the tree built along the way, so all of them accept
// the same documents and fail with the same error at the same offset.
type Scanner struct {
	src     string
	pos     int
	doctype *Doctype
	stack   []openElem
	// fragment is ParseElement's scan: no prolog, nothing but whitespace
	// after the element.
	fragment bool
	started  bool
	done     bool
	// pendingEnd: the innermost open element was self-closing, and the next
	// call closes it.
	pendingEnd bool
	err        error

	// The tree, when the scan builds one. It is built per document, not per
	// node: elements and child lists are carved out of chunked slabs. Closed
	// elements wait on one stack and are copied out, exactly sized, when
	// their parent closes; the root is what remains.
	build  bool
	elems  slab[Element]
	kids   slab[*Element]
	closed []*Element
	// left is an upper bound on the start tags in the unread input (see
	// startTagBound), counted once and decremented per element: no chunk
	// is sized past it, so a well-formed document's slabs end full.
	left int
	// split joins the chunks of the one text that can be growing, the
	// innermost open element's: a child opening under a text makes the
	// content mixed, and its text is never looked at again.
	split strings.Builder
}

// NewScanner returns a scanner positioned at the start of input. It builds
// nothing.
func NewScanner(input string) *Scanner { return &Scanner{src: input} }

// NewTreeScanner returns a scanner that also builds the document's tree,
// as Parse does: Document returns it once Next has returned EventEOF. A
// consumer that stops at an event it rejects has paid for the tree of the
// input before that event, and no more.
func NewTreeScanner(input string) *Scanner { return &Scanner{src: input, build: true} }

// Doctype returns the DOCTYPE declaration found in the prolog, available
// after the first Next call; nil when the document has none.
func (s *Scanner) Doctype() *Doctype { return s.doctype }

// Document returns the tree of a NewTreeScanner scan that has reached
// EventEOF, and nil before that or when the scan builds nothing.
func (s *Scanner) Document() *Document {
	if !s.done || !s.build {
		return nil
	}
	doc := &Document{Root: s.closed[0]}
	if s.doctype != nil {
		doc.DocType = s.doctype.Root
	}
	return doc
}

// Next returns the next event. After an error, every later call returns
// the same error; after a clean end of document, every call returns
// EventEOF.
func (s *Scanner) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	ev, err := s.next()
	if err != nil {
		s.err = err
		return Event{}, err
	}
	return ev, nil
}

// drain runs the scan to its end.
func (s *Scanner) drain() error {
	for {
		if ev, err := s.next(); err != nil || ev.Kind == EventEOF {
			return err
		}
	}
}

func (s *Scanner) next() (Event, error) {
	if s.pendingEnd {
		s.pendingEnd = false
		ev := Event{Kind: EventEnd, Name: s.stack[len(s.stack)-1].name}
		return ev, s.closeTop()
	}
	if !s.started {
		s.started = true
		if s.fragment {
			s.skipWS()
		} else {
			s.skipProlog()
		}
		if s.build {
			s.left = startTagBound(s.src[s.pos:])
		}
		return s.openTag()
	}
	if len(s.stack) == 0 {
		if s.done {
			return Event{Kind: EventEOF}, nil
		}
		what := "root element"
		if s.fragment {
			what = "element"
			s.skipWS()
		} else {
			s.skipMisc()
		}
		if !s.eof() {
			return Event{}, s.errf("trailing content after %s", what)
		}
		s.done = true
		return Event{Kind: EventEOF}, nil
	}
	// Content: element content or character content, never mixed.
	for {
		top := &s.stack[len(s.stack)-1]
		if s.eof() {
			return Event{}, s.errf("unterminated element <%s>", top.name)
		}
		rest := s.src[s.pos:]
		switch {
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest[4:], "-->")
			if end < 0 {
				return Event{}, s.errf("unterminated comment")
			}
			s.pos += 4 + end + 3
		case strings.HasPrefix(rest, "</"):
			ev := Event{Kind: EventEnd, Name: top.name}
			return ev, s.endTag(ev.Name)
		case rest[0] == '<':
			top.sawChild = true
			return s.openTag()
		default:
			text, err := s.charData(top)
			if err != nil {
				return Event{}, err
			}
			if text != "" {
				return Event{Kind: EventText, Name: top.name, Text: text}, nil
			}
		}
	}
}

// openTag scans a start tag (possibly self-closing) at the current
// position, opens its element and emits its EventStart.
func (s *Scanner) openTag() (Event, error) {
	if len(s.stack) >= maxParseDepth {
		return Event{}, s.errf("element nesting exceeds %d levels", maxParseDepth)
	}
	if s.eof() || s.src[s.pos] != '<' {
		return Event{}, s.errf("expected '<'")
	}
	s.pos++
	name := s.readName()
	if name == "" {
		return Event{}, s.errf("expected element name")
	}
	ev := Event{Kind: EventStart, Name: name}
	// Attributes: only id is kept; others are accepted and dropped.
	for {
		s.skipWS()
		if s.eof() {
			return Event{}, s.errf("unterminated start tag <%s", name)
		}
		if strings.HasPrefix(s.src[s.pos:], "/>") {
			s.pos += 2
			s.pendingEnd = true // empty-content element
			break
		}
		if s.src[s.pos] == '>' {
			s.pos++
			break
		}
		attr := s.readName()
		if attr == "" {
			return Event{}, s.errf("expected attribute name in <%s>", name)
		}
		s.skipWS()
		if s.eof() || s.src[s.pos] != '=' {
			return Event{}, s.errf("expected '=' after attribute %s", attr)
		}
		s.pos++
		s.skipWS()
		val, err := s.attrValue()
		if err != nil {
			return Event{}, err
		}
		if attr == "id" || attr == "ID" {
			ev.ID = val
		}
	}
	open := openElem{name: name, base: len(s.closed)}
	if s.build {
		open.elem = &s.elems.take(1, s.left)[0]
		s.left--
		open.elem.Name, open.elem.ID = name, ev.ID
	}
	s.stack = append(s.stack, open)
	return ev, nil
}

// attrValue scans a quoted attribute value and resolves its entities.
func (s *Scanner) attrValue() (string, error) {
	if s.eof() || (s.src[s.pos] != '"' && s.src[s.pos] != '\'') {
		return "", s.errf("expected quoted attribute value")
	}
	start := s.pos + 1
	end := strings.IndexByte(s.src[start:], s.src[s.pos])
	if end < 0 {
		s.pos = len(s.src)
		return "", s.errf("unterminated attribute value")
	}
	s.pos = start + end + 1
	return unescape(s.src[start : start+end])
}

// endTag scans the end tag at the current position, which must name the
// innermost open element (or nothing: "</>" closes it too), and closes it.
func (s *Scanner) endTag(name string) error {
	s.pos += 2
	s.skipWS()
	end := s.readName()
	s.skipWS()
	if s.eof() || s.src[s.pos] != '>' {
		return s.errf("malformed end tag for <%s>", name)
	}
	s.pos++
	if end != "" && end != name {
		return s.errf("end tag </%s> does not match <%s>", end, name)
	}
	return s.closeTop()
}

// closeTop closes the innermost open element, past its end tag: mixed
// content is reported here, and a scan that builds gives the element its
// children and its text.
func (s *Scanner) closeTop() error {
	top := &s.stack[len(s.stack)-1]
	if top.sawText && top.sawChild {
		return s.errf("mixed content in <%s> is not supported by the model (Section 2)", top.name)
	}
	if e := top.elem; e != nil {
		if n := len(s.closed) - top.base; n > 0 {
			e.Children = s.kids.take(n, len(s.closed)+s.left)
			copy(e.Children, s.closed[top.base:])
			s.closed = s.closed[:top.base]
		}
		if top.sawText {
			if s.split.Len() > 0 {
				e.Text = s.split.String()
				s.split.Reset()
			}
			e.IsText, e.Text = true, strings.TrimSpace(e.Text)
		}
		s.closed = append(s.closed, e)
	}
	s.stack = s.stack[:len(s.stack)-1]
	return nil
}

// charData scans the character-data chunk up to the next markup and
// resolves its entities. It returns the chunk when it is to be reported,
// and "" when it is blank. An element's text is its chunks concatenated
// and trimmed; blank chunks before the first non-blank one would be
// trimmed away, so they are dropped here, and content that is a single
// chunk (no comment splits it) is never copied: without entities it is a
// substring of the input, which every Name keeps alive anyway.
func (s *Scanner) charData(top *openElem) (string, error) {
	end := strings.IndexByte(s.src[s.pos:], '<')
	if end < 0 {
		end = len(s.src) - s.pos
	}
	chunk, err := unescape(s.src[s.pos : s.pos+end])
	s.pos += end
	if err != nil {
		return "", err
	}
	blank := strings.TrimSpace(chunk) == ""
	switch {
	case !top.sawText && !blank:
		top.sawText = true
		if top.elem != nil {
			top.elem.Text = chunk
			s.split.Reset()
		}
	case top.sawText && top.elem != nil && !top.sawChild:
		if s.split.Len() == 0 {
			s.split.WriteString(top.elem.Text)
		}
		s.split.WriteString(chunk)
	}
	if blank {
		return "", nil
	}
	return chunk, nil
}

func (s *Scanner) eof() bool { return s.pos >= len(s.src) }

func (s *Scanner) errf(format string, args ...any) error {
	off := min(s.pos, len(s.src))
	line := 1
	for i := 0; i < off; i++ {
		switch s.src[i] {
		case '\n':
			line++
		case '\r':
			// A lone \r (classic Mac line ending) terminates a line; the
			// \r of a \r\n pair must not, or CRLF input double-counts.
			if i+1 >= off || s.src[i+1] != '\n' {
				line++
			}
		}
	}
	return &ParseError{Offset: off, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (s *Scanner) skipWS() {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			s.pos++
			continue
		}
		break
	}
}

// skipMisc skips whitespace and comments.
func (s *Scanner) skipMisc() {
	for {
		s.skipWS()
		if strings.HasPrefix(s.src[s.pos:], "<!--") {
			end := strings.Index(s.src[s.pos+4:], "-->")
			if end < 0 {
				s.pos = len(s.src)
				return
			}
			s.pos += 4 + end + 3
			continue
		}
		return
	}
}

func (s *Scanner) skipProlog() {
	for {
		s.skipMisc()
		rest := s.src[s.pos:]
		switch {
		case strings.HasPrefix(rest, "<?"):
			end := strings.Index(rest, "?>")
			if end < 0 {
				s.pos = len(s.src)
				return
			}
			s.pos += end + 2
		case strings.HasPrefix(rest, "<!DOCTYPE"):
			s.parseDoctype()
		default:
			return
		}
	}
}

func (s *Scanner) parseDoctype() {
	s.pos += len("<!DOCTYPE")
	s.skipWS()
	root := s.readName()
	dt := &Doctype{Root: root}
	// Scan to the end of the declaration, capturing an internal subset.
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == '[' {
			start := s.pos + 1
			d := 1
			i := start
			for i < len(s.src) && d > 0 {
				switch s.src[i] {
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
			dt.Internal = s.src[start:end]
			s.pos = i
			continue
		}
		if c == '>' {
			s.pos++
			break
		}
		s.pos++
	}
	s.doctype = dt
}

func (s *Scanner) readName() string {
	start := s.pos
	for s.pos < len(s.src) {
		r, sz := utf8.DecodeRuneInString(s.src[s.pos:])
		if isNameRune(r, s.pos == start) {
			s.pos += sz
			continue
		}
		break
	}
	return s.src[start:s.pos]
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
