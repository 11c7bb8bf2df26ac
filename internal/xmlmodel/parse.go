package xmlmodel

import (
	"fmt"
	"strconv"
	"strings"
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
// It is a Scanner run to its end with the tree built along the way.
func Parse(input string) (*Document, *Doctype, error) {
	s := NewTreeScanner(input)
	if err := s.drain(); err != nil {
		return nil, nil, err
	}
	return s.Document(), s.doctype, nil
}

// ParseElement parses a single element (no prolog allowed).
func ParseElement(input string) (*Element, error) {
	s := &Scanner{src: input, build: true, fragment: true}
	if err := s.drain(); err != nil {
		return nil, err
	}
	return s.closed[0], nil
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

// entityRune decodes one entity body (the text between '&' and ';') to its
// rune. Error messages carry no package prefix: unescape adds it.
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
