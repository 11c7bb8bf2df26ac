package dtd

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// Parse parses a full DOCTYPE declaration
// ("<!DOCTYPE root [ <!ELEMENT ...> ]>"); a bare internal subset goes to
// ParseSubset, with the document type supplied separately. Only blank text
// may follow the declaration.
func Parse(input string) (*DTD, error) {
	d, rest, err := ParsePrefix(input)
	if err == nil && strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("dtd: unexpected content after the DOCTYPE declaration: %.40q", rest)
	}
	return d, err
}

// ParsePrefix parses the DOCTYPE declaration that text starts with and
// returns what follows its closing '>' (in an /infer request, the view
// definition). The declaration ends where its markup says it does: a ']' or
// '>' inside a comment, a processing instruction or a quoted literal does
// not count.
func ParsePrefix(text string) (d *DTD, rest string, err error) {
	s := strings.TrimLeftFunc(text, unicode.IsSpace)
	if !strings.HasPrefix(s, "<!DOCTYPE") {
		return nil, "", fmt.Errorf("dtd: input does not start with <!DOCTYPE (use ParseSubset for bare element declarations)")
	}
	s = strings.TrimLeft(s[len("<!DOCTYPE"):], xmlSpace)
	i := strings.IndexAny(s, xmlSpace+"[>")
	if i < 0 {
		i = len(s)
	}
	root, s := s[:i], s[i:]
	if root == "" {
		return nil, "", fmt.Errorf("dtd: missing document type name in DOCTYPE")
	}
	// An external identifier's literals may hold either character.
	if i = indexUnquoted(s, "[>"); i < 0 {
		return nil, "", fmt.Errorf("dtd: unterminated DOCTYPE declaration")
	}
	if s[i] == '>' {
		// DOCTYPE with no internal subset: an empty DTD.
		return New(root), s[i+1:], nil
	}
	d, s, err = parseSubset(root, s[i+1:])
	if err != nil {
		return nil, "", err
	}
	if s = strings.TrimLeft(strings.TrimPrefix(s, "]"), xmlSpace); !strings.HasPrefix(s, ">") {
		return nil, "", fmt.Errorf("dtd: unterminated internal subset")
	}
	return d, s[1:], nil
}

// ParseSubset parses the internal subset of a DOCTYPE declaration: a
// sequence of <!ELEMENT name spec> declarations, where spec is EMPTY, ANY,
// (#PCDATA), or a content model. <!ATTLIST ...>, <!ENTITY ...>, <!NOTATION
// ...> declarations, processing instructions and comments are skipped,
// since attributes (other than ID) and entities are outside the paper's
// model (Section 2). ANY is expanded per Remark 1 as (n1 | ... | nk)* over
// all declared names, in a second pass.
func ParseSubset(root, subset string) (*DTD, error) {
	d, rest, err := parseSubset(root, subset)
	if err == nil && rest != "" {
		return nil, fmt.Errorf("dtd: unexpected content in internal subset: %.40q", rest)
	}
	return d, err
}

// parseSubset parses declarations up to the end of s or to a ']' between
// two of them — the one that closes the subset — and returns s from there.
// Being the parser, it is also the only scanner that knows where a subset
// ends.
func parseSubset(root, s string) (*DTD, string, error) {
	// Counting the keyword sizes the tables; it is a hint, a comment may
	// hold one too.
	decls := strings.Count(s, "<!ELEMENT")
	d := NewSized(root, decls)
	var models regex.Parser // one for the document: its atoms are shared
	var anyNames []string
	for {
		s = skipSubsetMisc(s)
		if s == "" || s[0] == ']' {
			break
		}
		if !strings.HasPrefix(s, "<!") {
			return nil, "", fmt.Errorf("dtd: unexpected content in internal subset: %.40q", s)
		}
		end := indexUnquoted(s, ">")
		if end < 0 {
			return nil, "", fmt.Errorf("dtd: unterminated declaration: %.40q", s)
		}
		decl := s[2:end]
		s = s[end+1:]
		keyword, body := cutField(decl)
		switch keyword {
		case "": // "<!>" declares nothing
		case "ELEMENT":
			name, spec := cutField(body)
			if spec == "" {
				return nil, "", fmt.Errorf("dtd: malformed element declaration <!%s>", decl)
			}
			if !isXMLName(name) {
				return nil, "", fmt.Errorf("dtd: %q is not a valid element name", name)
			}
			if _, dup := d.Types[name]; dup {
				return nil, "", fmt.Errorf("dtd: element %s declared twice", name)
			}
			t, isAny, err := parseSpec(&models, name, strings.TrimSpace(spec))
			if err != nil {
				return nil, "", err
			}
			if isAny {
				anyNames = append(anyNames, name)
			}
			d.Declare(name, t)
		case "ATTLIST", "ENTITY", "NOTATION":
			// Outside the model; skipped deliberately.
		default:
			return nil, "", fmt.Errorf("dtd: unsupported declaration <!%s ...>", keyword)
		}
	}
	// Expand ANY per Remark 1: the macro (n1 | ... | nk)* over all names.
	if len(anyNames) > 0 {
		alts := make([]regex.Expr, 0, len(d.Types))
		for _, n := range d.order {
			alts = append(alts, regex.Nm(n))
		}
		anyModel := regex.Rep(regex.Or(alts...))
		for _, n := range anyNames {
			d.Types[n] = M(anyModel)
		}
	}
	return d, s, nil
}

// xmlSpace is the white space of XML (production S).
const xmlSpace = " \t\r\n"

// cutField splits s into its first blank-delimited field and what follows
// the blanks after it.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeft(s, xmlSpace)
	if i := strings.IndexAny(s, xmlSpace); i >= 0 {
		return s[:i], strings.TrimLeft(s[i:], xmlSpace)
	}
	return s, ""
}

// indexUnquoted returns the index of the first byte of s that is one of
// stops and outside a quoted literal, or -1.
func indexUnquoted(s, stops string) int {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\'':
			end := strings.IndexByte(s[i+1:], c)
			if end < 0 {
				return -1
			}
			i += end + 1
		case strings.IndexByte(stops, c) >= 0:
			return i
		}
	}
	return -1
}

// parseSpec parses the content specification of an ELEMENT declaration.
func parseSpec(models *regex.Parser, name, spec string) (Type, bool, error) {
	switch spec {
	case "EMPTY":
		// The paper excludes EMPTY elements (Section 2, requirement 3); we
		// accept the declaration and model it as empty element content, the
		// closest representable type (see Appendix A's OEM analogy).
		return M(regex.Eps()), false, nil
	case "ANY":
		return Type{}, true, nil
	}
	if strings.HasPrefix(spec, "(") && strings.Contains(spec, "#PCDATA") {
		inner := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(spec, "("), ")"))
		if inner == "#PCDATA" {
			return PC(), false, nil
		}
		return Type{}, false, fmt.Errorf("dtd: element %s: mixed content %q is outside the model (Section 2)", name, spec)
	}
	if strings.Contains(spec, "^") { // in a model that parses, a caret is a tag
		return Type{}, false, fmt.Errorf("dtd: element %s: tagged names are not allowed in a plain DTD: %s", name, spec)
	}
	e, err := models.Parse(spec)
	if err != nil {
		return Type{}, false, fmt.Errorf("dtd: element %s: %v", name, err)
	}
	return M(e), false, nil
}

// isXMLName checks the element-name syntax the rest of the system uses
// (letters/underscore first; then letters, digits, '-', '.', ':').
func isXMLName(s string) bool {
	for i, r := range s {
		if unicode.IsLetter(r) || r == '_' {
			continue
		}
		if i > 0 && (unicode.IsDigit(r) || r == '-' || r == '.' || r == ':') {
			continue
		}
		return false
	}
	return s != ""
}

func skipSubsetMisc(s string) string {
	for {
		s = strings.TrimLeft(s, " \t\r\n")
		switch {
		case strings.HasPrefix(s, "<!--"):
			end := strings.Index(s, "-->")
			if end < 0 {
				return ""
			}
			s = s[end+3:]
		case strings.HasPrefix(s, "<?"):
			end := strings.Index(s, "?>")
			if end < 0 {
				return ""
			}
			s = s[end+2:]
		default:
			return s
		}
	}
}

// ParseDocument parses an XML document together with its internal-subset
// DTD, the common input form for the tools: a valid XML document per
// Definition 2.4. The returned DTD is nil when the document has no DOCTYPE.
func ParseDocument(input string) (*xmlmodel.Document, *DTD, error) {
	doc, dt, err := xmlmodel.Parse(input)
	if err != nil {
		return nil, nil, err
	}
	if dt == nil {
		return doc, nil, nil
	}
	d, err := ParseSubset(dt.Root, dt.Internal)
	if err != nil {
		return nil, nil, err
	}
	return doc, d, nil
}

// MarshalDocument serializes a document with its DTD inline as a DOCTYPE
// internal subset, producing a self-contained valid XML document.
func MarshalDocument(doc *xmlmodel.Document, d *DTD, indent int) string {
	var b strings.Builder
	if d != nil {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	_ = xmlmodel.WriteElement(&b, doc.Root, indent) // a Builder's Write never fails
	return b.String()
}
