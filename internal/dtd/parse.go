package dtd

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// Parse parses a DTD given as either a bare internal subset
// ("<!ELEMENT a (b, c)> ...") with the document type supplied separately
// via ParseSubset, or a full DOCTYPE declaration
// ("<!DOCTYPE root [ <!ELEMENT ...> ]>").
func Parse(input string) (*DTD, error) {
	s := strings.TrimSpace(input)
	if !strings.HasPrefix(s, "<!DOCTYPE") {
		return nil, fmt.Errorf("dtd: input does not start with <!DOCTYPE (use ParseSubset for bare element declarations)")
	}
	s = strings.TrimPrefix(s, "<!DOCTYPE")
	s = strings.TrimLeft(s, " \t\r\n")
	i := 0
	for i < len(s) && !strings.ContainsRune(" \t\r\n[>", rune(s[i])) {
		i++
	}
	root := s[:i]
	if root == "" {
		return nil, fmt.Errorf("dtd: missing document type name in DOCTYPE")
	}
	s = s[i:]
	open := strings.IndexByte(s, '[')
	if open < 0 {
		// DOCTYPE with no internal subset: an empty DTD.
		return New(root), nil
	}
	closeIdx := strings.LastIndexByte(s, ']')
	if closeIdx < open {
		return nil, fmt.Errorf("dtd: unterminated internal subset")
	}
	return ParseSubset(root, s[open+1:closeIdx])
}

// ParseSubset parses the internal subset of a DOCTYPE declaration: a
// sequence of <!ELEMENT name spec> declarations, where spec is EMPTY, ANY,
// (#PCDATA), or a content model. <!ATTLIST ...>, <!ENTITY ...>, <!NOTATION
// ...> declarations, processing instructions and comments are skipped,
// since attributes (other than ID) and entities are outside the paper's
// model (Section 2). ANY is expanded per Remark 1 as (n1 | ... | nk)* over
// all declared names, in a second pass.
func ParseSubset(root, subset string) (*DTD, error) {
	d := New(root)
	var anyNames []string
	rest := subset
	for {
		rest = skipSubsetMisc(rest)
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, "<!") {
			return nil, fmt.Errorf("dtd: unexpected content in internal subset: %.40q", rest)
		}
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return nil, fmt.Errorf("dtd: unterminated declaration: %.40q", rest)
		}
		decl := rest[2:end]
		rest = rest[end+1:]
		fields := strings.Fields(decl)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "ELEMENT":
			if len(fields) < 3 {
				return nil, fmt.Errorf("dtd: malformed element declaration <!%s>", decl)
			}
			name := fields[1]
			if !isXMLName(name) {
				return nil, fmt.Errorf("dtd: %q is not a valid element name", name)
			}
			if _, dup := d.Types[name]; dup {
				return nil, fmt.Errorf("dtd: element %s declared twice", name)
			}
			spec := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(decl), "ELEMENT"))
			spec = strings.TrimSpace(strings.TrimPrefix(spec, name))
			t, isAny, err := parseSpec(name, spec)
			if err != nil {
				return nil, err
			}
			if isAny {
				anyNames = append(anyNames, name)
			}
			d.Declare(name, t)
		case "ATTLIST", "ENTITY", "NOTATION":
			// Outside the model; skipped deliberately.
		default:
			return nil, fmt.Errorf("dtd: unsupported declaration <!%s ...>", fields[0])
		}
	}
	// Expand ANY per Remark 1: the macro (n1 | ... | nk)* over all names.
	if len(anyNames) > 0 {
		alts := make([]regex.Expr, 0, len(d.Types))
		for _, n := range d.Names() {
			alts = append(alts, regex.Nm(n))
		}
		anyModel := regex.Rep(regex.Or(alts...))
		for _, n := range anyNames {
			d.Types[n] = M(anyModel)
		}
	}
	return d, nil
}

// parseSpec parses the content specification of an ELEMENT declaration.
func parseSpec(name, spec string) (Type, bool, error) {
	switch strings.TrimSpace(spec) {
	case "EMPTY":
		// The paper excludes EMPTY elements (Section 2, requirement 3); we
		// accept the declaration and model it as empty element content, the
		// closest representable type (see Appendix A's OEM analogy).
		return M(regex.Eps()), false, nil
	case "ANY":
		return Type{}, true, nil
	}
	s := strings.TrimSpace(spec)
	if strings.HasPrefix(s, "(") && strings.Contains(s, "#PCDATA") {
		inner := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(s, "("), ")"))
		if inner == "#PCDATA" {
			return PC(), false, nil
		}
		return Type{}, false, fmt.Errorf("dtd: element %s: mixed content %q is outside the model (Section 2)", name, spec)
	}
	e, err := regex.Parse(s)
	if err != nil {
		return Type{}, false, fmt.Errorf("dtd: element %s: %v", name, err)
	}
	for _, n := range regex.Names(e) {
		if n.Tag != 0 {
			return Type{}, false, fmt.Errorf("dtd: element %s: tagged name %s not allowed in a plain DTD", name, n)
		}
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
