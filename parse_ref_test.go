package mix_test

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

// The tree parser as it was before it built documents out of slabs — one
// heap object per element, every text through a strings.Builder — kept
// verbatim as the reference the differential test and FuzzParseDocument
// compare xmlmodel.Parse against: same trees, same DOCTYPE, same errors at
// the same offsets.

// Parse parses an XML document in the paper's model: a prolog (XML
// declaration, comments, an optional DOCTYPE with internal subset) followed
// by a single element. Attributes other than id are accepted and ignored
// (lenient mode) so that realistic documents parse; mixed content — text
// and elements interleaved under one parent — is rejected, per Section 2.
func refParse(input string) (*xmlmodel.Document, *xmlmodel.Doctype, error) {
	p := &refParser{src: input}
	p.skipProlog()
	dt := p.doctype
	root, err := p.parseElement()
	if err != nil {
		return nil, nil, err
	}
	p.skipMisc()
	if !p.eof() {
		return nil, nil, p.errf("trailing content after root element")
	}
	doc := &xmlmodel.Document{Root: root}
	if dt != nil {
		doc.DocType = dt.Root
	}
	return doc, dt, nil
}

// ParseElement parses a single element (no prolog allowed).
func refParseElement(input string) (*xmlmodel.Element, error) {
	p := &refParser{src: input}
	p.skipWS()
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

// refMaxParseDepth bounds element nesting; the parser is recursive, so
// adversarial inputs like "<a><a><a>…" must not overflow the stack.
const refMaxParseDepth = 4096

type refParser struct {
	src     string
	pos     int
	depth   int
	doctype *xmlmodel.Doctype
}

func (p *refParser) eof() bool { return p.pos >= len(p.src) }

func (p *refParser) errf(format string, args ...any) error {
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
	return &xmlmodel.ParseError{Offset: off, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) skipWS() {
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
func (p *refParser) skipMisc() {
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

func (p *refParser) skipProlog() {
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

func (p *refParser) parseDoctype() {
	p.pos += len("<!DOCTYPE")
	p.skipWS()
	root := p.readName()
	dt := &xmlmodel.Doctype{Root: root}
	// Scan to the end of the declaration, capturing an internal subset.
	depth := 0
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
		if c == '>' && depth == 0 {
			p.pos++
			break
		}
		p.pos++
	}
	p.doctype = dt
}

func (p *refParser) readName() string {
	start := p.pos
	for p.pos < len(p.src) {
		r, sz := utf8.DecodeRuneInString(p.src[p.pos:])
		if refIsNameRune(r, p.pos == start) {
			p.pos += sz
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func refIsNameRune(r rune, first bool) bool {
	if unicode.IsLetter(r) || r == '_' {
		return true
	}
	if first {
		return false
	}
	return unicode.IsDigit(r) || r == '-' || r == '.' || r == ':'
}

func (p *refParser) parseElement() (*xmlmodel.Element, error) {
	if p.depth >= refMaxParseDepth {
		return nil, p.errf("element nesting exceeds %d levels", refMaxParseDepth)
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.eof() || p.src[p.pos] != '<' {
		return nil, p.errf("expected '<'")
	}
	p.pos++
	name := p.readName()
	if name == "" {
		return nil, p.errf("expected element name")
	}
	e := &xmlmodel.Element{Name: name}
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
	// Content: element content or character content, never mixed.
	var text strings.Builder
	sawText := false
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
			e.Children = append(e.Children, child)
			continue
		}
		// Character data.
		chunk, err := p.readText()
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(chunk) != "" {
			sawText = true
		}
		text.WriteString(chunk)
	}
	if sawText {
		if len(e.Children) > 0 {
			return nil, p.errf("mixed content in <%s> is not supported by the model (Section 2)", name)
		}
		e.IsText = true
		e.Text = strings.TrimSpace(text.String())
	}
	return e, nil
}

func (p *refParser) readQuoted() (string, error) {
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
	return refUnescape(val)
}

func (p *refParser) readText() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '<' {
		p.pos++
	}
	return refUnescape(p.src[start:p.pos])
}

// refEntityRune decodes one entity body (the text between '&' and ';') to its
// rune. Error messages carry no package prefix so both the tree parser and
// the scanner can wrap them in their own error shapes.
func refEntityRune(ent string) (rune, error) {
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

func refUnescape(s string) (string, error) {
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
		r, err := refEntityRune(s[i+1 : i+semi])
		if err != nil {
			return "", fmt.Errorf("xmlmodel: %v", err)
		}
		b.WriteRune(r)
		i += semi + 1
	}
	return b.String(), nil
}

// checkParseAgainstReference holds both parser entry points to the
// reference on one input: equal trees and DOCTYPE on success, and errors
// that agree in text and, for a ParseError, in Offset, Line and Msg. A
// Scanner that builds nothing is held to Parse on the same input: the same
// DOCTYPE, and the same error or none.
func checkParseAgainstReference(t *testing.T, input string) {
	t.Helper()
	sameError := func(what string, got, want error) bool {
		t.Helper()
		if (got == nil) != (want == nil) {
			t.Errorf("%s: error %v, reference %v", what, got, want)
			return false
		}
		if got == nil {
			return true
		}
		var g, w *xmlmodel.ParseError
		if errors.As(got, &g) != errors.As(want, &w) || got.Error() != want.Error() || (g != nil && *g != *w) {
			t.Errorf("%s: error %#v, reference %#v", what, got, want)
		}
		return false
	}
	doc, dt, err := xmlmodel.Parse(input)
	refDoc, refDt, refErr := refParse(input)
	if sameError("Parse", err, refErr) {
		if !doc.Root.Equal(refDoc.Root) || doc.DocType != refDoc.DocType {
			t.Errorf("Parse: tree differs from the reference\n got %s\nwant %s", xmlmodel.Marshal(doc, -1), xmlmodel.Marshal(refDoc, -1))
		}
		if (dt == nil) != (refDt == nil) || (dt != nil && *dt != *refDt) {
			t.Errorf("Parse: DOCTYPE %+v, reference %+v", dt, refDt)
		}
	}
	sc := xmlmodel.NewScanner(input)
	var scanErr error
	for ev := (xmlmodel.Event{}); scanErr == nil && ev.Kind != xmlmodel.EventEOF; {
		ev, scanErr = sc.Next()
	}
	sameError("Scanner", scanErr, err)
	if sdt := sc.Doctype(); err == nil && ((sdt == nil) != (dt == nil) || (dt != nil && *sdt != *dt)) {
		t.Errorf("Scanner: DOCTYPE %+v, Parse %+v", sdt, dt)
	}
	e, err := xmlmodel.ParseElement(input)
	refE, refErr := refParseElement(input)
	if sameError("ParseElement", err, refErr) && !e.Equal(refE) {
		t.Errorf("ParseElement: tree differs from the reference\n got %s\nwant %s", e, refE)
	}
}

// familyText serializes a document of one load family, grown entry by
// entry over consecutive seeds until it is at least size bytes long.
func familyText(tb testing.TB, f load.Family, size int, textPool []string) string {
	tb.Helper()
	root := &xmlmodel.Element{Name: "site"}
	for seed, n := int64(1), 0; n < size; seed++ {
		src, err := load.BuildSource("site", load.SourceOptions{
			Schema: load.SchemaOptions{Seed: seed, Family: f},
			Gen:    gen.Options{AssignIDs: true, TextPool: textPool},
		})
		if err != nil {
			tb.Fatal(err)
		}
		for _, k := range src.Doc.Root.Children {
			if n >= size {
				break
			}
			root.Children = append(root.Children, k)
			n += len(k.String())
		}
	}
	return xmlmodel.Marshal(&xmlmodel.Document{DocType: "site", Root: root}, 2)
}

// plainPool has no character the serializer escapes, like the texts the
// benchmark's sources carry: every text of such a document is one
// entity-free chunk.
var plainPool = []string{"plain", "w17", "three words here", "naïve café"}

func nested(depth int) string {
	return strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
}

func TestParserMatchesReference(t *testing.T) {
	for _, f := range load.Families() {
		t.Run(string(f), func(t *testing.T) {
			checkParseAgainstReference(t, familyText(t, f, 16<<10, []string{
				"plain", "", "a&b", "<tag>", `say "hi"`, "naïve café ☕", "]]>", "&amp;", "  padded  ",
			}))
			checkParseAgainstReference(t, familyText(t, f, 16<<10, plainPool))
		})
	}
	hand := map[string]string{
		"text split by comments":         `<a>foo <!-- c --> bar<!--d-->baz</a>`,
		"blank between split chunks":     "<a>foo<!--c-->  \n <!--d-->bar</a>",
		"blanks around one chunk":        "<a> \n<!--c-->\t text \n<!--d-->  </a>",
		"blank entity around one chunk":  `<a>&#32;<!--c--> text <!--d-->&#x20;</a>`,
		"entity text":                    `<a>&lt;b&gt; &amp; &#65;&#x42; &quot;&apos;</a>`,
		"entity text split":              `<a>&lt;<!--c-->&gt;</a>`,
		"entity in id":                   `<a id="x&amp;y"><b ID='&lt;'/></a>`,
		"unknown entity":                 `<a>&nbsp;</a>`,
		"unterminated entity":            `<a>x &amp y</a>`,
		"bad character reference":        `<a>&#xZZ;</a>`,
		"whitespace only":                "<a> \n\t </a>",
		"whitespace only, with comments": "<a> <!--c--> <!--d--> </a>",
		"empty":                          `<a></a>`,
		"self-closing":                   `<a/>`,
		"empty children":                 "<r>\n  <a/>\n  <b></b>\n  <c> </c>\n</r>",
		"mixed, text first":              `<a>text<b/></a>`,
		"mixed, text last":               `<r><a><b/>text</a></r>`,
		"mixed, text between":            "<a><b/>\n text <!--c--><b/></a>",
		"CRLF":                           "<?xml version=\"1.0\"?>\r\n<!DOCTYPE a [\r\n<!ELEMENT a (b*)>\r\n]>\r\n<a>\r\n  <b>x\r\ny</b>\r\n</a>\r\n",
		"CRLF error":                     "<a>\r\n<b>\r\n</c>\r\n</a>",
		"lone CR error":                  "<a>\r<b>\r</c>\r</a>",
		"depth limit - 1":                nested(refMaxParseDepth - 1),
		"depth limit":                    nested(refMaxParseDepth),
		"depth limit + 1":                nested(refMaxParseDepth + 1),
		"unterminated start tag":         `<r><a><b id="1"`,
		"unterminated start tag name":    `<r><a`,
		"unterminated element":           `<r><a>text`,
		"unterminated end tag":           `<r><a></a`,
		"unterminated comment":           `<r><a><!-- never closed</a></r>`,
		"unterminated attribute":         `<a id="x></a>`,
		"unquoted attribute":             `<a id=x></a>`,
		"missing attribute name":         `<a =""></a>`,
		"mismatched end tag":             `<r><a></b></r>`,
		"anonymous end tag":              `<r><a>x</></r>`,
		"trailing content":               `<a/><b/>`,
		"trailing comment":               `<a/> <!-- fine -->`,
		"no element":                     `   `,
		"not an element":                 `<<<<<<<<<<<<<<<<`,
		"doctype only":                   `<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>`,
		"doctype without subset":         `<!DOCTYPE a><a/>`,
		"doctype, nested brackets":       `<!DOCTYPE a [ <!ENTITY % x "[y]"> ]><a/>`,
		"doctype, unterminated subset":   `<!DOCTYPE a [ <!ELEMENT a ANY>`,
		"foreign attributes":             `<a x="1" id="k" y='2'><b z="3">t</b></a>`,
		"wide":                           "<r>" + strings.Repeat("<a>x</a><b/>", 3000) + "</r>",
		"wide, failing late":             "<r>" + strings.Repeat("<a>x</a>", 3000) + "<",
		"non-ASCII names":                `<données id="é"><naïve>☕</naïve></données>`,
		"one text child":                 `<a><b>x</b></a>`,
		"mixed, one letter first":        `<a>x<b/></a>`,
		"mixed, one letter last":         `<a><b/>x</a>`,
		"blanks around a child":          `<a>  <b/>  </a>`,
		"anonymous end tag of a child":   `<a><b>x</></a>`,
		"unknown entity, bogus":          `<a>&bogus;</a>`,
		"unterminated root":              `<a>x`,
		"ignorable whitespace":           `<root> <x/> <x/> </root>`,
		"blank entity then child":        `<a>&#32;<b/></a>`,
		"mixed, entity then child":       `<a>&#65;<b/></a>`,
		"child closed by its parent":     `<a><b></a>`,
		"trailing element":               `<a></a><b/>`,
		"reference past U+10FFFF":        `<a>&#x110000;</a>`,
		"self-closing with attributes":   `<a foo="1" id="i"/>`,
		"unterminated comment, no end":   `<a><!-- no end`,
		"single-quoted attribute":        `<a b='q'><c/></a>`,
	}
	for name, input := range hand {
		t.Run(name, func(t *testing.T) { checkParseAgainstReference(t, input) })
	}
	for i, input := range parseDocumentSeeds {
		t.Run(fmt.Sprintf("fuzz seed %d", i), func(t *testing.T) { checkParseAgainstReference(t, input) })
	}
}

// allocatedBytes is the mean number of heap bytes one call of f allocates.
func allocatedBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f() // warm up: first-use allocations are not the call's own
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A parse allocates per document, not per node, and the slabs cost no
// bytes: no more than the reference's one-object-per-element tree did.
func TestParseAllocations(t *testing.T) {
	for _, f := range load.Families() {
		t.Run(string(f), func(t *testing.T) {
			text := familyText(t, f, 16<<10, plainPool)
			// One entry of the recursive family is 400 KiB: it is held to
			// the bytes only, the count is for 16 KiB documents.
			if n := testing.AllocsPerRun(20, func() { _, _, _ = xmlmodel.Parse(text) }); n > 40 && f != load.FamilyRecursive {
				t.Errorf("Parse of a %d-byte document: %v allocs, want ≤ 40", len(text), n)
			}
			got := allocatedBytes(20, func() { _, _, _ = xmlmodel.Parse(text) })
			ref := allocatedBytes(20, func() { _, _, _ = refParse(text) })
			if got > ref {
				t.Errorf("Parse of a %d-byte document allocates %d bytes, the reference %d", len(text), got, ref)
			}
		})
	}
}

// What a parse allocates is bounded by what it has parsed, not by what the
// unread input promises: a body of nothing but '<' — each of which counts
// towards the bound chunks are sized by — fails having allocated a
// constant, and one that fails late has paid for the elements it got.
func TestParseOfHostileInputAllocatesWhatItEarned(t *testing.T) {
	const parsed = 100000
	for _, c := range []struct {
		name, input string
		ceiling     uint64
	}{
		{"<<<<", strings.Repeat("<", 16<<20), 4 << 10},
		{"<a<a<a", strings.Repeat("<a", 8<<20), 4 << 10},
		// Twice the tree it had built when it failed: 80 bytes an element
		// and 8 for its place in a child list.
		{"fails late", "<r>" + strings.Repeat("<a/>", parsed) + strings.Repeat("<", 1<<20), 2 * parsed * (80 + 8)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := xmlmodel.Parse(c.input); err == nil {
				t.Fatal("parsed")
			}
			if got := allocatedBytes(1, func() { _, _, _ = xmlmodel.Parse(c.input) }); got > c.ceiling {
				t.Errorf("the failing parse allocates %d bytes, want ≤ %d", got, c.ceiling)
			}
		})
	}
}
