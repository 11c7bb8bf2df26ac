package mix_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	mix "repro"
	"repro/internal/engine"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// Native fuzz targets for every textual front end. Under plain `go test`
// these run their seed corpora; `go test -fuzz=FuzzParseDocument ./` etc.
// explores further. The invariants: parsers never panic, and anything that
// parses must re-parse from its own rendering.

// parseDocumentSeeds is FuzzParseDocument's committed corpus; the parser
// differential (parse_ref_test.go) runs over it too.
var parseDocumentSeeds = []string{
	`<a/>`,
	`<a id="1"><b>text</b></a>`,
	`<?xml version="1.0"?><!DOCTYPE a [ <!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)> ]><a><b>x</b></a>`,
	`<a>&lt;&amp;&gt;&#65;</a>`,
	`<a><b/><b></b></a>`,
	`<!-- c --><a/>`,
	`<a`, `<a></b>`, `<a>mixed<b/></a>`, ``,
	d1Bench + "\n<department></department>",
}

func FuzzParseDocument(f *testing.F) {
	for _, s := range parseDocumentSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkParseAgainstReference(t, input)
		doc, d, err := mix.ParseDocument(input)
		if err != nil {
			return
		}
		// Round trip: rendering must re-parse to an equal document.
		out := mix.MarshalDocument(doc, d, 2)
		doc2, _, err := mix.ParseDocument(out)
		if err != nil {
			t.Fatalf("re-parse failed: %v\noriginal: %q\nrendered: %q", err, input, out)
		}
		if !doc2.Root.Equal(doc.Root) {
			// Empty PCDATA collapses to empty element content in XML; that
			// single lossy case is documented (see xmlmodel tests).
			if !strings.Contains(out, "></") {
				t.Fatalf("round trip changed document\noriginal: %q\nrendered: %q", input, out)
			}
		}
	})
}

func FuzzParseDTD(f *testing.F) {
	seeds := []string{
		d1Bench,
		`<!DOCTYPE r [ <!ELEMENT r EMPTY> ]>`,
		`<!DOCTYPE r [ <!ELEMENT r ANY> <!ELEMENT s (#PCDATA)> ]>`,
		`<!DOCTYPE r>`,
		`<!DOCTYPE r [ <!ATTLIST r id ID #REQUIRED> <!ELEMENT r (#PCDATA)> ]>`,
		`<!DOCTYPE r [ <!ELEMENT r (a,,b)> ]>`,
		`<!DOCTYPE r [`,
		``,
		// A '>' or "]>" that ends nothing: inside a skipped declaration's
		// literal, a comment, an external identifier.
		`<!DOCTYPE r [ <!ATTLIST r x CDATA "p>q"> <!ELEMENT r (#PCDATA)> ]>`,
		`<!DOCTYPE r [ <!ENTITY e 'x>y'> <!ELEMENT r (s*)> <!ELEMENT s EMPTY> ]>`,
		`<!DOCTYPE r [ <!-- ]> --> <!ELEMENT r (#PCDATA)> ]>`,
		`<!DOCTYPE r SYSTEM "a[1]>.dtd" [ <!ELEMENT r (#PCDATA)> ] >`,
		`<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]> trailing`,
		`<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> ]`,
		// Repeated models: a declaration spelled like an earlier one shares
		// its model, whitespace that differs does not.
		`<!DOCTYPE r [ <!ELEMENT r (a, b)*> <!ELEMENT a (a | b)*> <!ELEMENT b (a | b)*> <!ELEMENT c (a|b)*> ]>`,
		`<!DOCTYPE r [ <!ELEMENT r (s, (t, u))> <!ELEMENT s (s, (t, u))> <!ELEMENT t ANY> <!ELEMENT u ANY> ]>`,
		`<!DOCTYPE r [ <!-- <!ELEMENT r (x)> --> <!ELEMENT r (r | r)?> <!ELEMENT s (r | r)?> <!ELEMENT t (r | r)? > ]>`,
		`<!DOCTYPE r [ <!ELEMENT r (r,)> <!ELEMENT s (r,)> ]>`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := mix.ParseDTD(input)
		if err != nil {
			return
		}
		checkModelsParseAlone(t, input, d)
		// Every content model reads the same to the reference parser and
		// renders the same through the reference renderer.
		for _, n := range d.Names() {
			if ty := d.Types[n]; !ty.PCDATA {
				checkModelAgainstReference(t, ty.Model.String())
			}
		}
		back, err := mix.ParseDTD(d.String())
		if err != nil {
			t.Fatalf("re-parse failed: %v\nrendered:\n%s", err, d)
		}
		if back.Root != d.Root || len(back.Types) != len(d.Types) || back.String() != d.String() {
			t.Fatalf("round trip changed the DTD\noriginal: %q", input)
		}
	})
}

// elementDecl matches an element declaration. On a text that parses, every
// declaration matches; so may text inside a comment or a literal, which is
// why checkModelsParseAlone skips a name matched twice.
var elementDecl = regexp.MustCompile(`<!ELEMENT[ \t\r\n]+([^ \t\r\n>]+)[ \t\r\n]+([^>]*)>`)

// checkModelsParseAlone: every type d, parsed from input, declares is what
// its own spec text reads alone, whether or not the parse shared the model
// with an earlier declaration spelled the same.
func checkModelsParseAlone(t *testing.T, input string, d *mix.DTD) {
	t.Helper()
	specs := map[string][]string{}
	for _, m := range elementDecl.FindAllStringSubmatch(input, -1) {
		specs[m[1]] = append(specs[m[1]], strings.TrimSpace(m[2]))
	}
	var names []regex.Expr
	for _, n := range d.Declared() {
		names = append(names, regex.Nm(n))
	}
	for _, n := range d.Declared() {
		if len(specs[n]) != 1 {
			continue // a declaration in a comment or a literal as well
		}
		spec, got := specs[n][0], d.Types[n]
		var want regex.Expr
		switch {
		case strings.HasPrefix(spec, "(") && strings.Contains(spec, "#PCDATA"):
			if !got.PCDATA {
				t.Fatalf("%s: declared %q, parsed %s", n, spec, got)
			}
			continue
		case spec == "EMPTY":
			want = regex.Eps()
		case spec == "ANY":
			want = regex.Rep(regex.Or(names...))
		default:
			var err error
			if want, err = regex.Parse(spec); err != nil {
				t.Fatalf("%s: the DTD parsed, its spec %q alone does not: %v", n, spec, err)
			}
		}
		if got.PCDATA || !regex.Equal(got.Model, want) {
			t.Fatalf("%s: declared %q, parsed %s, alone %s", n, spec, got, want)
		}
	}
}

func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		q2Bench,
		`SELECT X WHERE X:<a/>`,
		`v = SELECT X WHERE <a> X:<b|c id=I> text </> </a> AND I != J`,
		`select x where x:<a/>`,
		`SELECT X WHERE <s*> X:<p/> </>`,
		`SELECT`, `WHERE`, ``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := mix.ParseQuery(input)
		if err != nil {
			return
		}
		// A query that parses was validated, and a valid query prepares:
		// ParsePlan's Prepare (plan.go analyse, with no view) never fails on
		// a text.
		if _, err := engine.Prepare(q); err != nil {
			t.Fatalf("parsed but does not prepare: %v\ninput: %q", err, input)
		}
		back, err := mix.ParseQuery(q.String())
		if err != nil {
			t.Fatalf("re-parse failed: %v\nrendered:\n%s", err, q)
		}
		if back.String() != q.String() {
			t.Fatalf("printer not a fixed point\noriginal: %q\nfirst: %s\nsecond: %s", input, q, back)
		}
	})
}

func FuzzParseContentModel(f *testing.F) {
	seeds := []string{
		"a, b+, (c|d)*", "a^1, a^2?", "EMPTY", "FAIL", "((a))", "a|", "", "a,,b",
		// Regression shapes for the compiled-automata cache: deep nesting
		// (canonical keys must frame correctly at depth), duplicate names
		// (Glushkov positions must stay distinct), FAIL buried in operators
		// (empty alternations must simplify without changing the language),
		// and stars over nullable bodies (minimization edge cases).
		"((((((a))))))*",
		"(((a|b)|(a|b))|((a|b)|(a|b)))+",
		"a, a, a?, a*, a+",
		"(a|a|a)*",
		"(FAIL|a), (b|FAIL)?",
		"(FAIL)*",
		"(a?, b?)*",
		"((a*)*)*",
		"a^1, a^2, (a^1|a^2)*",
		"((a, b)|(a, c))*, a?",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Parser and renderer differentials, and the print→parse fixed point.
		checkModelAgainstReference(t, input)
	})
}

// FuzzMarshalRoundTrip aims arbitrary IDs and text at the serializer's
// escaper: the streamed and the built serializations agree byte for byte,
// and the output parses back to the document that went in — up to the
// parser trimming text, and reading blank text as empty content.
func FuzzMarshalRoundTrip(f *testing.F) {
	f.Add("p1", "CS <&> lab", 2)
	f.Add(`a"b'c`, `"quoted" & 'single'`, -1)
	f.Add("&amp;", "&lt;not an entity&gt;", 0)
	f.Add("", "", 1)
	f.Add("<>", "]]> \u2615 \xff", 7)
	f.Fuzz(func(t *testing.T, id, text string, indent int) {
		indent = max(-1, min(indent, 8))
		leaf := &mix.Element{Name: "leaf", ID: id, IsText: true, Text: text}
		doc := &mix.Document{DocType: "r", Root: &mix.Element{Name: "r", ID: id, Children: []*mix.Element{
			leaf, {Name: "empty"}, {Name: "nest", Children: []*mix.Element{leaf, leaf}},
		}}}
		out := xmlmodel.Marshal(doc, indent)
		var streamed bytes.Buffer
		if err := xmlmodel.WriteElement(&streamed, doc.Root, indent); err != nil {
			t.Fatal(err)
		}
		if built := xmlmodel.MarshalElement(doc.Root, indent); streamed.String() != built || !strings.HasSuffix(out, built) {
			t.Fatalf("WriteElement, MarshalElement and Marshal disagree:\n%q\n%q\n%q", streamed.String(), built, out)
		}
		back, _, err := mix.ParseDocument(out)
		if err != nil {
			t.Fatalf("re-parse failed: %v\nrendered: %q", err, out)
		}
		leaf.Text = strings.TrimSpace(text)
		leaf.IsText = leaf.Text != ""
		if !back.Root.Equal(doc.Root) || back.DocType != doc.DocType {
			t.Fatalf("round trip changed the document\nid %q text %q\nrendered: %q", id, text, out)
		}
	})
}
