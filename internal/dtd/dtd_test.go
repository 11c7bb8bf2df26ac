package dtd

import (
	"strings"
	"testing"

	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// D1 is the paper's department DTD from Example 3.1.
const D1 = `<!DOCTYPE department [
  <!ELEMENT department (name, professor+, gradStudent+, course*)>
  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
  <!ELEMENT gradStudent (firstName, lastName, publication+)>
  <!ELEMENT publication (title, author+, (journal|conference))>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT firstName (#PCDATA)>
  <!ELEMENT lastName (#PCDATA)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT journal (#PCDATA)>
  <!ELEMENT conference (#PCDATA)>
  <!ELEMENT course (#PCDATA)>
  <!ELEMENT teaches (#PCDATA)>
]>`

func parseD1(t *testing.T) *DTD {
	t.Helper()
	d, err := Parse(D1)
	if err != nil {
		t.Fatalf("Parse(D1): %v", err)
	}
	return d
}

func TestParseD1(t *testing.T) {
	d := parseD1(t)
	if d.Root != "department" {
		t.Errorf("Root = %q", d.Root)
	}
	if got := d.Types["department"].Model.String(); got != "name, professor+, gradStudent+, course*" {
		t.Errorf("department model = %q", got)
	}
	if got := d.Types["publication"].Model.String(); got != "title, author+, (journal | conference)" {
		t.Errorf("publication model = %q", got)
	}
	if !d.Types["name"].PCDATA {
		t.Error("name must be PCDATA")
	}
	if errs := d.Check(); len(errs) != 0 {
		t.Errorf("Check: %v", errs)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	d := parseD1(t)
	back, err := Parse(d.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, d.String())
	}
	if back.Root != d.Root || len(back.Types) != len(d.Types) {
		t.Fatalf("round trip changed the DTD")
	}
	for _, n := range d.Names() {
		if back.Types[n].String() != d.Types[n].String() {
			t.Errorf("type of %s changed: %s vs %s", n, d.Types[n], back.Types[n])
		}
	}
}

func TestParseVariants(t *testing.T) {
	d, err := Parse(`<!DOCTYPE r [
	  <!-- a comment -->
	  <!ELEMENT r (a*, b?)>
	  <!ELEMENT a EMPTY>
	  <!ELEMENT b ANY>
	  <!ATTLIST r id ID #IMPLIED>
	]>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := d.Types["a"].Model.String(); got != "EMPTY" {
		t.Errorf("EMPTY spec parsed as %q", got)
	}
	// ANY expands over all declared names (Remark 1).
	if got := d.Types["b"].Model.String(); got != "(r | a | b)*" {
		t.Errorf("ANY expansion = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		`<!ELEMENT a (b)>`,                                   // no DOCTYPE
		`<!DOCTYPE r [ <!ELEMENT a (#PCDATA|b)*> ]>`,         // mixed content
		`<!DOCTYPE r [ <!ELEMENT a (b)> <!ELEMENT a (c)> ]>`, // duplicate
		`<!DOCTYPE r [ <!ELEMENT a (b,,c)> ]>`,               // bad model
		`<!DOCTYPE r [ <!ELEMENT a (b^1)> ]>`,                // tags are s-DTD only
		`<!DOCTYPE r [ <!WEIRD thing> ]>`,                    // unknown decl
		`<!DOCTYPE r [ <!ELEMENT a (b) ]>`,                   // unterminated
		`<!DOCTYPE [ <!ELEMENT a (b)> ]>`,                    // missing root
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestCheckFindsProblems(t *testing.T) {
	d := New("r")
	d.Declare("r", M(regex.MustParse("a, b")))
	d.Declare("a", PC())
	errs := d.Check()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "undeclared name b") {
		t.Errorf("Check = %v", errs)
	}
	d2 := New("missing")
	if errs := d2.Check(); len(errs) != 1 {
		t.Errorf("Check = %v", errs)
	}
}

const validDoc = `<department>
  <name>CS</name>
  <professor>
    <firstName>Yannis</firstName><lastName>P</lastName>
    <publication><title>T1</title><author>A</author><journal>VLDBJ</journal></publication>
    <teaches>cse132</teaches>
  </professor>
  <gradStudent>
    <firstName>Pavel</firstName><lastName>V</lastName>
    <publication><title>T2</title><author>B</author><conference>ICDE</conference></publication>
  </gradStudent>
</department>`

func TestValidate(t *testing.T) {
	d := parseD1(t)
	doc, _, err := xmlmodel.Parse(validDoc)
	if err != nil {
		t.Fatalf("parse doc: %v", err)
	}
	if err := d.Validate(doc); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

func TestValidateViolations(t *testing.T) {
	d := parseD1(t)
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"wrong root", `<professor><firstName>x</firstName><lastName>y</lastName><publication><title>t</title><author>a</author><journal>j</journal></publication><teaches>z</teaches></professor>`, "document type requires"},
		{"missing gradStudent", `<department><name>CS</name><professor><firstName>x</firstName><lastName>y</lastName><publication><title>t</title><author>a</author><journal>j</journal></publication><teaches>z</teaches></professor></department>`, "do not match content model"},
		{"undeclared element", `<department><name>CS</name><dean>who</dean></department>`, "element name dean is not declared"},
		{"pcdata has children", `<department><name><x/></name></department>`, "element name x is not declared"},
		{"element content has text", `<department>just text</department>`, "has character content"},
	}
	for _, c := range cases {
		doc, _, err := xmlmodel.Parse(c.doc)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		err = d.Validate(doc)
		if err == nil {
			t.Errorf("%s: validation should fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidatePCDATAMismatchInsideTree(t *testing.T) {
	d := parseD1(t)
	// name declared PCDATA but given element content deeper in the tree:
	doc, _, err := xmlmodel.Parse(`<department><name>CS</name><professor><firstName>x</firstName><lastName>y</lastName><publication><title>t</title><author>a</author><journal><deep/></journal></publication><teaches>z</teaches></professor><gradStudent><firstName>p</firstName><lastName>v</lastName><publication><title>t</title><author>a</author><journal>j</journal></publication></gradStudent></department>`)
	if err != nil {
		t.Fatal(err)
	}
	verr := d.Validate(doc)
	if verr == nil || !strings.Contains(verr.Error(), "journal") {
		t.Errorf("want journal PCDATA violation, got %v", verr)
	}
}

func TestReachable(t *testing.T) {
	d := parseD1(t)
	r := d.Reachable()
	for _, n := range []string{"department", "professor", "publication", "journal"} {
		if !r[n] {
			t.Errorf("%s should be reachable", n)
		}
	}
	d.Declare("orphan", PC())
	if d.Reachable()["orphan"] {
		t.Error("orphan must not be reachable")
	}
}

func TestRealizable(t *testing.T) {
	d := New("r")
	d.Declare("r", M(regex.MustParse("a | loop")))
	d.Declare("a", PC())
	d.Declare("loop", M(regex.MustParse("loop")))    // no finite instance
	d.Declare("maybe", M(regex.MustParse("maybe?"))) // realizable via empty
	real := d.Realizable()
	if !real["r"] || !real["a"] || !real["maybe"] {
		t.Errorf("realizable = %v", real)
	}
	if real["loop"] {
		t.Error("loop is not realizable")
	}
}

func TestRealizableMutualRecursion(t *testing.T) {
	d := New("r")
	d.Declare("r", M(regex.MustParse("x")))
	d.Declare("x", M(regex.MustParse("y")))
	d.Declare("y", M(regex.MustParse("x")))
	real := d.Realizable()
	if real["x"] || real["y"] || real["r"] {
		t.Errorf("mutually recursive names must be unrealizable, got %v", real)
	}
}

func TestParseDocumentWithSubset(t *testing.T) {
	doc, d, err := ParseDocument(D1 + "\n" + validDoc)
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	if d == nil || d.Root != "department" {
		t.Fatalf("DTD not extracted")
	}
	if err := d.Validate(doc); err != nil {
		t.Errorf("Validate: %v", err)
	}
	s := MarshalDocument(doc, d, 2)
	doc2, d2, err := ParseDocument(s)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, s)
	}
	if d2 == nil || !doc2.Root.Equal(doc.Root) {
		t.Error("MarshalDocument round trip mismatch")
	}
}

func TestDocTypeWithoutSubset(t *testing.T) {
	d, err := Parse(`<!DOCTYPE html>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Root != "html" || len(d.Types) != 0 {
		t.Errorf("got %v", d)
	}
}

func TestDeclareAndNamesOrder(t *testing.T) {
	d := New("r")
	d.Declare("r", M(regex.Eps()))
	d.Declare("b", PC())
	d.Declare("a", PC())
	got := d.Names()
	if len(got) != 3 || got[0] != "r" || got[1] != "b" || got[2] != "a" {
		t.Errorf("Names = %v, want declaration order", got)
	}
	// Re-declaration keeps position.
	d.Declare("b", M(regex.Eps()))
	if got := d.Names(); got[1] != "b" {
		t.Errorf("Names after redeclare = %v", got)
	}
}

func TestValidateCacheInvalidation(t *testing.T) {
	d := New("r")
	d.Declare("r", M(regex.MustParse("a")))
	d.Declare("a", PC())
	doc := &xmlmodel.Document{Root: xmlmodel.NewElement("r", xmlmodel.NewText("a", "x"))}
	if err := d.Validate(doc); err != nil {
		t.Fatalf("initial validate: %v", err)
	}
	d.Declare("r", M(regex.MustParse("a, a"))) // must invalidate DFA cache
	if err := d.Validate(doc); err == nil {
		t.Error("validation must see the new content model")
	}
}

// A '>' inside a quoted literal of a declaration the parser skips does not
// end the declaration.
func TestParseSkipsQuotedLiterals(t *testing.T) {
	for _, skipped := range []string{
		`<!ATTLIST a x CDATA "p>q">`,
		`<!ENTITY e "x>y">`,
		`<!ENTITY e 'it"s > that'>`,
		`<!ATTLIST a x CDATA "]>">`,
	} {
		d, err := Parse(`<!DOCTYPE a [ <!ELEMENT a (b*)> ` + skipped + ` <!ELEMENT b (#PCDATA)> ]>`)
		if err != nil {
			t.Errorf("with %s: %v", skipped, err)
			continue
		}
		if got := strings.Join(d.Names(), " "); got != "a b" {
			t.Errorf("with %s: declared %q, want a and b", skipped, got)
		}
	}
	if _, err := Parse(`<!DOCTYPE a [ <!ATTLIST a x CDATA "p>q> <!ELEMENT a (#PCDATA)> ]>`); err == nil {
		t.Error("an unterminated literal should fail the parse")
	}
}

// The DOCTYPE ends at the "]>" its markup closes with, and nowhere else: not
// at one inside a comment, a processing instruction or a literal, and not at
// a ']' that no '>' follows. Parse takes nothing after it; ParsePrefix hands
// it back.
func TestDoctypeEnd(t *testing.T) {
	const decl = `<!ELEMENT r (#PCDATA)>`
	for _, c := range []struct{ text, rest string }{
		{`<!DOCTYPE r [ ` + decl + ` ]>`, ``},
		{`<!DOCTYPE r [ ` + decl + ` ]>` + "\n\t ", "\n\t "},
		{`<!DOCTYPE r [ <!-- ]> --> ` + decl + ` ]> v = SELECT X`, ` v = SELECT X`},
		{`<!DOCTYPE r [ <?pi ]> ?> ` + decl + ` ] > rest ]>`, ` rest ]>`},
		{`<!DOCTYPE r SYSTEM "a[1]>.dtd" [ ` + decl + ` ]>rest`, `rest`},
		{`<!DOCTYPE r PUBLIC '>' "[">rest`, `rest`},
		{`  <!DOCTYPE r>`, ``},
	} {
		d, rest, err := ParsePrefix(c.text)
		if err != nil || d.Root != "r" || rest != c.rest {
			t.Errorf("ParsePrefix(%q) = %v, %q, %v; want rest %q", c.text, d, rest, err, c.rest)
		}
		if _, err := Parse(c.text); (err == nil) != (strings.TrimSpace(c.rest) == "") {
			t.Errorf("Parse(%q): %v, with %q after the declaration", c.text, err, c.rest)
		}
	}
	for _, bad := range []string{
		`<!DOCTYPE r [ ` + decl + ` ]`,                  // no '>'
		`<!DOCTYPE r [ ` + decl + ` ] junk>`,            // something between ']' and '>'
		`<!DOCTYPE r [ ` + decl + ` ]> trailing junk`,   // Parse only: text after the end
		`<!DOCTYPE r [ ` + decl + ` <!-- ]> `,           // the only "]>" is in an open comment
		`<!DOCTYPE r`,                                   // no '>' and no subset
		`<!DOCTYPE r SYSTEM "x.dtd>`,                    // open literal
		`<!DOCTYPE r [ ` + decl + ` ]> <!DOCTYPE s []>`, // two declarations
	} {
		if d, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", bad, d)
		}
	}
}
