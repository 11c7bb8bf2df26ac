package dtd

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

func TestValidateStreamAcceptsValidDoc(t *testing.T) {
	d := parseD1(t)
	if err := d.ValidateStream(validDoc); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

func TestValidateStreamViolations(t *testing.T) {
	d := parseD1(t)
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"wrong root", `<professor><firstName>x</firstName></professor>`, "document type requires"},
		{"missing gradStudent", `<department><name>CS</name><professor><firstName>x</firstName><lastName>y</lastName><publication><title>t</title><author>a</author><journal>j</journal></publication><teaches>z</teaches></professor></department>`, "do not match content model"},
		{"undeclared element", `<department><name>CS</name><dean>who</dean></department>`, "not declared"},
		{"pcdata has children", `<department><name><course>c</course></name></department>`, "has element content"},
		{"undeclared under pcdata", `<department><name><x/></name></department>`, "not declared"},
		{"element content has text", `<department>just text</department>`, "has character content"},
		{"empty pcdata element", `<department><name></name></department>`, "(#PCDATA)"},
		{"malformed", `<department><name>CS</name>`, "unterminated"},
	}
	for _, c := range cases {
		err := d.ValidateStream(c.doc)
		if err == nil {
			t.Errorf("%s: ValidateStream should fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateStreamAgreesWithTree pins the stream to the tree pipeline
// (Parse + Validate) on the shapes where the two take different code: early
// DFA rejection vs dead-state transit, wrong-root, whitespace handling,
// malformed input. On a text Parse accepts, both return the same error, or
// both nil; on one it rejects, the stream rejects it too. The exhaustive version of this
// check is the corpus property test in stream_property_test.go.
func TestValidateStreamAgreesWithTree(t *testing.T) {
	d := parseD1(t)
	docs := []string{
		validDoc,
		`<department><name>CS</name></department>`,
		`<department><course>c1</course><name>CS</name></department>`, // order violation
		`<wrong/>`,
		`<department>
			<name> spaced </name>
		</department>`,
		`<department><name>&#67;&#83;</name></department>`, // entity text
		strings.ReplaceAll(validDoc, "</department>", ""),  // truncated
	}
	for _, src := range append(docs, deepBeforeParent) {
		streamErr := d.ValidateStream(src)
		doc, _, perr := xmlmodel.Parse(src)
		if perr != nil {
			if streamErr == nil {
				t.Errorf("the stream accepts what Parse rejects (%v): %.60q", perr, src)
			}
			continue
		}
		if treeErr := d.Validate(doc); !reflect.DeepEqual(treeErr, streamErr) {
			t.Errorf("disagreement on %.60q: tree=%v stream=%v", src, treeErr, streamErr)
		}
	}
}

// deepBeforeParent has a violation deep in its first professor (an
// undeclared element under a journal) and, after it, a department missing
// its gradStudents: the first violation in document order is the deep one,
// though the department's content-model failure is nearer the root.
const deepBeforeParent = `<department><name>CS</name><professor><firstName>x</firstName><lastName>y</lastName>` +
	`<publication><title>t</title><author>a</author><journal><deep/></journal></publication><teaches>z</teaches></professor></department>`

func TestValidateReportsTheFirstViolationInDocumentOrder(t *testing.T) {
	d := parseD1(t)
	doc, _, err := xmlmodel.Parse(deepBeforeParent)
	if err != nil {
		t.Fatal(err)
	}
	want := &ValidationError{Path: "/department/professor[1]/publication[2]/journal[2]/deep[0]", Msg: "element name deep is not declared"}
	for _, got := range []error{d.Validate(doc), d.ValidateStream(deepBeforeParent)} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestStreamValidationStatsAdvance(t *testing.T) {
	d := parseD1(t)
	before := StreamValidationStats()
	if err := d.ValidateStream(validDoc); err != nil {
		t.Fatal(err)
	}
	after := StreamValidationStats()
	if after.Documents != before.Documents+1 {
		t.Errorf("Documents %d -> %d, want +1", before.Documents, after.Documents)
	}
	if after.Bytes != before.Bytes+int64(len(validDoc)) {
		t.Errorf("Bytes advanced by %d, want %d", after.Bytes-before.Bytes, len(validDoc))
	}
	if after.Events <= before.Events {
		t.Errorf("Events did not advance: %d -> %d", before.Events, after.Events)
	}
}

// What a name resolves to is remembered on the DTD, not per document: the
// first validation builds one row per declared name, later ones publish
// nothing, only the names documents have used compile their DFA (a
// declared-but-unused model is never compiled), an undeclared name has no
// row, and Declare makes the DTD forget.
func TestStreamTypesAreTheDTDs(t *testing.T) {
	d := parseD1(t)
	d.Declare("office", M(regex.Nm("name"))) // declared, used by no document below
	if d.streamTypes.Load() != nil {
		t.Fatal("a DTD that validated nothing resolved something")
	}
	if err := d.ValidateStream(validDoc); err != nil {
		t.Fatal(err)
	}
	known := d.streamTypes.Load()
	if known == nil || len(*known) != len(d.Types) {
		t.Fatalf("the plan table is not one row per declared name: %v", known)
	}
	if (*known)["professor"].dfa.Load() == nil {
		t.Error("a name the document used compiled no DFA")
	}
	if (*known)["office"].dfa.Load() != nil {
		t.Error("a declared-but-unused content model was compiled")
	}
	if err := d.ValidateStream(validDoc); err != nil || d.streamTypes.Load() != known {
		t.Errorf("the same document again: err %v, table republished: %v", err, d.streamTypes.Load() != known)
	}
	if err := d.ValidateStream(`<department><name>CS</name><dean>who</dean></department>`); err == nil {
		t.Error("an undeclared element passed")
	}
	if _, remembered := (*d.streamTypes.Load())["dean"]; remembered {
		t.Error("an undeclared name was remembered")
	}

	// A name met first in a document, or in a tree, finds its row in the
	// same table: a key that were a slice of the input would keep the whole
	// input alive (an HTTPSource body, up to 16 MiB) as long as the DTD.
	input := strings.Replace(validDoc, "</department>", "<course>c</course></department>", 1)
	if err := d.ValidateStream(input); err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(doc); err != nil || d.streamTypes.Load() != known {
		t.Errorf("a tree: err %v, table republished: %v", err, d.streamTypes.Load() != known)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(input)))
	for name := range *known {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); lo <= p && p < lo+uintptr(len(input)) {
			t.Errorf("the table key %q lies inside the input it was met in", name)
		}
	}

	// Redeclared, a name validates under its new type.
	d.Declare("name", M(regex.Nm("course")))
	if err := d.ValidateStream(validDoc); err == nil || !strings.Contains(err.Error(), "has character content") {
		t.Errorf("after Declare the old plan still validates: %v", err)
	}
}

// Meaningful under -race: validators of one DTD value publish into its memo
// concurrently and lose nothing.
func TestStreamTypesConcurrently(t *testing.T) {
	d := parseD1(t)
	docs := []string{validDoc, `<department><name>CS</name></department>`, `<course>c</course>`}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				err := d.ValidateStream(docs[(g+i)%len(docs)])
				if ((g+i)%len(docs) == 0) != (err == nil) {
					t.Errorf("document %d: %v", (g+i)%len(docs), err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := d.ValidateStream(validDoc); err != nil {
		t.Error(err)
	}
}
