package dtd

import (
	"strings"
	"sync"
	"testing"

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

// TestValidateStreamAgreesWithTree pins accept/reject parity with the
// tree pipeline (Parse + Validate) on the shapes where the two paths take
// different code: early DFA rejection vs dead-state transit, wrong-root,
// whitespace handling, malformed input. The exhaustive version of this
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
	for _, src := range docs {
		var treeErr error
		doc, _, perr := xmlmodel.Parse(src)
		if perr != nil {
			treeErr = perr
		} else {
			treeErr = d.Validate(doc)
		}
		streamErr := d.ValidateStream(src)
		if (treeErr == nil) != (streamErr == nil) {
			t.Errorf("disagreement on %.60q: tree=%v stream=%v", src, treeErr, streamErr)
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

// What a name resolves to is remembered on the DTD, not per document: only
// the names documents have used are resolved (a declared-but-unused model is
// never compiled), an undeclared name is not remembered, and Declare makes
// the DTD forget.
func TestStreamTypesAreTheDTDs(t *testing.T) {
	d := parseD1(t)
	if d.streamTypes.Load() != nil {
		t.Fatal("a DTD that validated nothing resolved something")
	}
	if err := d.ValidateStream(validDoc); err != nil {
		t.Fatal(err)
	}
	known := d.streamTypes.Load()
	if known == nil || len(*known) == 0 {
		t.Fatal("nothing was remembered")
	}
	if _, resolved := (*known)["course"]; resolved || len(*known) >= len(d.Types) {
		t.Errorf("%d of %d names resolved, course among them: %v — the document uses no course", len(*known), len(d.Types), resolved)
	}
	if err := d.ValidateStream(validDoc); err != nil || d.streamTypes.Load() != known {
		t.Errorf("the same document again: err %v, memo republished: %v", err, d.streamTypes.Load() != known)
	}
	if err := d.ValidateStream(`<department><name>CS</name><dean>who</dean></department>`); err == nil {
		t.Error("an undeclared element passed")
	}
	if _, remembered := (*d.streamTypes.Load())["dean"]; remembered {
		t.Error("an undeclared name was remembered")
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
