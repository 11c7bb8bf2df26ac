// Corpus-scale properties of the streaming validator, in an external test
// package because they draw documents from internal/gen (which imports
// dtd). The property under test is the contract ValidateStream documents:
// it accepts exactly the documents the tree pipeline (Parse + Validate)
// accepts — over generated valid corpora, over seeded byte-level
// mutations of them, and over documents an order of magnitude larger than
// anything the unit tests touch — with an allocation count independent of
// document size. ParseValid, the same scan with the tree built along the
// way, is held on the same inputs to the two passes it fuses.
package dtd_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmlmodel"
)

// propertyDTDs exercises the content-model shapes that stress the DFA
// walk differently: sequencing with choice (the paper's D1), recursion
// (deep stacks), and mutual recursion with optionality.
var propertyDTDs = []struct {
	name string
	text string
}{
	{"department", `<!DOCTYPE department [
	  <!ELEMENT department (name, professor+, gradStudent+, course*)>
	  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
	  <!ELEMENT gradStudent (firstName, lastName, publication+)>
	  <!ELEMENT publication (title, author+, (journal|conference))>
	  <!ELEMENT name (#PCDATA)> <!ELEMENT firstName (#PCDATA)>
	  <!ELEMENT lastName (#PCDATA)> <!ELEMENT title (#PCDATA)>
	  <!ELEMENT author (#PCDATA)> <!ELEMENT journal (#PCDATA)>
	  <!ELEMENT conference (#PCDATA)> <!ELEMENT course (#PCDATA)>
	  <!ELEMENT teaches (#PCDATA)>
	]>`},
	{"recursive", `<!DOCTYPE section [
	  <!ELEMENT section (prolog, section*, conclusion)>
	  <!ELEMENT prolog (#PCDATA)> <!ELEMENT conclusion (#PCDATA)>
	]>`},
	{"mutual", `<!DOCTYPE a [
	  <!ELEMENT a (b | leaf)>
	  <!ELEMENT b (a, a?)>
	  <!ELEMENT leaf (#PCDATA)>
	]>`},
}

// treeVerdict runs the tree pipeline on a document text.
func treeVerdict(d *dtd.DTD, src string) error {
	doc, _, err := xmlmodel.Parse(src)
	if err != nil {
		return err
	}
	return d.Validate(doc)
}

// checkFused holds ParseValid to the two passes it fuses, on one input: it
// fails exactly when ValidateStream fails, with an equal error and no tree,
// and otherwise returns the tree and the DOCTYPE Parse returns.
func checkFused(t *testing.T, d *dtd.DTD, src string) {
	t.Helper()
	serr := d.ValidateStream(src)
	doc, dt, ferr := d.ParseValid(src)
	if !reflect.DeepEqual(ferr, serr) {
		t.Errorf("ParseValid fails with %#v, ValidateStream with %#v, on %.80q", ferr, serr, src)
	}
	if ferr != nil {
		if doc != nil || dt != nil {
			t.Errorf("ParseValid failed and returned a document, on %.80q", src)
		}
		return
	}
	pdoc, pdt, perr := xmlmodel.Parse(src)
	if perr != nil {
		t.Fatalf("ParseValid accepts what Parse rejects (%v): %.80q", perr, src)
	}
	if !doc.Root.Equal(pdoc.Root) || doc.DocType != pdoc.DocType || !reflect.DeepEqual(dt, pdt) {
		t.Errorf("ParseValid's document differs from Parse's on %.80q\n got %s %+v\nwant %s %+v",
			src, xmlmodel.Marshal(doc, -1), dt, xmlmodel.Marshal(pdoc, -1), pdt)
	}
}

// TestStreamTreeAgreementOnCorpora checks the positive half of the
// property: every generated-valid document is stream-accepted.
func TestStreamTreeAgreementOnCorpora(t *testing.T) {
	for _, pd := range propertyDTDs {
		d, err := dtd.Parse(pd.text)
		if err != nil {
			t.Fatalf("%s: %v", pd.name, err)
		}
		g, err := gen.New(d, gen.Options{Seed: 11, MaxDepth: 8})
		if err != nil {
			t.Fatalf("%s: %v", pd.name, err)
		}
		for i, doc := range g.Corpus(150) {
			src := xmlmodel.MarshalElement(doc.Root, 1)
			if terr := treeVerdict(d, src); terr != nil {
				t.Fatalf("%s doc %d: tree pipeline rejected a generated document: %v", pd.name, i, terr)
			}
			if serr := d.ValidateStream(src); serr != nil {
				t.Errorf("%s doc %d: stream rejected what tree accepts: %v", pd.name, i, serr)
			}
			checkFused(t, d, src)
			checkFused(t, d, pd.text+"\n"+src)
		}
	}
}

// TestStreamTreeAgreementUnderMutation checks the whole accept/reject
// frontier: seeded byte substitutions, deletions and truncations of valid
// documents produce a mix of still-valid, invalid and malformed texts,
// and on every one the two pipelines must agree on the verdict (not the
// message — the scan reports the first violation in document order, the
// tree walk the first in preorder).
func TestStreamTreeAgreementUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := "abcdefghij<>/& ;#x01"
	for _, pd := range propertyDTDs {
		d, err := dtd.Parse(pd.text)
		if err != nil {
			t.Fatalf("%s: %v", pd.name, err)
		}
		g, err := gen.New(d, gen.Options{Seed: 29, MaxDepth: 7})
		if err != nil {
			t.Fatalf("%s: %v", pd.name, err)
		}
		disagreements := 0
		for _, doc := range g.Corpus(40) {
			src := xmlmodel.MarshalElement(doc.Root, 0)
			for m := 0; m < 25; m++ {
				mut := mutate(rng, src, alphabet)
				checkFused(t, d, mut)
				terr := treeVerdict(d, mut)
				serr := d.ValidateStream(mut)
				if (terr == nil) != (serr == nil) {
					disagreements++
					if disagreements <= 5 {
						t.Errorf("%s: disagreement on %.80q...: tree=%v stream=%v", pd.name, mut, terr, serr)
					}
				}
			}
		}
		if disagreements > 5 {
			t.Errorf("%s: %d disagreements total", pd.name, disagreements)
		}
	}
}

// mutate applies one random byte-level edit: substitution, deletion,
// insertion or truncation.
func mutate(rng *rand.Rand, src, alphabet string) string {
	if len(src) == 0 {
		return src
	}
	pos := rng.Intn(len(src))
	switch rng.Intn(4) {
	case 0: // substitute
		return src[:pos] + string(alphabet[rng.Intn(len(alphabet))]) + src[pos+1:]
	case 1: // delete
		return src[:pos] + src[pos+1:]
	case 2: // insert
		return src[:pos] + string(alphabet[rng.Intn(len(alphabet))]) + src[pos:]
	default: // truncate
		return src[:pos]
	}
}

// largeDoc builds a department document with n professor/gradStudent
// pairs — hundreds of kilobytes at n=2000, an order of magnitude beyond
// any unit-test fixture — valid under the paper's D1.
func largeDoc(n int) string {
	var b strings.Builder
	b.WriteString("<department><name>CS</name>")
	for i := 0; i < n; i++ {
		b.WriteString("<professor><firstName>x</firstName><lastName>y</lastName>" +
			"<publication><title>t</title><author>a</author><journal>j</journal></publication>" +
			"<teaches>z</teaches></professor>")
	}
	for i := 0; i < n; i++ {
		b.WriteString("<gradStudent><firstName>p</firstName><lastName>q</lastName>" +
			"<publication><title>t</title><author>a</author><conference>c</conference></publication>" +
			"</gradStudent>")
	}
	b.WriteString("</department>")
	return b.String()
}

// TestValidateStreamAllocsIndependentOfSize is the O(depth) memory claim
// as an executable assertion: a document 100× larger must not cost more
// allocations per validation (the per-call budget is the frame stack and
// the scanner — neither of which scales with length).
func TestValidateStreamAllocsIndependentOfSize(t *testing.T) {
	d, err := dtd.Parse(propertyDTDs[0].text)
	if err != nil {
		t.Fatal(err)
	}
	small, big := largeDoc(20), largeDoc(2000)
	if len(big) < 10*len(small) {
		t.Fatalf("big doc (%d bytes) is not ≥10× small (%d bytes)", len(big), len(small))
	}
	measure := func(src string) float64 {
		if err := d.ValidateStream(src); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := d.ValidateStream(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs, bigAllocs := measure(small), measure(big)
	t.Logf("%d bytes: %v allocs; %d bytes: %v allocs", len(small), smallAllocs, len(big), bigAllocs)
	// Nor with the DTD's size: what its names resolve to is remembered on
	// the DTD, so a warm validation pays for its frame stack and the scan.
	if smallAllocs > 5 {
		t.Errorf("a warm validation costs %v allocs, want ≤ 5 (measured 4): the per-name plans are being rebuilt per document", smallAllocs)
	}
	// Identical budgets modulo map-growth jitter: two allocations of slack.
	if bigAllocs > smallAllocs+2 {
		t.Errorf("allocs grew with document size: %d bytes -> %.1f allocs, %d bytes -> %.1f allocs",
			len(small), smallAllocs, len(big), bigAllocs)
	}
}

// BenchmarkValidateDocCold is the tree pipeline (parse into a tree, then
// validate it) on a multi-hundred-KB document; BenchmarkValidateDocWarm
// is the streaming validator on the same text. benchjson pairs them and
// reports the speedup in BENCH_stream.json (make bench-stream).
func BenchmarkValidateDocCold(b *testing.B) {
	d, err := dtd.Parse(propertyDTDs[0].text)
	if err != nil {
		b.Fatal(err)
	}
	src := largeDoc(2000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, _, err := xmlmodel.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Validate(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidateDocWarm(b *testing.B) {
	d, err := dtd.Parse(propertyDTDs[0].text)
	if err != nil {
		b.Fatal(err)
	}
	src := largeDoc(2000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ValidateStream(src); err != nil {
			b.Fatal(err)
		}
	}
}
