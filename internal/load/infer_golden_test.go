package load

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/regex"
	"repro/internal/xmas"
)

// updateInferGolden rewrites testdata/infer.golden. The file pins inferred
// DTD text across commits — the benchmark's checkInfer recomputes with the
// binary under test and cannot see an answer that changed between two
// commits — so regenerate it only from a commit whose answers are the
// reference, and review the diff like an API change.
var updateInferGolden = flag.Bool("update-infer-golden", false, "rewrite testdata/infer.golden from the current inference output")

// The paper's running examples (D1 of Example 3.1, D11 of Example 4.4, Q2,
// Q3, Q12), as internal/infer's own tests state them.
const (
	goldenD1 = `<!DOCTYPE department [
  <!ELEMENT department (name, professor+, gradStudent+, course*)>
  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
  <!ELEMENT gradStudent (firstName, lastName, publication+)>
  <!ELEMENT publication (title, author+, (journal|conference))>
  <!ELEMENT name (#PCDATA)> <!ELEMENT firstName (#PCDATA)>
  <!ELEMENT lastName (#PCDATA)> <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)> <!ELEMENT journal (#PCDATA)>
  <!ELEMENT conference (#PCDATA)> <!ELEMENT course (#PCDATA)>
  <!ELEMENT teaches (#PCDATA)>
]>`
	goldenD11 = `<!DOCTYPE department [
  <!ELEMENT department (name, professor+, gradStudent+, course*)>
  <!ELEMENT professor (firstName, lastName, publication+, teaches)>
  <!ELEMENT gradStudent (firstName, lastName, publication)>
  <!ELEMENT publication (title, author*, (journal|conference))>
  <!ELEMENT name (#PCDATA)> <!ELEMENT firstName (#PCDATA)>
  <!ELEMENT lastName (#PCDATA)> <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)> <!ELEMENT journal (#PCDATA)>
  <!ELEMENT conference (#PCDATA)> <!ELEMENT course (#PCDATA)>
  <!ELEMENT teaches (#PCDATA)>
]>`
	goldenQ2 = `withJournals =
SELECT P
WHERE <department><name>CS</name>
        P:<professor|gradStudent>
           <publication id=Pub1><journal/></publication>
           <publication id=Pub2><journal/></publication>
        </>
      </department>
AND Pub1 != Pub2`
	goldenQ3 = `publist =
SELECT P
WHERE <department><name>CS</name>
        <professor|gradStudent>
          P:<publication><journal/></publication>
        </>
      </department>`
	goldenQ12 = `papers = SELECT P
WHERE <department> <gradStudent> <publication> P:<title|author/> </publication> </gradStudent> </department>`
)

type inferGoldenCase struct{ name, dtd, query string }

// inferGoldenCases is the paper's examples plus, for every schema family at
// every Width/Depth in 6–8, a view conditioned on one child of entry in
// both shapes the benchmark's hot pool uses: a regular child and an
// existential qualifier.
func inferGoldenCases(t *testing.T) []inferGoldenCase {
	cases := []inferGoldenCase{
		{"paper/Q2-D1", goldenD1, goldenQ2},
		{"paper/Q3-D1", goldenD1, goldenQ3},
		{"paper/Q12-D11", goldenD11, goldenQ12},
		{"paper/Q12-D1", goldenD1, goldenQ12},
	}
	k := 0
	for _, fam := range Families() {
		for width := 6; width <= 8; width++ {
			for depth := 6; depth <= 8; depth++ {
				d, err := Synthesize(SchemaOptions{Seed: int64(1100 + k), Family: fam, Root: "probe", Width: width, Depth: depth})
				if err != nil {
					t.Fatal(err)
				}
				children := regex.Names(d.Types["entry"].Model)
				child := children[k%len(children)].Base
				k++
				for _, cond := range []string{"<" + child + "/>", "[<" + child + "/>]"} {
					cases = append(cases, inferGoldenCase{
						name:  fmt.Sprintf("%s/w%d-d%d/%s", fam, width, depth, cond),
						dtd:   d.String(),
						query: "V = SELECT X WHERE <probe> X:<entry>" + cond + "</entry> </probe>",
					})
				}
			}
		}
	}
	return cases
}

// TestInferGolden compares, byte for byte, what inference answers today —
// specialized view DTD, plain view DTD, classification, merge warnings —
// with what the commit that generated testdata/infer.golden answered.
func TestInferGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range inferGoldenCases(t) {
		src, err := dtd.Parse(c.dtd)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := infer.Infer(xmas.MustParse(c.query), src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "==== %s\n-- specialized view DTD\n%s\n-- plain view DTD\n%s\n-- classification: %s\n",
			c.name, res.SDTD, res.DTD, res.Class)
		for _, ev := range res.Merges {
			if ev.Distinct {
				fmt.Fprintf(&b, "-- warning: %s\n", ev)
			}
		}
	}
	const path = "testdata/infer.golden"
	if *updateInferGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() == string(want) {
		return
	}
	got, pinned := strings.Split(b.String(), "==== "), strings.Split(string(want), "==== ")
	for i := range min(len(got), len(pinned)) {
		if got[i] != pinned[i] {
			t.Fatalf("inferred DTD text differs from the golden commit's, first at:\n==== %s\ngot:\n==== %s", pinned[i], got[i])
		}
	}
	t.Fatalf("inference answers %d cases, testdata/infer.golden holds %d", len(got)-1, len(pinned)-1)
}
