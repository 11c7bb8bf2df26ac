package dtd_test

import (
	"math"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

// familyBody is a document of the family's schema grown entry by entry to
// size bytes, with its DOCTYPE, as a source serves it.
func familyBody(tb testing.TB, f load.Family, size int) (*dtd.DTD, string) {
	tb.Helper()
	d, err := load.Synthesize(load.SchemaOptions{Seed: 1, Family: f, Root: "site"})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := gen.New(d, gen.Options{Seed: 1, MaxDepth: 6, LengthBias: 0.35, TextPool: []string{"plain", "w17", "naïve café"}})
	if err != nil {
		tb.Fatal(err)
	}
	root := xmlmodel.NewElement("site")
	for n := 0; n < size; {
		e := g.Element("entry", 6)
		root.Children = append(root.Children, e)
		n += len(xmlmodel.MarshalElement(e, 2))
	}
	doc := &xmlmodel.Document{DocType: "site", Root: root}
	if err := d.Validate(doc); err != nil {
		tb.Fatalf("%s: the grown document is invalid: %v", f, err)
	}
	return d, dtd.MarshalDocument(doc, d, 2)
}

// A document parsed with the count of the last one like it costs its tree —
// one array of elements, one of child-list slots — the Document, the
// DOCTYPE and the validator's frame stack: the scan's own stacks are pooled,
// and no chunk grows by doubling. Each count is the cheapest of ten single
// calls: a scan whose stacks the pool lost — to a collection, or to one of
// the Puts a -race build drops at random — grows them again, and that is
// not the scan's to answer for.
func TestParseValidSizedAllocs(t *testing.T) {
	cheapestAllocs := func(f func()) float64 {
		least := math.MaxFloat64
		for i := 0; i < 10; i++ {
			least = min(least, testing.AllocsPerRun(1, f))
		}
		return least
	}
	for _, f := range load.Families() {
		if f == load.FamilyRecursive {
			continue // one entry is 400 KiB
		}
		t.Run(string(f), func(t *testing.T) {
			d, body := familyBody(t, f, 16<<10)
			_, _, n, err := d.ParseValid(body, 0)
			if err != nil {
				t.Fatal(err)
			}
			parse := func(sized int) func() {
				return func() {
					if _, _, _, err := d.ParseValid(body, sized); err != nil {
						t.Fatal(err)
					}
				}
			}
			sized, unsized := cheapestAllocs(parse(n)), cheapestAllocs(parse(0))
			t.Logf("%d bytes, %d elements: %v allocs sized, %v unsized", len(body), n, sized, unsized)
			if sized > 8 {
				t.Errorf("ParseValid of %d bytes sized by its %d elements: %v allocs, want ≤ 8", len(body), n, sized)
			}
		})
	}
}
