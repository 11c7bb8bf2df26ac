// Schema discovery comparison (the paper's Section 5): summarize the same
// data with a strong dataguide (Goldman–Widom, the schemaless world's best
// tool) and compare it against the actual DTD — making concrete what
// dataguides lose (order, cardinality, sibling constraints) and what they
// share with specialized DTDs (same-name nodes with different types).
package main

import (
	"fmt"
	"log"

	mix "repro"
)

const catalogDTD = `<!DOCTYPE catalog [
  <!ELEMENT catalog (vendor+, product+)>
  <!ELEMENT vendor (vname, rating?)>
  <!ELEMENT product (pname, price, (new|used))>
  <!ELEMENT vname (#PCDATA)>
  <!ELEMENT rating (#PCDATA)>
  <!ELEMENT pname (#PCDATA)>
  <!ELEMENT price (#PCDATA)>
  <!ELEMENT new (#PCDATA)>
  <!ELEMENT used (#PCDATA)>
]>`

func main() {
	d := mix.MustDTD(catalogDTD)
	g, err := mix.NewGenerator(d, mix.GenOptions{Seed: 5, LengthBias: 0.3})
	if err != nil {
		log.Fatal(err)
	}

	// Summarize a corpus of documents with one dataguide.
	var roots []*mix.Element
	elems := 0
	for i := 0; i < 25; i++ {
		doc := g.Document()
		elems += doc.Root.Size()
		roots = append(roots, doc.Root)
	}
	dg, err := mix.BuildDataGuide(roots...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataguide over %d documents (%d elements), %d label paths:\n", len(roots), elems, len(dg.Paths()))
	for _, p := range dg.Paths() {
		fmt.Println("  ", p)
	}

	guideSDTD := dg.ToSDTD()
	fmt.Println("\ndataguide rendered as a specialized DTD (Section 5: dataguides")
	fmt.Println("are s-DTD-like — same-label nodes may have different types):")
	fmt.Println(guideSDTD)

	guideDTD, events, err := dg.ToDTD()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmerged into a plain DTD:")
	fmt.Println(guideDTD)
	for _, ev := range events {
		fmt.Println("  merge:", ev)
	}

	// Compare against the true schema.
	fmt.Println("\ncomparison with the actual DTD (Definition 3.2):")
	ab, _ := mix.Tighter(d, guideDTD)
	ba, w := mix.Tighter(guideDTD, d)
	fmt.Printf("  true DTD ⊆ dataguide schema: %v\n", ab)
	fmt.Printf("  dataguide schema ⊆ true DTD: %v\n", ba)
	if w != nil {
		fmt.Printf("  witness (allowed by dataguide, impossible under the DTD): %s\n", w)
	}

	// The concrete losses, demonstrated:
	scrambled, err := mix.ParseElement(`<catalog>
	  <product><pname>p</pname><price>1</price><new>y</new></product>
	  <vendor><vname>v</vname></vendor>
	</catalog>`)
	if err != nil {
		log.Fatal(err)
	}
	sd := &mix.Document{DocType: "catalog", Root: scrambled}
	fmt.Printf("\nproduct-before-vendor document: dataguide accepts: %v, DTD accepts: %v\n",
		guideDTD.Validate(sd) == nil, d.Validate(sd) == nil)
	fmt.Println("  → order and cardinality are invisible to dataguides (Section 5)")
}
