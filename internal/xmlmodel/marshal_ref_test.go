package xmlmodel_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

// The serializer as it was before appendXML replaced it, kept verbatim as
// the reference the differential tests compare every entry point against.

func writeXML(b *strings.Builder, e *xmlmodel.Element, indent, level int) {
	pad := func(l int) {
		if indent >= 0 {
			b.WriteString(strings.Repeat(" ", indent*l))
		}
	}
	pad(level)
	b.WriteByte('<')
	b.WriteString(e.Name)
	if e.ID != "" {
		b.WriteString(` id="`)
		b.WriteString(escapeAttr(e.ID))
		b.WriteByte('"')
	}
	b.WriteByte('>')
	switch {
	case e.IsText:
		b.WriteString(escapeText(e.Text))
	case len(e.Children) > 0:
		if indent >= 0 {
			b.WriteByte('\n')
		}
		for _, k := range e.Children {
			writeXML(b, k, indent, level+1)
			if indent >= 0 {
				b.WriteByte('\n')
			}
		}
		pad(level)
	}
	b.WriteString("</")
	b.WriteString(e.Name)
	b.WriteByte('>')
}

func escapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

func escapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func refMarshalElement(e *xmlmodel.Element, indent int) string {
	var b strings.Builder
	writeXML(&b, e, indent, 0)
	if indent >= 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

func refMarshal(d *xmlmodel.Document, indent int) string {
	var b strings.Builder
	if d.DocType != "" {
		b.WriteString("<!DOCTYPE ")
		b.WriteString(d.DocType)
		b.WriteString(">")
		if indent >= 0 {
			b.WriteByte('\n')
		}
	}
	b.WriteString(refMarshalElement(d.Root, indent))
	return b.String()
}

// byteAtATime consumes what it is handed one byte at a time and keeps no
// reference to p, as io.Writer allows: it sees the pooled buffer's bytes
// only during the call.
type byteAtATime struct{ bytes.Buffer }

func (w *byteAtATime) Write(p []byte) (int, error) {
	for _, c := range p {
		w.Buffer.WriteByte(c)
	}
	return len(p), nil
}

// familyDoc grows a document of one load family, entry by entry over
// consecutive seeds, until it serializes to at least size bytes. The text
// pool holds every character the escaper treats specially.
func familyDoc(tb testing.TB, f load.Family, size int) *xmlmodel.Document {
	tb.Helper()
	root := &xmlmodel.Element{Name: "site"}
	for seed, n := int64(1), 0; n < size; seed++ {
		src, err := load.BuildSource("site", load.SourceOptions{
			Schema: load.SchemaOptions{Seed: seed, Family: f},
			Gen: gen.Options{AssignIDs: true, TextPool: []string{
				"plain", "", "a&b", "<tag>", `say "hi"`, "naïve café ☕", "]]>", "&amp;",
			}},
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
	return &xmlmodel.Document{DocType: "site", Root: root}
}

func handCases() map[string]*xmlmodel.Element {
	deep := xmlmodel.NewText("leaf", "bottom")
	for i := 0; i < 100; i++ {
		deep = xmlmodel.NewElement(fmt.Sprintf("d%d", i), deep)
	}
	cases := map[string]*xmlmodel.Element{
		"specials in text": xmlmodel.NewText("t", `a & b < c > d " e`),
		"specials in id":   {Name: "t", ID: `x&y<z>"q"`, IsText: true, Text: "v"},
		"only specials":    {Name: "t", ID: `"""`, IsText: true, Text: "&&&<<<>>>"},
		"empty text":       xmlmodel.NewText("t", ""),
		"empty content":    xmlmodel.NewElement("empty"),
		"empty among full": xmlmodel.NewElement("r", xmlmodel.NewElement("a"), xmlmodel.NewText("b", ""), xmlmodel.NewElement("c")),
		"depth 100":        deep,
	}
	// Three-byte runes shifted through every offset around the flush
	// boundary: some rune is cut in two by a flush in each of them.
	for shift := 0; shift < 4; shift++ {
		text := strings.Repeat("x", shift) + strings.Repeat("☕", xmlmodel.WriteBufSize)
		cases[fmt.Sprintf("utf8 across flushes +%d", shift)] = xmlmodel.NewElement("r",
			xmlmodel.NewText("t", text), xmlmodel.NewText("u", "<"+text+">"))
	}
	return cases
}

// checkAgainstReference holds every serializing entry point to the
// reference's bytes at the three indent regimes.
func checkAgainstReference(t *testing.T, doc *xmlmodel.Document, schema *dtd.DTD) {
	t.Helper()
	for _, indent := range []int{-1, 0, 2} {
		want := refMarshalElement(doc.Root, indent)
		if got := xmlmodel.MarshalElement(doc.Root, indent); got != want {
			t.Errorf("indent %d: MarshalElement differs from the reference%s", indent, firstDiff(got, want))
		}
		if got, want := xmlmodel.Marshal(doc, indent), refMarshal(doc, indent); got != want {
			t.Errorf("indent %d: Marshal differs from the reference%s", indent, firstDiff(got, want))
		}
		bare := &xmlmodel.Document{Root: doc.Root}
		if got, want := xmlmodel.Marshal(bare, indent), refMarshal(bare, indent); got != want {
			t.Errorf("indent %d: Marshal without a DOCTYPE differs from the reference%s", indent, firstDiff(got, want))
		}
		wantDoc := want
		if schema != nil {
			wantDoc = schema.String() + "\n" + want
		}
		if got := dtd.MarshalDocument(doc, schema, indent); got != wantDoc {
			t.Errorf("indent %d: dtd.MarshalDocument differs from the reference%s", indent, firstDiff(got, wantDoc))
		}
		var buf bytes.Buffer
		if err := xmlmodel.WriteElement(&buf, doc.Root, indent); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want {
			t.Errorf("indent %d: WriteElement differs from the reference%s", indent, firstDiff(got, want))
		}
		var slow byteAtATime
		if err := xmlmodel.WriteElement(&slow, doc.Root, indent); err != nil {
			t.Fatal(err)
		}
		if got := slow.String(); got != want {
			t.Errorf("indent %d: WriteElement into a byte-at-a-time writer differs from the reference%s", indent, firstDiff(got, want))
		}
	}
	var b strings.Builder
	writeXML(&b, doc.Root, -1, 0)
	if got, want := doc.Root.String(), b.String(); got != want {
		t.Errorf("Element.String differs from the reference%s", firstDiff(got, want))
	}
	// The model cannot tell <t></t> from an empty text node, so the round
	// trip is held to the serialized form: parsing it and serializing
	// again is the identity.
	text := xmlmodel.Marshal(doc, 2)
	back, _, err := xmlmodel.Parse(text)
	if err != nil {
		t.Fatalf("Parse(Marshal(d)): %v", err)
	}
	if got := xmlmodel.Marshal(back, 2); got != text {
		t.Errorf("Marshal(Parse(Marshal(d))) is not Marshal(d)%s", firstDiff(got, text))
	}
}

func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(s string) string { return s[max(0, i-20):min(len(s), i+20)] }
	return fmt.Sprintf(" at byte %d of %d/%d: got …%q…, want …%q…", i, len(got), len(want), clip(got), clip(want))
}

func TestSerializerMatchesReference(t *testing.T) {
	for _, f := range load.Families() {
		t.Run(string(f), func(t *testing.T) {
			schema, err := load.Synthesize(load.SchemaOptions{Seed: 1, Family: f})
			if err != nil {
				t.Fatal(err)
			}
			// Three buffers' worth, so WriteElement flushes mid-document.
			checkAgainstReference(t, familyDoc(t, f, 3*xmlmodel.WriteBufSize), schema)
		})
	}
	for name, root := range handCases() {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, &xmlmodel.Document{DocType: root.Name, Root: root}, nil)
		})
	}
}

// failAfter fails every Write once limit bytes have been accepted.
type failAfter struct{ limit, n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, io.ErrClosedPipe
	}
	w.n += len(p)
	return len(p), nil
}

func TestWriteElementReportsTheWritersError(t *testing.T) {
	doc := familyDoc(t, load.FamilyMixed, 3*xmlmodel.WriteBufSize)
	w := &failAfter{limit: xmlmodel.WriteBufSize}
	if err := xmlmodel.WriteElement(w, doc.Root, 2); err != io.ErrClosedPipe {
		t.Fatalf("WriteElement = %v, want the writer's error", err)
	}
	if w.n != xmlmodel.WriteBufSize {
		t.Errorf("the writer accepted %d bytes; it should not have been called again after failing", w.n)
	}
}

// The serializer's allocations do not depend on the size of the answer:
// WriteElement's buffer is pooled (a GC may empty the pool, hence ≤ 1, not
// 0) and MarshalElement pays for one exactly-sized buffer and its string.
func TestSerializerAllocations(t *testing.T) {
	doc := familyDoc(t, load.FamilyMixed, 32<<10)
	if n := testing.AllocsPerRun(50, func() { _ = xmlmodel.WriteElement(io.Discard, doc.Root, 2) }); n > 1 {
		t.Errorf("WriteElement of a %d-byte document: %v allocs, want ≤ 1", len(xmlmodel.MarshalElement(doc.Root, 2)), n)
	}
	var sink string
	if n := testing.AllocsPerRun(50, func() { sink = xmlmodel.MarshalElement(doc.Root, 2) }); n > 2 {
		t.Errorf("MarshalElement of a %d-byte document: %v allocs, want ≤ 2", len(sink), n)
	}
}
