package dtd_test

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/load"
	"repro/internal/regex"
)

// elementDecl matches an element declaration. On a text that parses, every
// declaration matches; so may text inside a comment or a literal, which is
// why checkModelsParseAlone skips a name matched twice.
var elementDecl = regexp.MustCompile(`<!ELEMENT[ \t\r\n]+([^ \t\r\n>]+)[ \t\r\n]+([^>]*)>`)

// checkModelsParseAlone: every type d, parsed from text, declares is what
// its own spec text reads alone — a fresh regex.Parse for a content model,
// Remark 1's (n1 | … | nk)* for ANY — whether or not the parse shared it
// with an earlier declaration spelled the same. It returns how many
// declarations took an earlier one's model, and fails unless each of those
// is that model itself.
func checkModelsParseAlone(t *testing.T, text string, d *dtd.DTD) (shared int) {
	t.Helper()
	specs := map[string][]string{}
	for _, m := range elementDecl.FindAllStringSubmatch(text, -1) {
		specs[m[1]] = append(specs[m[1]], strings.TrimSpace(m[2]))
	}
	anyNames := make([]regex.Expr, 0, len(d.Types))
	for _, n := range d.Declared() {
		anyNames = append(anyNames, regex.Nm(n))
	}
	first := map[string]regex.Expr{} // spec text → the model of its first declaration
	for _, n := range d.Declared() {
		if len(specs[n]) != 1 {
			continue // a declaration in a comment or a literal as well
		}
		spec, got := specs[n][0], d.Types[n]
		var want dtd.Type
		switch spec {
		case "(#PCDATA)":
			want = dtd.PC()
		case "EMPTY":
			want = dtd.M(regex.Eps())
		case "ANY":
			want = dtd.M(regex.Rep(regex.Or(anyNames...)))
		default:
			e, err := regex.Parse(spec)
			if err != nil {
				t.Fatalf("%s: the DTD parsed, its spec %q alone does not: %v", n, spec, err)
			}
			want = dtd.M(e)
			if m, ok := first[spec]; ok {
				if !sameNode(m, got.Model) {
					t.Errorf("%s: spelled %q like an earlier declaration, but its model is another tree", n, spec)
				}
				shared++
			} else {
				first[spec] = got.Model
			}
		}
		if got.PCDATA != want.PCDATA || (!got.PCDATA && !regex.Equal(got.Model, want.Model)) {
			t.Errorf("%s: declared %q, parsed %s, alone %s", n, spec, got, want)
		}
	}
	return shared
}

// sameNode reports whether a and b are one tree: their sequences and
// alternations are carved from the same memory. (An interface holding a
// slice cannot be compared with ==.)
func sameNode(a, b regex.Expr) bool {
	switch x := a.(type) {
	case regex.Concat:
		y, ok := b.(regex.Concat)
		return ok && &x.Items[0] == &y.Items[0]
	case regex.Alt:
		y, ok := b.(regex.Alt)
		return ok && &x.Items[0] == &y.Items[0]
	case regex.Star:
		y, ok := b.(regex.Star)
		return ok && sameNode(x.Sub, y.Sub)
	case regex.Plus:
		y, ok := b.(regex.Plus)
		return ok && sameNode(x.Sub, y.Sub)
	case regex.Opt:
		y, ok := b.(regex.Opt)
		return ok && sameNode(x.Sub, y.Sub)
	}
	return regex.Equal(a, b)
}

// family is the DOCTYPE of a schema family at Width/Depth size.
func family(t testing.TB, fam load.Family, size int) string {
	t.Helper()
	d, err := load.Synthesize(load.SchemaOptions{Seed: 1, Family: fam, Root: "probe", Width: size, Depth: size})
	if err != nil {
		t.Fatal(err)
	}
	return d.String()
}

// TestRepeatedModelsParseOnce: a content model spelled like an earlier
// declaration's is that declaration's model, and every model reads as its
// own text alone — over the five schema families, whose XMark-style text
// models and variants repeat, and over hand DTDs with repeated, ANY and
// EMPTY specs. A repeated spec that does not parse fails as the first
// declaration of it does, as it did before models were shared.
func TestRepeatedModelsParseOnce(t *testing.T) {
	for _, fam := range load.Families() {
		for _, size := range []int{6, 8} {
			text := family(t, fam, size)
			d, err := dtd.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			shared := checkModelsParseAlone(t, text, d)
			if fam == "mixed" && shared < 2*(size-1) {
				t.Errorf("mixed/%d: %d declarations share an earlier one's model, want the %d markup and variant repeats", size, shared, 2*(size-1))
			}
		}
	}
	for _, text := range []string{
		`<!DOCTYPE r [ <!ELEMENT r (a, b, a?)> <!ELEMENT a ((c | d)*)> <!ELEMENT b ((c | d)*)>
		  <!ELEMENT c (#PCDATA)> <!ELEMENT d ((c | d)*)> <!ELEMENT e ((c|d)*)> ]>`,
		`<!DOCTYPE r [ <!ELEMENT r ANY> <!ELEMENT s ANY> <!ELEMENT e EMPTY> <!ELEMENT f EMPTY>
		  <!ELEMENT g (r, (s, e))> <!ELEMENT h (r, (s, e))> <!ELEMENT i (r | r | s)> <!ELEMENT j (r | r | s)> ]>`,
		`<!DOCTYPE r [ <!-- <!ELEMENT r (s)> --> <!ELEMENT r (s+, s?)> <!ELEMENT s (s+, s?)> <!ELEMENT t (s+, s?)> ]>`,
	} {
		d, err := dtd.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if checkModelsParseAlone(t, text, d) == 0 {
			t.Errorf("no model shared in %s", text)
		}
	}
	for _, c := range []struct{ text, err string }{
		{`<!DOCTYPE r [ <!ELEMENT r (a, b)> <!ELEMENT a (b,)> <!ELEMENT b (b,)> ]>`,
			`dtd: element a: regex: parse error at offset 3: expected name, '(' or keyword`},
		{`<!DOCTYPE r [ <!ELEMENT r (a^1)> <!ELEMENT a (a^1)> ]>`,
			`dtd: element r: tagged names are not allowed in a plain DTD: (a^1)`},
		{`<!DOCTYPE r [ <!ELEMENT r (#PCDATA | a)*> <!ELEMENT a (#PCDATA | a)*> ]>`,
			`dtd: element r: mixed content "(#PCDATA | a)*" is outside the model (Section 2)`},
		{`<!DOCTYPE r [ <!ELEMENT r (a*)> <!ELEMENT a (a*)> <!ELEMENT a (a*)> ]>`,
			`dtd: element a declared twice`},
		{`<!DOCTYPE r [ <!ELEMENT r (a*)> <!ELEMENT a (a*)> <!ELEMENT b (a*) ]>`,
			`dtd: element b: regex: parse error at offset 5: unexpected "]"`},
	} {
		if _, err := dtd.Parse(c.text); err == nil || err.Error() != c.err {
			t.Errorf("Parse(%s): %v, want %s", c.text, err, c.err)
		}
	}
}

// renamed is text under n fresh names: every token that may be an element
// name (it starts with a lower-case letter; the keywords are upper-case) is
// prefixed with s<i>_, as a never-seen POST /infer is.
func renamed(text string, n int) []string {
	name := regexp.MustCompile(`[a-z][A-Za-z0-9_]*`)
	out := make([]string, n)
	for i := range out {
		prefix := fmt.Sprintf("s%d_", i)
		out[i] = name.ReplaceAllStringFunc(text, func(tok string) string { return prefix + tok })
	}
	return out
}

// parsePrefixAllocs is what ParsePrefix allocates on a never-seen DOCTYPE
// of each family at Width/Depth 6 and 8, measured with go 1.24 on x86-64
// Linux. One model per distinct text, carved from one slab, with a sized
// atom table: when every declaration parsed its own model into exactly
// sized copies, over a table grown from empty, the ten were
//
//	recursive 58 68   optional 58 70   disjunctive 62 74   idref 34 34
//	mixed 133 159
var parsePrefixAllocs = map[string]float64{
	"recursive/6": 34, "recursive/8": 36,
	"optional/6": 48, "optional/8": 61,
	"disjunctive/6": 35, "disjunctive/8": 39,
	"idref/6": 30, "idref/8": 30,
	"mixed/6": 81, "mixed/8": 92,
}

// TestParsePrefixAllocs is the ratchet on parsing a DOCTYPE no cache has
// seen, over the five families. The margin, 10, is for go 1.23, whose maps
// (the declarations', the atom table, the repeated-model table) allocate
// otherwise than 1.24's.
func TestParsePrefixAllocs(t *testing.T) {
	for _, fam := range load.Families() {
		for _, size := range []int{6, 8} {
			name := fmt.Sprintf("%s/%d", fam, size)
			const runs = 20
			texts := renamed(family(t, fam, size), runs+1) // AllocsPerRun calls runs+1 times
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if _, _, err := dtd.ParsePrefix(texts[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if limit := parsePrefixAllocs[name] + 10; allocs > limit {
				t.Errorf("%s: ParsePrefix allocates %.0f times, limit %.0f", name, allocs, limit)
			}
			t.Logf("%s: %.0f allocations", name, allocs)
		}
	}
}

// TestParsePrefixAllocatesWhatItParses: the declaration count that sizes
// the tables is a hint read off the whole text, a comment and the view
// definition after the subset included, and bounded so that a text full of
// the keyword does not presize tables for declarations it never makes. A
// 1 MiB body that declares one element inside such a comment allocated
// 8.0 MB while the hint was the raw count; now it allocates at most twice
// its length.
func TestParsePrefixAllocatesWhatItParses(t *testing.T) {
	const size = 1 << 20
	comment := strings.Repeat("<!ELEMENT ", size/len("<!ELEMENT "))
	body := "<!DOCTYPE r [ <!-- " + comment + "--> <!ELEMENT r EMPTY> ]>\nV = SELECT X WHERE X:<r/>"
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, rest, err := dtd.ParsePrefix(body)
	runtime.ReadMemStats(&after)
	if err != nil || len(d.Types) != 1 || !strings.HasPrefix(rest, "\nV =") {
		t.Fatalf("ParsePrefix: %v, %q, %v", d, rest, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > 2*uint64(len(body)) {
		t.Errorf("a %d-byte body declaring one element allocated %d bytes, want at most twice its length", len(body), got)
	}
	t.Logf("a %d-byte body declaring one element allocated %d bytes", len(body), got)
}

// BenchmarkParsePrefix parses a never-seen DOCTYPE of the mixed family at
// Width/Depth 8: 49 declarations, 29 of them content models spelled 13
// ways.
func BenchmarkParsePrefix(b *testing.B) {
	texts := renamed(family(b, "mixed", 8), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dtd.ParsePrefix(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}
