package load

import (
	"context"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmas"
)

// TestInferTextPathAllocations is the ratchet on what a POST /infer pays
// around the algorithms: reading the DTD, the bookkeeping of Normalize, and
// writing the two view DTDs, over the five families at the benchmark's
// Width/Depth (6 and 8) and, end to end, on the paper's Q2 over D1.
func TestInferTextPathAllocations(t *testing.T) {
	for _, fam := range Families() {
		for _, size := range []int{6, 8} {
			d, err := Synthesize(SchemaOptions{Seed: 1, Family: fam, Root: "probe", Width: size, Depth: size})
			if err != nil {
				t.Fatal(err)
			}
			text := d.String()

			// Reading: the tables, the parser's stack and the scratch are a
			// constant; a declaration is its name's atom (once a document),
			// and a slice and a box per sequence or alternation, a box per
			// repetition — under 3 on average.
			if got, limit := testing.AllocsPerRun(20, func() { dtd.Parse(text) }), float64(3*len(d.Types)+20); got > limit {
				t.Errorf("%s/%d: dtd.Parse allocates %.0f times for %d declarations, limit %.0f", fam, size, got, len(d.Types), limit)
			}

			// Writing: nothing into a buffer with room, the buffer and the
			// string for String.
			src, err := dtd.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			children := regex.Names(d.Types["entry"].Model)
			q := xmas.MustParse("V = SELECT X WHERE <probe> X:<entry><" + children[len(children)/2].Base + "/></entry> </probe>")
			res, err := infer.Infer(q, src)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, 64<<10)
			for name, doc := range map[string]interface {
				AppendText([]byte) []byte
				String() string
			}{"DTD": res.DTD, "SDTD": res.SDTD} {
				if got := testing.AllocsPerRun(20, func() { buf = doc.AppendText(buf[:0]) }); got != 0 {
					t.Errorf("%s/%d: %s.AppendText into a buffer with room allocates %.0f times, want 0", fam, size, name, got)
				}
				if got := testing.AllocsPerRun(20, func() { _ = doc.String() }); got > 2 {
					t.Errorf("%s/%d: %s.String allocates %.0f times, want at most 2", fam, size, name, got)
				}
				if string(buf) != doc.String() {
					t.Errorf("%s/%d: %s.AppendText and String disagree", fam, size, name)
				}
			}

			// Normalize: a constant of bookkeeping on top of what the
			// renames, the reductions and the declarations of its output
			// cost. These views are normalized already and keep one tag a
			// base, so no round has two specializations to compare.
			view := res.SDTD
			same := func(n regex.Name) regex.Name { return n }
			output := testing.AllocsPerRun(20, func() {
				out := sdtd.NewSized(view.Root, len(view.Types))
				for _, n := range view.Names() {
					ty := view.Types[n]
					if !ty.PCDATA {
						ty = dtd.M(automata.Reduce(regex.Rename(ty.Model, same), nil))
					}
					out.Declare(n, ty)
				}
			})
			if got, limit := testing.AllocsPerRun(20, func() { view.Normalize(nil) }), output+12; got > limit {
				t.Errorf("%s/%d: Normalize allocates %.0f times, its output alone %.0f, limit %.0f", fam, size, got, output, limit)
			}
		}
	}

	// End to end: parse, infer, render as POST /infer does. The commit
	// before this ratchet paid 2143 allocations for the paper's Q2 over D1
	// (fmt.Fprintln of the two results for the rendering); this one pays
	// 923, and the limit is 60 % of the former.
	q := xmas.MustParse(goldenQ2)
	buf := make([]byte, 0, 4<<10)
	whole := testing.AllocsPerRun(20, func() {
		src, _, err := dtd.ParsePrefix(goldenD1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := infer.InferContext(context.Background(), q, src)
		if err != nil {
			t.Fatal(err)
		}
		buf = res.DTD.AppendText(append(res.SDTD.AppendText(buf[:0]), '\n'))
	})
	if limit := 0.6 * 2143; whole > limit {
		t.Errorf("parse, infer and render of Q2 over D1 allocates %.0f times, limit %.0f", whole, limit)
	}
	t.Logf("parse, infer and render of Q2 over D1: %.0f allocations", whole)
}
