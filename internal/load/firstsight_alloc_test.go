package load

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/xmas"
)

// elementName matches the tokens of a payload that may be element names:
// they start with a lower-case letter; the DTD keywords, the view name and
// the pick variable are upper-case.
var elementName = regexp.MustCompile(`[a-z][A-Za-z0-9_]*`)

// firstSightAllocs is what one never-seen POST /infer allocates, per
// family/size/condition: 4 319 over the 30 rows, a mean of 144.0 (ParsePrefix
// 48.6, xmas.Parse 9, InferContext 86.4 of it).
//
// While every declaration parsed its own content model into exactly sized
// copies over an atom table grown from empty, and refineWith handed a
// one-name condition to the fan-out in two closures, the rows summed to
// 5 351, a mean of 178.4 (ParsePrefix 75, InferContext 94.4); no row rose
// (before / after):
//
//	recursive/6   164 165 158 / 132 133 126    recursive/8   175 176 169 / 135 136 129
//	optional/6    155 159 155 / 137 141 137    optional/8    169 172 169 / 152 155 152
//	disjunctive/6 163 164 162 / 128 129 127    disjunctive/8 177 178 176 / 134 135 133
//	idref/6       132 133 129 / 120 121 117    idref/8       132 133 129 / 120 121 117
//	mixed/6       247 248 243 / 187 188 183    mixed/8       274 275 270 / 199 200 195
//
// (each as <name/> <award/> [<award/>]). Before that, while infer kept each
// condition's specializations in a map keyed by name and Merge grouped them
// in a map of slices, the rows summed to 7 610, a mean of 253.7
// (InferContext 169.7). When validity compiled the model's DFA through the
// automata cache, a plain condition paid one lookup and 10 more allocations
// per request on award and two lookups and 17–18 more on name (more while
// the cache's map grew: recursive/6/<name/> was 454); the qualifier, whose
// validity is never asked, paid the same as then.
var firstSightAllocs = map[string]float64{
	"recursive/6/<name/>": 132, "recursive/6/<award/>": 133, "recursive/6/[<award/>]": 126,
	"recursive/8/<name/>": 135, "recursive/8/<award/>": 136, "recursive/8/[<award/>]": 129,
	"optional/6/<name/>": 137, "optional/6/<award/>": 141, "optional/6/[<award/>]": 137,
	"optional/8/<name/>": 152, "optional/8/<award/>": 155, "optional/8/[<award/>]": 152,
	"disjunctive/6/<name/>": 128, "disjunctive/6/<award/>": 129, "disjunctive/6/[<award/>]": 127,
	"disjunctive/8/<name/>": 134, "disjunctive/8/<award/>": 135, "disjunctive/8/[<award/>]": 133,
	"idref/6/<name/>": 120, "idref/6/<award/>": 121, "idref/6/[<award/>]": 117,
	"idref/8/<name/>": 120, "idref/8/<award/>": 121, "idref/8/[<award/>]": 117,
	"mixed/6/<name/>": 187, "mixed/6/<award/>": 188, "mixed/6/[<award/>]": 183,
	"mixed/8/<name/>": 199, "mixed/8/<award/>": 200, "mixed/8/[<award/>]": 195,
}

// TestInferFirstSightAllocs is the ratchet on a POST /infer no cache has
// seen, over the five families at Width/Depth 6 and 8, with a condition on
// a required child of entry (name: the refinement is valid), on an
// optional one (award: it is not) and on the optional one as a qualifier.
// Nothing on that path asks the automata cache — validity reads its
// occurrence counts off the content model — and allocations stay within
// 20 of what was measured (firstSightAllocs).
func TestInferFirstSightAllocs(t *testing.T) {
	// fanOut starts up to GOMAXPROCS workers per condition; the counts
	// were measured at 2, the benchmark's, on x86-64 Linux.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// firstSight measures one payload posted as if never seen: every run
	// renames every element name, then parses the DOCTYPE and the view
	// definition, infers and renders both view DTDs, as the handler does.
	// It returns the allocations per run and the automata-cache lookups of
	// all runs together.
	firstSight := func(payload string) (allocs float64, lookups int64) {
		const runs = 20
		// AllocsPerRun calls its function runs+1 times.
		texts := make([]string, runs+1)
		for i := range texts {
			prefix := fmt.Sprintf("s%d_", i)
			texts[i] = elementName.ReplaceAllStringFunc(payload, func(tok string) string { return prefix + tok })
		}
		buf := make([]byte, 0, 64<<10)
		next := 0
		before := automata.CacheStats()
		allocs = testing.AllocsPerRun(runs, func() {
			src, rest, err := dtd.ParsePrefix(texts[next])
			next++
			if err != nil {
				t.Fatal(err)
			}
			q, err := xmas.Parse(rest)
			if err != nil {
				t.Fatal(err)
			}
			res, err := infer.InferContext(context.Background(), q, src)
			if err != nil {
				t.Fatal(err)
			}
			buf = res.DTD.AppendText(append(res.SDTD.AppendText(buf[:0]), '\n'))
		})
		after := automata.CacheStats()
		return allocs, (after.Hits + after.Misses + after.Dedups) - (before.Hits + before.Misses + before.Dedups)
	}
	for _, fam := range Families() {
		for _, size := range []int{6, 8} {
			d, err := Synthesize(SchemaOptions{Seed: 1, Family: fam, Root: "probe", Width: size, Depth: size})
			if err != nil {
				t.Fatal(err)
			}
			for _, cond := range []string{"<name/>", "<award/>", "[<award/>]"} {
				name := fmt.Sprintf("%s/%d/%s", fam, size, cond)
				allocs, lookups := firstSight(d.String() + "\nV = SELECT X WHERE <probe> X:<entry>" + cond + "</entry> </probe>")
				if lookups != 0 {
					t.Errorf("%s: first sights made %d automata-cache lookups, want 0", name, lookups)
				}
				if limit := firstSightAllocs[name] + 20; allocs > limit {
					t.Errorf("%s: a first sight allocates %.0f times, limit %.0f", name, allocs, limit)
				}
				t.Logf("%s: %.0f allocations", name, allocs)
			}
		}
	}

	// The counter is not blind: a plain condition on recursive's
	// description refines description+, and Reduce's absorption and
	// Normalize decide on automata what that leaves.
	d, err := Synthesize(SchemaOptions{Seed: 1, Family: "recursive", Root: "probe", Width: 8, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, lookups := firstSight(d.String() + "\nV = SELECT X WHERE <probe> X:<entry><description/></entry> </probe>"); lookups == 0 {
		t.Error("recursive/8/<description/>: no automata-cache lookup; the counter the ratchet reads has stopped counting")
	}
}
