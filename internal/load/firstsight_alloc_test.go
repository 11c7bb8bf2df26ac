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
// family/size/condition: 5 351 over the 30 rows, a mean of 178.4 (ParsePrefix
// 75, xmas.Parse 9, InferContext 94.4 of it).
//
// While infer kept each condition's specializations in a map keyed by name
// and Merge grouped them in a map of slices, the rows summed to 7 610, a
// mean of 253.7 (InferContext 169.7); each row is 22–33 % below its count
// then:
//
//	recursive   237 238 231 / 255 256 249    optional 215 219 215 / 236 239 236
//	disjunctive 236 237 235 / 258 259 257    idref    169 170 166 / 169 170 166
//	mixed       361 362 357 / 405 406 401
//
// (Width/Depth 6 / 8, each as <name/> <award/> [<award/>].) When validity
// compiled the model's DFA through the automata cache, a plain condition
// paid one lookup and 10 more allocations per request on award and two
// lookups and 17–18 more on name (more while the cache's map grew:
// recursive/6/<name/> was 454); the qualifier, whose validity is never
// asked, paid the same as then.
var firstSightAllocs = map[string]float64{
	"recursive/6/<name/>": 164, "recursive/6/<award/>": 165, "recursive/6/[<award/>]": 158,
	"recursive/8/<name/>": 175, "recursive/8/<award/>": 176, "recursive/8/[<award/>]": 169,
	"optional/6/<name/>": 155, "optional/6/<award/>": 159, "optional/6/[<award/>]": 155,
	"optional/8/<name/>": 169, "optional/8/<award/>": 172, "optional/8/[<award/>]": 169,
	"disjunctive/6/<name/>": 163, "disjunctive/6/<award/>": 164, "disjunctive/6/[<award/>]": 162,
	"disjunctive/8/<name/>": 177, "disjunctive/8/<award/>": 178, "disjunctive/8/[<award/>]": 176,
	"idref/6/<name/>": 132, "idref/6/<award/>": 133, "idref/6/[<award/>]": 129,
	"idref/8/<name/>": 132, "idref/8/<award/>": 133, "idref/8/[<award/>]": 129,
	"mixed/6/<name/>": 247, "mixed/6/<award/>": 248, "mixed/6/[<award/>]": 243,
	"mixed/8/<name/>": 274, "mixed/8/<award/>": 275, "mixed/8/[<award/>]": 270,
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
