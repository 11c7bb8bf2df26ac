package mediator_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/infer"
	"repro/internal/load"
	"repro/internal/mediator"
	"repro/internal/xmas"
)

// planMissAllocs is what planning a query text never seen before allocates,
// per condition on the fleet's entries. While infer kept each condition's
// specializations in a map keyed by name it was 249, 274 and 290; while it
// handed a one-name condition to the fan-out in two closures, 220, 246 and
// 262.
var planMissAllocs = map[string]float64{
	"<name/>": 214, "<kind/>": 240, "<description/>": 256,
}

// TestPlanMissAllocs is the ratchet on a query a view's plan memo has not
// seen, TestPlanHitAllocs's other half: parse the text, simplify it against
// the view DTD (the tightening pass of infer.SimplifyQuery), and ask each
// part's DTD whether the query can touch it. The view is a union of one
// part per internal/load schema family; the conditions are on a child every
// family's entry has (name: nothing pruned), on one only the disjunctive
// and mixed entries have (kind) and on one only the recursive and mixed
// entries have (description). Every run names its result anew, so the text
// and its plan key are new, and empties the satisfiability-verdict cache,
// whose key leaves the name out, so every part's verdict is computed too.
// Allocations stay within 20 of what was measured (planMissAllocs).
func TestPlanMissAllocs(t *testing.T) {
	// The simplifier's fan-out starts up to GOMAXPROCS workers per
	// condition; the counts were measured at 2, the benchmark's, on x86-64
	// Linux.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := mediator.New("first-sight")
	var parts []mediator.ViewPart
	for _, f := range load.Families() {
		name := string(f)
		src, err := load.BuildSource(name, load.SourceOptions{
			Schema: load.SchemaOptions{Seed: 1, Family: f},
			Gen:    gen.Options{MaxDepth: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		static, err := mediator.NewStaticSource(name, src.Doc, src.DTD)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSource(static); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, mediator.ViewPart{
			Source: name,
			Query:  xmas.MustParse(fmt.Sprintf(`SELECT X WHERE <%s> X:<entry/> </%s>`, name, name)),
		})
	}
	if _, err := m.DefineUnionView("fleet", parts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, row := range []struct {
		cond   string
		pruned int
	}{{"<name/>", 0}, {"<kind/>", 3}, {"<description/>", 3}} {
		cond := row.cond
		const runs = 20
		// AllocsPerRun calls its function runs+1 times.
		texts := make([][]byte, runs+1)
		for i := range texts {
			texts[i] = []byte(fmt.Sprintf("r%d = SELECT X WHERE <fleet> X:<entry>%s</entry> </fleet>", i, cond))
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			infer.PurgeSatisfiabilityCache()
			hit, pruned, err := m.PlanText(ctx, "fleet", texts[next])
			next++
			if err != nil || hit || pruned != row.pruned {
				t.Fatalf("%s: hit=%v pruned=%d err=%v, want an analysis that prunes %d parts", cond, hit, pruned, err, row.pruned)
			}
		})
		if limit := planMissAllocs[cond] + 20; allocs > limit {
			t.Errorf("%s: a plan miss allocates %.0f times, limit %.0f", cond, allocs, limit)
		}
		t.Logf("%s: %.0f allocations", cond, allocs)
	}
}
