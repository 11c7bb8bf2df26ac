// Tests for query-time per-part satisfiability pruning (prune.go): a
// union part whose view DTD refutes every root-level condition of the
// query is never fetched, yet the answer is bit-identical to the unpruned
// evaluation. FaultSource.Fetches() is the ground truth for "never
// fetched"; the differential checks pin down "identical answer".
package mediator

import (
	"context"
	"testing"

	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

const libADTDText = `<!DOCTYPE library [
  <!ELEMENT library (item*)>
  <!ELEMENT item (book)>
  <!ELEMENT book (#PCDATA)>
]>`

const libBDTDText = `<!DOCTYPE library [
  <!ELEMENT library (item*)>
  <!ELEMENT item (disc)>
  <!ELEMENT disc (#PCDATA)>
]>`

const libADocText = `<library>
  <item><book>Dune</book></item>
  <item><book>Neuromancer</book></item>
</library>`

const libBDocText = `<library>
  <item><disc>OK Computer</disc></item>
</library>`

// addLibSource parses a library source and registers it behind a
// FaultSource so tests can count how often the mediator reached it.
func addLibSource(t *testing.T, m *Mediator, name, dtdText, docText string) *FaultSource {
	t.Helper()
	d, err := dtd.Parse(dtdText)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(docText)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStaticSource(name, doc, d)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultSource(src)
	if err := m.AddSource(fs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// newLibMediator builds a mediator with two fault-counting library
// sources — libA exports items holding books, libB items holding discs —
// and a union view "cat" concatenating their items. A query demanding
// <item><book/></item> is satisfiable against libA's part DTD but provably
// empty against libB's, which is exactly the situation per-part pruning
// exploits.
func newLibMediator(t *testing.T) (*Mediator, *FaultSource, *FaultSource) {
	t.Helper()
	m := New("libs")
	fsA := addLibSource(t, m, "libA", libADTDText, libADocText)
	fsB := addLibSource(t, m, "libB", libBDTDText, libBDocText)
	part := `SELECT I WHERE <library> I:<item/> </library>`
	if _, err := m.DefineUnionView("cat", []ViewPart{
		{Source: "libA", Query: xmas.MustParse(part)},
		{Source: "libB", Query: xmas.MustParse(part)},
	}); err != nil {
		t.Fatal(err)
	}
	return m, fsA, fsB
}

const qBooksText = `r = SELECT X WHERE <cat> X:<item><book/></item> </cat>`

func TestPruneUnionQueryZeroFetch(t *testing.T) {
	infer.PurgeSatisfiabilityCache()
	infer.ResetSatisfiabilityCacheStats()
	m, fsA, fsB := newLibMediator(t)
	ctx := context.Background()
	qBooks := xmas.MustParse(qBooksText)

	doc, qs, err := m.Query(ctx, "cat", qBooks)
	if err != nil {
		t.Fatal(err)
	}
	// The disc-only source was proven unable to contribute and never
	// contacted; the book source was fetched exactly once.
	if got := fsB.Fetches(); got != 0 {
		t.Errorf("libB fetches = %d, want 0 (pruned)", got)
	}
	if got := fsA.Fetches(); got != 1 {
		t.Errorf("libA fetches = %d, want 1", got)
	}
	if len(qs.PrunedSources) != 1 || qs.PrunedSources[0] != "libB" {
		t.Errorf("PrunedSources = %v, want [libB]", qs.PrunedSources)
	}
	// Pruning is NOT degradation.
	if qs.Degraded || len(qs.DegradedSources) != 0 {
		t.Errorf("pruned query reported degraded: %+v", qs)
	}
	if len(doc.Root.Children) != 2 {
		t.Fatalf("answer size = %d, want 2 book items", len(doc.Root.Children))
	}

	// Differential: the structure-blind baseline (full materialization, raw
	// evaluation) must produce the identical document.
	full, err := m.QueryUnsimplified(ctx, "cat", qBooks)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Root.Equal(full.Root) {
		t.Errorf("pruned answer differs from unpruned baseline:\npruned:  %v\nbaseline: %v", doc.Root, full.Root)
	}

	st := m.Stats()
	if st.PartsPruned != 1 {
		t.Errorf("PartsPruned = %d, want 1", st.PartsPruned)
	}
	if st.DegradedMaterializations != 0 || st.BreakerTrips != 0 {
		t.Errorf("pruning must not count as degradation or trip breakers: %+v", st)
	}
	if st.PruneVerdictCache.Misses == 0 {
		t.Error("first query must miss the verdict cache")
	}

	// Re-asking is a plan hit on the kept part's slot: no analysis, no
	// verdict lookup at all, no fetches.
	before := m.Stats()
	// QueryUnsimplified above refetched the full view (both sources);
	// from here on the counts must not move.
	fetchesA, fetchesB := fsA.Fetches(), fsB.Fetches()
	doc2, qs2, err := m.Query(ctx, "cat", qBooks)
	if err != nil {
		t.Fatal(err)
	}
	if !doc2.Root.Equal(doc.Root) {
		t.Error("repeated query changed the answer")
	}
	if len(qs2.PrunedSources) != 1 || qs2.PrunedSources[0] != "libB" {
		t.Errorf("repeat PrunedSources = %v", qs2.PrunedSources)
	}
	after := m.Stats()
	if after.PlanHits != before.PlanHits+1 || after.PlanMisses != before.PlanMisses {
		t.Errorf("repeat must be a plan hit: hits %d -> %d, misses %d -> %d",
			before.PlanHits, after.PlanHits, before.PlanMisses, after.PlanMisses)
	}
	lookups := func(s Stats) int64 { return s.PruneVerdictCache.Hits + s.PruneVerdictCache.Misses }
	if lookups(after) != lookups(before) {
		t.Errorf("repeat looked verdicts up: %d -> %d lookups, want none", lookups(before), lookups(after))
	}
	if got := fsA.Fetches(); got != fetchesA {
		t.Errorf("repeat query refetched libA: %d -> %d", fetchesA, got)
	}
	if got := fsB.Fetches(); got != fetchesB {
		t.Errorf("repeat query fetched pruned libB: %d -> %d", fetchesB, got)
	}
}

func TestPruneDisabled(t *testing.T) {
	m, fsA, fsB := newLibMediator(t)
	m.SetPruning(false)
	if m.PruningEnabled() {
		t.Fatal("SetPruning(false) did not stick")
	}
	doc, qs, err := m.Query(context.Background(), "cat", xmas.MustParse(qBooksText))
	if err != nil {
		t.Fatal(err)
	}
	if fsA.Fetches() != 1 || fsB.Fetches() != 1 {
		t.Errorf("with pruning off both sources must be fetched: A=%d B=%d", fsA.Fetches(), fsB.Fetches())
	}
	if len(qs.PrunedSources) != 0 {
		t.Errorf("PrunedSources = %v with pruning disabled", qs.PrunedSources)
	}
	if len(doc.Root.Children) != 2 {
		t.Errorf("answer size = %d, want 2", len(doc.Root.Children))
	}
}

// A part that is unsatisfiable at definition time (its pick names an
// element the source DTD never produces) is pruned for every query,
// without consulting the verdict cache.
func TestPruneStaticallyUnsatisfiablePart(t *testing.T) {
	m := New("libs")
	fsA := addLibSource(t, m, "libA", libADTDText, libADocText)
	fsB := addLibSource(t, m, "libB", libBDTDText, libBDocText)
	v, err := m.DefineUnionView("cat", []ViewPart{
		{Source: "libA", Query: xmas.MustParse(`SELECT I WHERE <library> I:<item/> </library>`)},
		{Source: "libB", Query: xmas.MustParse(`SELECT I WHERE <library> I:<manuscript/> </library>`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Parts[1].Class != infer.Unsatisfiable {
		t.Fatalf("libB part class = %v, want unsatisfiable", v.Parts[1].Class)
	}
	doc, qs, err := m.Query(context.Background(), "cat", xmas.MustParse(`r = SELECT X WHERE <cat> X:<item/> </cat>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := fsB.Fetches(); got != 0 {
		t.Errorf("statically empty part fetched %d times", got)
	}
	if got := fsA.Fetches(); got != 1 {
		t.Errorf("libA fetches = %d, want 1", got)
	}
	if len(qs.PrunedSources) != 1 || qs.PrunedSources[0] != "libB" {
		t.Errorf("PrunedSources = %v, want [libB]", qs.PrunedSources)
	}
	if len(doc.Root.Children) != 2 {
		t.Errorf("answer size = %d, want libA's 2 items", len(doc.Root.Children))
	}
}

// Direct pruneParts check: a condition no part can witness refutes every
// part and yields an all-false keep mask. (At Query level the simplifier
// usually proves such a query empty against the merged union DTD first;
// this pins the mask logic itself.)
func TestPrunePartsAllFalse(t *testing.T) {
	m, _, _ := newLibMediator(t)
	v, err := m.View("cat")
	if err != nil {
		t.Fatal(err)
	}
	q := xmas.MustParse(`r = SELECT X WHERE <cat> X:<item><shelf/></item> </cat>`)
	keep, pruned, unknown := pruneParts(context.Background(), v, q)
	if len(pruned) != 2 || keep[0] || keep[1] || unknown {
		t.Errorf("pruned = %v, keep = %v, unknown = %v, want both parts refuted", pruned, keep, unknown)
	}

	// A query whose pick binds the view root must never be pruned: the
	// answer embeds the root's full child list.
	qRoot := xmas.MustParse(`r = SELECT X WHERE X:<cat> <item/> </cat>`)
	if keep, pruned, _ := pruneParts(context.Background(), v, qRoot); !keep[0] || !keep[1] || len(pruned) != 0 {
		t.Errorf("root-binding query pruned: keep=%v pruned=%v", keep, pruned)
	}
}

// When every part is pruned the Query path answers through
// engine.EmptyResult without touching any source.
func TestPruneAllPartsAnswersEmpty(t *testing.T) {
	m, fsA, fsB := newLibMediator(t)
	v, err := m.View("cat")
	if err != nil {
		t.Fatal(err)
	}
	// Force the static-unsatisfiable path for both parts: the merged union
	// DTD still admits items, so the simplifier cannot catch the query
	// first and the all-parts-pruned branch is exercised.
	for i := range v.Parts {
		v.Parts[i].Class = infer.Unsatisfiable
	}
	q := xmas.MustParse(`r = SELECT X WHERE <cat> X:<item/> </cat>`)
	doc, qs, err := m.Query(context.Background(), "cat", q)
	if err != nil {
		t.Fatal(err)
	}
	if fsA.Fetches() != 0 || fsB.Fetches() != 0 {
		t.Errorf("all-pruned query fetched sources: A=%d B=%d", fsA.Fetches(), fsB.Fetches())
	}
	if len(qs.PrunedSources) != 2 {
		t.Errorf("PrunedSources = %v, want both", qs.PrunedSources)
	}
	if doc.DocType != "r" || doc.Root.Name != "r" || len(doc.Root.Children) != 0 {
		t.Errorf("all-pruned answer is not the canonical empty result: %+v", doc)
	}
}

// The unsatisfiable fast path (simplifier proves the whole query empty)
// must produce a document bit-identical to what the raw evaluation yields
// on zero matches — root name, doctype and all.
func TestUnsatFastPathMatchesUnsimplified(t *testing.T) {
	m, _, fsB := newLibMediator(t)
	q := xmas.MustParse(`r = SELECT X WHERE <cat> X:<item><shelf/></item> </cat>`)
	ctx := context.Background()
	fast, qs, err := m.Query(ctx, "cat", q)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.SkippedUnsatisfiable {
		t.Fatal("simplifier did not prove the shelf query unsatisfiable")
	}
	if got := fsB.Fetches(); got != 0 {
		t.Errorf("unsat fast path fetched libB %d times", got)
	}
	slow, err := m.QueryUnsimplified(ctx, "cat", q)
	if err != nil {
		t.Fatal(err)
	}
	if fast.DocType != slow.DocType {
		t.Errorf("doctype: fast %q, slow %q", fast.DocType, slow.DocType)
	}
	if !fast.Root.Equal(slow.Root) {
		t.Errorf("fast path result differs from raw evaluation:\nfast: %v\nslow: %v", fast.Root, slow.Root)
	}
}

// Property: for a spread of user queries, a pruning mediator and a
// non-pruning mediator over identical sources return equal answers — and
// the run is non-vacuous (some queries actually pruned).
func TestPruneEquivalence(t *testing.T) {
	mOn, _, _ := newLibMediator(t)
	mOff, _, _ := newLibMediator(t)
	mOff.SetPruning(false)
	queries := []string{
		`r = SELECT X WHERE <cat> X:<item><book/></item> </cat>`,
		`r = SELECT X WHERE <cat> X:<item><disc/></item> </cat>`,
		`r = SELECT X WHERE <cat> X:<item/> </cat>`,
		`r = SELECT X WHERE <cat> X:<item> [<book/>] </item> </cat>`,
		`r = SELECT X WHERE <cat> X:<item> [<disc/>] </item> </cat>`,
		`r = SELECT X WHERE <cat> X:<item><shelf/></item> </cat>`,
		`r = SELECT X WHERE <cat> X:<item><book/><disc/></item> </cat>`,
		`r = SELECT B WHERE <cat> <item> B:<book/> </item> </cat>`,
		`r = SELECT B WHERE <cat> <item> B:<disc/> </item> </cat>`,
		`r = SELECT X WHERE X:<cat> <item/> </cat>`,
	}
	ctx := context.Background()
	for _, text := range queries {
		q := xmas.MustParse(text)
		on, _, err := mOn.Query(ctx, "cat", q)
		if err != nil {
			t.Fatalf("%s: pruning mediator: %v", text, err)
		}
		off, _, err := mOff.Query(ctx, "cat", q)
		if err != nil {
			t.Fatalf("%s: baseline mediator: %v", text, err)
		}
		if !on.Root.Equal(off.Root) {
			t.Errorf("%s: answers differ\npruned:   %v\nunpruned: %v", text, on.Root, off.Root)
		}
	}
	if st := mOn.Stats(); st.PartsPruned == 0 {
		t.Error("vacuous run: no part was ever pruned")
	}
	if st := mOff.Stats(); st.PartsPruned != 0 {
		t.Errorf("non-pruning mediator pruned %d parts", st.PartsPruned)
	}
}

// benchLibMediator spreads the catalog over one book source and five disc
// sources: a book query prunes 5 of 6 fetch plans.
func benchLibMediator(b *testing.B) *Mediator {
	b.Helper()
	m := New("libs")
	d1, err := dtd.Parse(libADTDText)
	if err != nil {
		b.Fatal(err)
	}
	docA, _, err := xmlmodel.Parse(libADocText)
	if err != nil {
		b.Fatal(err)
	}
	srcA, err := NewStaticSource("libA", docA, d1)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddSource(srcA); err != nil {
		b.Fatal(err)
	}
	part := xmas.MustParse(`SELECT I WHERE <library> I:<item/> </library>`)
	parts := []ViewPart{{Source: "libA", Query: part}}
	d2, err := dtd.Parse(libBDTDText)
	if err != nil {
		b.Fatal(err)
	}
	docB, _, err := xmlmodel.Parse(libBDocText)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"d1", "d2", "d3", "d4", "d5"} {
		src, err := NewStaticSource(name, docB, d2)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.AddSource(src); err != nil {
			b.Fatal(err)
		}
		parts = append(parts, ViewPart{Source: name, Query: part})
	}
	if _, err := m.DefineUnionView("cat", parts); err != nil {
		b.Fatal(err)
	}
	return m
}

func benchPruneQuery(b *testing.B, pruning bool) {
	m := benchLibMediator(b)
	m.SetPruning(pruning)
	q := xmas.MustParse(qBooksText)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate() // force a real materialization each round
		if _, _, err := m.Query(ctx, "cat", q); err != nil {
			b.Fatal(err)
		}
	}
}

// Cold = pruning off (every source fetched each query); Warm = pruning on
// (five of six sources skipped). cmd/benchjson pairs the two by name.
func BenchmarkPruneUnionQueryCold(b *testing.B) { benchPruneQuery(b, false) }
func BenchmarkPruneUnionQueryWarm(b *testing.B) { benchPruneQuery(b, true) }
