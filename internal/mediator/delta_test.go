package mediator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// deptDocN renders a small valid D1 document whose professor is named
// after the source, so part provenance is visible in the answers.
func deptDocN(n int) string {
	return fmt.Sprintf(`<department>
  <name>dept%d</name>
  <professor id="p%d">
    <firstName>Prof%d</firstName><lastName>L</lastName>
    <publication id="pub%d"><title>t</title><author>a</author><journal>J</journal></publication>
    <teaches>c%d</teaches>
  </professor>
  <gradStudent id="g%d">
    <firstName>Grad%d</firstName><lastName>M</lastName>
    <publication id="gp%d"><title>t</title><author>a</author><conference>C</conference></publication>
  </gradStudent>
</department>`, n, n, n, n, n, n, n, n)
}

// newDeltaMediator builds a mediator over nSources fault-counting static
// department sources s0..sN-1 and a union view over all of them.
func newDeltaMediator(t testing.TB, nSources int, view string) (*Mediator, []*FaultSource) {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	m := New("delta")
	var faults []*FaultSource
	var parts []ViewPart
	for i := 0; i < nSources; i++ {
		name := fmt.Sprintf("s%d", i)
		doc, _, err := xmlmodel.Parse(deptDocN(i))
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewStaticSource(name, doc, d)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFaultSource(src) // empty script: counts fetches, injects nothing
		faults = append(faults, fs)
		if err := m.AddSource(fs); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ViewPart{
			Source: name,
			Query:  xmas.MustParse(`v = SELECT X WHERE <department> X:<professor/> </department>`),
		})
	}
	if _, err := m.DefineUnionView(view, parts); err != nil {
		t.Fatal(err)
	}
	return m, faults
}

// setDeltaDoc makes source i of a newDeltaMediator serve the department
// deptDocN(n) from now on: a StaticSource changes by having its Doc replaced,
// never by being written to. The caller invalidates, and runs no read
// meanwhile.
func setDeltaDoc(t testing.TB, faults []*FaultSource, i, n int) {
	t.Helper()
	doc, _, err := xmlmodel.Parse(deptDocN(n))
	if err != nil {
		t.Fatal(err)
	}
	faults[i].inner.(*StaticSource).Doc = doc
}

func fetchCounts(faults []*FaultSource) []int64 {
	out := make([]int64, len(faults))
	for i, f := range faults {
		out[i] = f.Fetches()
	}
	return out
}

// TestInvalidateSourceOnlyRefetchesDependentParts is the delta-maintenance
// contract as a fetch-count differential: after InvalidateSource(s1) only
// s1's part re-fetches; a global Invalidate re-fetches everything.
func TestInvalidateSourceOnlyRefetchesDependentParts(t *testing.T) {
	ctx := context.Background()
	m, faults := newDeltaMediator(t, 3, "all")

	first, err := m.Materialize(ctx, "all")
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchCounts(faults); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("initial fetches = %v, want [1 1 1]", got)
	}

	views, err := m.InvalidateSource("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0] != "all" {
		t.Fatalf("affected views = %v, want [all]", views)
	}
	second, err := m.Materialize(ctx, "all")
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchCounts(faults); got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("fetches after InvalidateSource(s1) = %v, want [1 2 1]", got)
	}

	// Bit-identical to the full rematerialization a global invalidate forces.
	m.Invalidate()
	third, err := m.Materialize(ctx, "all")
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchCounts(faults); got[0] != 2 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("fetches after Invalidate() = %v, want [2 3 2]", got)
	}
	a, bdoc, c := xmlmodel.MarshalElement(first.Root, 0), xmlmodel.MarshalElement(second.Root, 0), xmlmodel.MarshalElement(third.Root, 0)
	if a != bdoc || bdoc != c {
		t.Errorf("answers diverged across invalidation modes:\n%s\n%s\n%s", a, bdoc, c)
	}

	// Parts-reused/recomputed counters saw the delta materialization.
	st := m.Stats()
	if st.SourceInvalidations != 1 {
		t.Errorf("SourceInvalidations = %d, want 1", st.SourceInvalidations)
	}
	if st.PartsReused < 2 {
		t.Errorf("PartsReused = %d, want ≥2 (s0 and s2 served from the part cache)", st.PartsReused)
	}
	if st.PartsRecomputed < 4 {
		t.Errorf("PartsRecomputed = %d, want ≥4", st.PartsRecomputed)
	}
}

func TestInvalidateSourceUnknown(t *testing.T) {
	m, _ := newDeltaMediator(t, 2, "all")
	_, err := m.InvalidateSource("nosuch")
	if !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("err = %v, want ErrUnknownSource", err)
	}
}

// TestInvalidateSourceTransitive stacks a view over another view of the
// same mediator (AsSource) and checks the dependency closure: invalidating
// the base source marks both views stale, and the stacked view's next
// materialization re-fetches through to the base.
func TestInvalidateSourceTransitive(t *testing.T) {
	ctx := context.Background()
	m, faults := newDeltaMediator(t, 2, "lower")
	w, err := m.AsSource("lower")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineUnionView("upper", []ViewPart{{
		Source: w.Name(),
		Query:  xmas.MustParse(`u = SELECT X WHERE <lower> X:<professor/> </lower>`),
	}}); err != nil {
		t.Fatal(err)
	}

	before, err := m.Materialize(ctx, "upper")
	if err != nil {
		t.Fatal(err)
	}
	base := fetchCounts(faults)

	views, err := m.InvalidateSource("s0")
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0] != "lower" || views[1] != "upper" {
		t.Fatalf("affected views = %v, want [lower upper]", views)
	}
	after, err := m.Materialize(ctx, "upper")
	if err != nil {
		t.Fatal(err)
	}
	got := fetchCounts(faults)
	if got[0] != base[0]+1 {
		t.Errorf("s0 fetches %d -> %d, want one re-fetch", base[0], got[0])
	}
	if got[1] != base[1] {
		t.Errorf("s1 fetches %d -> %d, want unchanged (its part is cached)", base[1], got[1])
	}
	if !before.Root.Equal(after.Root) {
		t.Error("stacked answer changed across a content-preserving invalidation")
	}
}

// TestPartCacheSharedAcrossMasks checks that part slots are mask-free: a
// masked (pruned) materialization that evaluated part 0 leaves a part
// result the full materialization reuses without re-fetching — and that
// this is all the mediator keeps, however many masks are served.
func TestPartCacheSharedAcrossMasks(t *testing.T) {
	ctx := context.Background()
	m, faults := newDeltaMediator(t, 2, "all")
	v, err := m.View("all")
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := m.resolveMasked(ctx, v, []bool{true, false}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if got := fetchCounts(faults); got[0] != 1 || got[1] != 0 {
		t.Fatalf("masked fetches = %v, want [1 0]", got)
	}
	if _, err := m.Materialize(ctx, "all"); err != nil {
		t.Fatal(err)
	}
	if got := fetchCounts(faults); got[0] != 1 || got[1] != 1 {
		t.Fatalf("fetches after full materialization = %v, want [1 1] (part 0 reused)", got)
	}

	// Bounded memory: every non-empty mask of a k-part view plus the full
	// view costs one fetch per source and k slots, not one entry per mask.
	const k = 6
	m, faults = newDeltaMediator(t, k, "all")
	if v, err = m.View("all"); err != nil {
		t.Fatal(err)
	}
	slotCount := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		n := 0
		for _, slots := range m.slots {
			n += len(slots)
		}
		return n
	}
	if got := slotCount(); got != k {
		t.Fatalf("slots before any materialization = %d, want %d", got, k)
	}
	masks := func(fn func(mask int, keep []bool)) {
		for mask := 1; mask < 1<<k; mask++ {
			keep := make([]bool, k)
			for i := range keep {
				keep[i] = mask&(1<<i) != 0
			}
			fn(mask, keep)
		}
	}
	masks(func(mask int, keep []bool) {
		if _, _, err := m.resolveMasked(ctx, v, keep, nil, ""); err != nil {
			t.Fatalf("mask %06b: %v", mask, err)
		}
	})
	if _, err := m.Materialize(ctx, "all"); err != nil {
		t.Fatal(err)
	}
	for i, n := range fetchCounts(faults) {
		if n != 1 {
			t.Errorf("s%d fetched %d times over %d masks, want 1", i, n, 1<<k)
		}
	}
	if got := slotCount(); got != k {
		t.Errorf("slots after every mask = %d, want %d", got, k)
	}

	// Under any mask, an invalidation of s0 refetches exactly part 0.
	masks(func(mask int, keep []bool) {
		if _, err := m.InvalidateSource("s0"); err != nil {
			t.Fatal(err)
		}
		before := fetchCounts(faults)
		if _, _, err := m.resolveMasked(ctx, v, keep, nil, ""); err != nil {
			t.Fatalf("mask %06b: %v", mask, err)
		}
		for i, n := range fetchCounts(faults) {
			want := before[i]
			if i == 0 && keep[0] {
				want++
			}
			if n != want {
				t.Errorf("mask %06b after InvalidateSource(s0): s%d fetches %d -> %d, want %d", mask, i, before[i], n, want)
			}
		}
	})
}

// TestInvalidateSourceLeavesOtherViewsCached: a view with no part over the
// invalidated source keeps its materialization.
func TestInvalidateSourceLeavesOtherViewsCached(t *testing.T) {
	ctx := context.Background()
	m, faults := newDeltaMediator(t, 2, "all")
	if _, err := m.DefineUnionView("only0", []ViewPart{{
		Source: "s0",
		Query:  xmas.MustParse(`v = SELECT X WHERE <department> X:<professor/> </department>`),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Materialize(ctx, "only0"); err != nil {
		t.Fatal(err)
	}
	views, err := m.InvalidateSource("s1")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v == "only0" {
			t.Fatalf("only0 does not depend on s1 but was invalidated (affected = %v)", views)
		}
	}
	base := faults[0].Fetches()
	if _, err := m.Materialize(ctx, "only0"); err != nil {
		t.Fatal(err)
	}
	if got := faults[0].Fetches(); got != base {
		t.Errorf("only0 rematerialization fetched s0 (%d -> %d); its cache should have survived", base, got)
	}
}

// A part whose refetch returned the document its slot held is carried over,
// and says so everywhere an operator looks: the source.fetch span is marked
// unchanged, no part.eval span follows it, materialize.delta lists the part
// as revalidated (and still as recomputed), and the counter moves. The part
// that did change reads as it always did.
func TestRevalidatedPartIsTracedAndCounted(t *testing.T) {
	m, faults := newDeltaMediator(t, 2, "all")
	ctx := context.Background()
	first, err := m.Materialize(ctx, "all")
	if err != nil {
		t.Fatal(err)
	}
	setDeltaDoc(t, faults, 1, 5)
	m.Invalidate()
	tracer := obs.NewTracer(2)
	tctx, root := tracer.StartRequest(ctx, new(obs.RequestContext), "test", "")
	second, err := m.Materialize(tctx, "all")
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if second.Root.Children[0] != first.Root.Children[0] || second.Root.Children[1] == first.Root.Children[1] {
		t.Errorf("s0's pick carried over: %v; s1's evaluated anew: %v",
			second.Root.Children[0] == first.Root.Children[0], second.Root.Children[1] != first.Root.Children[1])
	}
	if st := m.Stats(); st.PartsRevalidated != 1 || st.PartsRecomputed != 4 {
		t.Errorf("%d parts revalidated, %d recomputed; want 1 and 4", st.PartsRevalidated, st.PartsRecomputed)
	}
	tr := tracer.Traces(0)[0]
	unchanged, evals := map[string]bool{}, []string{}
	for _, sp := range tr.Spans {
		src := ""
		for _, a := range sp.Attrs {
			if a.Key == "source" {
				src = a.Value
			}
		}
		switch sp.Name {
		case "source.fetch":
			unchanged[src] = slices.Contains(sp.Attrs, obs.Bool("unchanged", true))
		case "part.eval":
			evals = append(evals, src)
		}
	}
	if !unchanged["s0"] || unchanged["s1"] || fmt.Sprint(evals) != "[s1]" {
		t.Errorf("source.fetch unchanged: %v, part.eval spans: %v; want s0 only, and [s1]", unchanged, evals)
	}
	var delta *obs.Event
	for i, ev := range tr.Span("materialize").Events {
		if ev.Name == "materialize.delta" {
			delta = &tr.Span("materialize").Events[i]
		}
	}
	if delta == nil || !slices.Contains(delta.Attrs, obs.String("revalidated", "s0")) || !slices.Contains(delta.Attrs, obs.String("recomputed", "s0,s1")) {
		t.Errorf("materialize.delta: %+v, want revalidated=s0 and recomputed=s0,s1", delta)
	}
}

// A view wider than a trace's span cap (obs: 512) is answered in full and
// traced up to the cap: one materialize span, then source.fetch and part.eval
// spans while there is room, the rest counted as dropped — 2 spans a part
// were opened, so kept + dropped says how many — and none of the kept ones
// hangs from a span that is not in the trace.
func TestWideViewTraceIsCapped(t *testing.T) {
	const parts = 300
	m, _ := newDeltaMediator(t, parts, "wide")
	tracer := obs.NewTracer(1)
	ctx, root := tracer.StartRequest(context.Background(), new(obs.RequestContext), "test", "")
	doc, err := m.Materialize(ctx, "wide")
	root.End()
	if err != nil || len(doc.Root.Children) != parts {
		t.Fatalf("wide view: %v, %d children, want %d", err, len(doc.Root.Children), parts)
	}
	tr := tracer.Traces(0)[0]
	if len(tr.Spans) != 512 || int(tr.DroppedSpans) != 2+2*parts-512 {
		t.Fatalf("%d spans kept, %d dropped; want 512 and %d", len(tr.Spans), tr.DroppedSpans, 2+2*parts-512)
	}
	mat := tr.Span("materialize")
	for _, sp := range tr.Spans {
		if sp.ParentID >= sp.SpanID || (sp.Name != "test" && sp.Name != "materialize" && sp.ParentID != mat.SpanID) {
			t.Fatalf("span %d (%s) hangs from %d", sp.SpanID, sp.Name, sp.ParentID)
		}
	}
	var delta *obs.Event
	for i, ev := range mat.Events {
		if ev.Name == "materialize.delta" {
			delta = &mat.Events[i]
		}
	}
	if delta == nil || len(delta.Attrs) != 3 {
		t.Errorf("materialize.delta must survive the cap: %+v", mat.Events)
	}
}

// A last-known-good document is not the source's answer. When it is the very
// document the slot was evaluated from — a ReplicaSet keeps the one it last
// handed out — the part is still not carried over: it is served stale,
// untagged and uncounted, and is not kept.
func TestStaleServeIsNeverCarried(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDocN(0))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStaticSource("dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected")
	replica := NewFaultSource(src, Fault{}, Fault{Err: boom})
	set, err := NewReplicaSet("dept", []Wrapper{replica}, ReplicaSetOptions{HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := New("m")
	if err := m.AddSource(set); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("dept", xmas.MustParse(`v = SELECT X WHERE <department> X:<professor/> </department>`)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, live, err := m.MaterializeInfo(ctx, "v")
	if err != nil || live.Tag == "" {
		t.Fatalf("live read: %+v, %v", live, err)
	}
	m.Invalidate()
	_, stale, err := readDocument(ctx, m, "v", live.Tag)
	if err != nil || len(stale.StaleSources) != 1 || stale.Tag != "" || stale.NotModified {
		t.Fatalf("read while the replica fails: %+v, %v; want a stale, untagged document", stale, err)
	}
	if st := m.Stats(); st.PartsRevalidated != 0 || st.StaleServes != 1 {
		t.Errorf("%d parts revalidated, %d stale serves; want 0 and 1", st.PartsRevalidated, st.StaleServes)
	}
	// The replica is back with the same document: the stale result was not
	// kept, so there is nothing to carry — the part is evaluated, at the
	// invalidation's generation.
	_, back, err := m.MaterializeInfo(ctx, "v")
	if err != nil || len(back.StaleSources) != 0 || !strings.HasSuffix(back.Tag, `-1"`) {
		t.Errorf("read after the replica came back: %+v, %v", back, err)
	}
}

// The InvalidateMix benchmarks price one invalidation and the
// materialization after it, three ways. Cold is the pre-delta refresh story:
// a global invalidate over sources that all changed, so every part is
// refetched and evaluated again. Warm invalidates one rotating source, which
// changed — the traffic InvalidateSource is built for. Unchanged is Cold over
// sources that did not change: every refetch returns the document its slot
// holds and every result is carried over. A source changes by alternating
// between two parsed copies of its document: what tells a refetch that it
// must evaluate is the document's identity. The allocations of these paths
// are pinned by TestNoOpInvalidationAllocations,
// TestRefreshedPartAllocatesOneTree and TestRefetchOfUnchangedBytesAllocations.
func benchmarkInvalidateMix(b *testing.B, cycle func(m *Mediator, flip func(src int), i int) error) {
	ctx := context.Background()
	m, faults := newDeltaMediator(b, 8, "all")
	docs := make([][2]*xmlmodel.Document, len(faults))
	for s, f := range faults {
		src := f.inner.(*StaticSource)
		other, _, err := xmlmodel.Parse(deptDocN(s))
		if err != nil {
			b.Fatal(err)
		}
		docs[s] = [2]*xmlmodel.Document{src.Doc, other}
	}
	flips := make([]int, len(faults))
	flip := func(s int) {
		flips[s]++
		faults[s].inner.(*StaticSource).Doc = docs[s][flips[s]%2]
	}
	if _, err := m.Materialize(ctx, "all"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(m, flip, i); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Materialize(ctx, "all"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvalidateMixCold(b *testing.B) {
	benchmarkInvalidateMix(b, func(m *Mediator, flip func(int), i int) error {
		for s := 0; s < 8; s++ {
			flip(s)
		}
		m.Invalidate()
		return nil
	})
}

func BenchmarkInvalidateMixWarm(b *testing.B) {
	benchmarkInvalidateMix(b, func(m *Mediator, flip func(int), i int) error {
		flip(i % 8)
		_, err := m.InvalidateSource(fmt.Sprintf("s%d", i%8))
		return err
	})
}

func BenchmarkInvalidateMixUnchanged(b *testing.B) {
	benchmarkInvalidateMix(b, func(m *Mediator, flip func(int), i int) error {
		m.Invalidate()
		return nil
	})
}

// newStack builds three mediators on top of one another in one process: the
// bottom one is a newDeltaMediator over three sources, each upper one has
// the view below it as its only source (AsSource) and picks its professors.
func newStack(t testing.TB) (levels [3]*Mediator, views [3]string, faults []*FaultSource) {
	t.Helper()
	levels[0], faults = newDeltaMediator(t, 3, "low")
	views = [3]string{"low", "mid", "top"}
	for i := 1; i < 3; i++ {
		below, err := levels[i-1].AsSource(views[i-1])
		if err != nil {
			t.Fatal(err)
		}
		levels[i] = New(views[i])
		if err := levels[i].AddSource(below); err != nil {
			t.Fatal(err)
		}
		def := fmt.Sprintf(`%s = SELECT X WHERE <%s> X:<professor/> </%s>`, views[i], views[i-1], views[i-1])
		if _, err := levels[i].DefineView(below.Name(), xmas.MustParse(def)); err != nil {
			t.Fatal(err)
		}
	}
	return levels, views, faults
}

// A stacked mediator obeys the identity rule: the view below hands out the
// document it handed out last while its tag holds, so an invalidation at the
// bottom that changed nothing is answered, level by level, by refetches that
// find their document — no part is evaluated and no query is asked again,
// anywhere in the stack. One that did change a source evaluates, at every
// level, exactly the part that holds it.
func TestStackedInvalidationEvaluatesOnlyWhatChanged(t *testing.T) {
	levels, views, faults := newStack(t)
	ask := func(i int) (string, []string) {
		t.Helper()
		tracer := obs.NewTracer(1)
		ctx, root := tracer.StartRequest(context.Background(), new(obs.RequestContext), "test", "")
		q := fmt.Sprintf(`r = SELECT P WHERE <%s> P:<professor><teaches/></professor> </%s>`, views[i], views[i])
		res, _, err := levels[i].Query(ctx, views[i], xmas.MustParse(q))
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		var evals []string
		for _, sp := range tracer.Traces(0)[0].Spans {
			if sp.Name == "part.eval" {
				evals = append(evals, sp.Attrs[0].Value)
			}
		}
		return xmlmodel.MarshalElement(res.Root, 0), evals
	}
	invalidateUp := func() {
		t.Helper()
		if _, err := levels[0].InvalidateSource("s1"); err != nil {
			t.Fatal(err)
		}
		levels[1].Invalidate()
		levels[2].Invalidate()
	}
	var first [3]string
	for i := range levels {
		first[i], _ = ask(i)
	}
	evaluated := func() (n [3]int64) {
		for i, m := range levels {
			n[i] = m.Stats().AnswerPartsEvaluated
		}
		return n
	}
	before := evaluated()

	invalidateUp()
	for i := 2; i >= 0; i-- { // the top first: its read is the one that walks the whole stack
		if got, evals := ask(i); got != first[i] || len(evals) != 0 {
			t.Errorf("level %d after a no-op invalidation: part.eval spans %v, same answer %v; want none and true", i, evals, got == first[i])
		}
	}
	if after := evaluated(); after != before {
		t.Errorf("answers evaluated per level %v → %v after a no-op invalidation, want no move", before, after)
	}
	if got := fetchCounts(faults); got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("fetches %v, want [1 2 1]: the question did reach the bottom", got)
	}

	setDeltaDoc(t, faults, 1, 77)
	invalidateUp()
	got, evals := ask(2)
	if want := []string{"s1", "delta/low", "mid/mid"}; !slices.Equal(evals, want) || !strings.Contains(got, "Prof77") {
		t.Errorf("after s1 changed: part.eval spans %v, want %v, one per level; answer %s", evals, want, got)
	}
	if after := evaluated(); after[2] != before[2]+1 {
		t.Errorf("the top level evaluated %d answers, want 1", after[2]-before[2])
	}
}

// BenchmarkStackedInvalidateUnchanged prices InvalidateMixUnchanged through
// a three-level in-process stack: every level is asked again and every level
// finds the document it held.
func BenchmarkStackedInvalidateUnchanged(b *testing.B) {
	ctx := context.Background()
	levels, views, _ := newStack(b)
	if _, err := levels[2].Materialize(ctx, views[2]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range levels {
			m.Invalidate()
		}
		if _, err := levels[2].Materialize(ctx, views[2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i, m := range levels {
		if st := m.Stats(); st.PartsRevalidated != st.PartsRecomputed-int64(len(m.Sources())) {
			b.Errorf("level %d: %d of %d refetched parts revalidated; only the first materialization evaluates", i, st.PartsRevalidated, st.PartsRecomputed)
		}
	}
}
