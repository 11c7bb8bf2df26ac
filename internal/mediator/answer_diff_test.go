package mediator_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The differential test of answers kept per part: whatever the slots
// remember, Query answers byte for byte what QueryUnsimplified — the whole
// view concatenated and walked, no plan, no memo — answers on a mediator that
// is never asked a query. The fleet is plan_diff_test.go's, one source per
// load family, except that every source has two documents and can be made to
// serve the other; the queries are that file's generator's, over chains of
// both versions of the view, with the shapes that must fall back — a second
// root child condition, a recursive root step, a pick bound at the root —
// among them.

// swapSource serves whichever of its documents it was last told to. A
// document it hands out is never written again: a source changes by serving
// another one.
type swapSource struct {
	name string
	dtd  *dtd.DTD
	docs [2]*xmlmodel.Document
	cur  atomic.Int32
}

func (s *swapSource) Name() string     { return s.name }
func (s *swapSource) Schema() *dtd.DTD { return s.dtd }
func (s *swapSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.docs[s.cur.Load()], nil
}

// swapFleet builds the sources, one per family, each with two documents.
func swapFleet(t *testing.T) []*swapSource {
	t.Helper()
	var out []*swapSource
	for i, f := range load.Families() {
		name := string(f)
		opts := gen.Options{AssignIDs: true, MaxDepth: 6, LengthBias: 0.5, TextPool: []string{"x", "y"}}
		src, err := load.BuildSource(name, load.SourceOptions{
			Schema: load.SchemaOptions{Seed: int64(i + 1), Family: f, Depth: 3, Width: 3}, Gen: opts})
		if err != nil {
			t.Fatal(err)
		}
		opts.Seed = int64(100 + i)
		g, err := gen.New(src.DTD, opts)
		if err != nil {
			t.Fatal(err)
		}
		other := g.Document()
		load.LinkRefs(other, opts.Seed)
		if err := src.DTD.Validate(other); err != nil {
			t.Fatal(err)
		}
		if xmlmodel.MarshalElement(other.Root, -1) == xmlmodel.MarshalElement(src.Doc.Root, -1) {
			t.Fatalf("family %s: the two versions are the same document", f)
		}
		out = append(out, &swapSource{name: name, dtd: src.DTD, docs: [2]*xmlmodel.Document{src.Doc, other}})
	}
	return out
}

// fleetOver defines plan_diff_test.go's union view over the given sources.
func fleetOver(t *testing.T, sources []*swapSource, pruning bool) *mediator.Mediator {
	t.Helper()
	m := mediator.New("fleet")
	m.SetPruning(pruning)
	var parts []mediator.ViewPart
	for _, s := range sources {
		if err := m.AddSource(s); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, mediator.ViewPart{Source: s.name,
			Query: xmas.MustParse(fmt.Sprintf(`SELECT X WHERE <%s> X:<entry/> </%s>`, s.name, s.name))})
	}
	if _, err := m.DefineUnionView(fleetView, parts); err != nil {
		t.Fatal(err)
	}
	return m
}

// fleetQueries generates n distinct queries over chains of the view's
// documents: about one in eight with a recursive root step, one in twelve
// picking the view root itself.
func fleetQueries(t *testing.T, r *rand.Rand, views []*xmlmodel.Document, n int) []*xmas.Query {
	t.Helper()
	var chains [][]*xmlmodel.Element
	names := []string{"absent"}
	for _, view := range views {
		for _, chain := range elementChains(view.Root, 5) {
			chains = append(chains, chain)
			if name := chain[len(chain)-1].Name; !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	var out []*xmas.Query
	seen := map[string]bool{}
	for len(out) < n {
		g := &planQueryGen{r: r, names: names}
		chain := chains[r.Intn(len(chains))]
		if r.Intn(12) == 0 {
			chain = chain[:1]
		}
		q := g.query(chain)
		if q == nil {
			continue
		}
		if q.Root.Recursive = r.Intn(8) == 0; len(q.Validate()) > 0 || seen[q.String()] {
			continue
		}
		seen[q.String()] = true
		out = append(out, q)
	}
	return out
}

func TestAnswersByPartEqualTheNaiveEvaluation(t *testing.T) {
	ctx := context.Background()
	sources := swapFleet(t)
	ref := fleetOver(t, sources, false) // never asked a query: no plan, no memo
	var views []*xmlmodel.Document
	for version := int32(0); version < 2; version++ {
		for _, s := range sources {
			s.cur.Store(version)
		}
		ref.Invalidate()
		view, err := ref.Materialize(ctx, fleetView)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, view)
	}
	subjects := map[string]*mediator.Mediator{"pruning": fleetOver(t, sources, true), "no pruning": fleetOver(t, sources, false)}

	var cov struct{ byPart, twoRootChildren, recursiveRoot, rootPick, nonEmpty, neq, pruned int }
	check := func(when string, q *xmas.Query) {
		t.Helper()
		naive, err := ref.QueryUnsimplified(ctx, fleetView, q.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want := xmlmodel.MarshalElement(naive.Root, -1)
		for which, m := range subjects {
			got, stats, err := m.Query(ctx, fleetView, q.Clone())
			if err != nil {
				t.Fatalf("%s, %s: %v\nquery:\n%s", which, when, err, q)
			}
			if text := xmlmodel.MarshalElement(got.Root, -1); text != want {
				t.Fatalf("%s, %s: the answer differs from the naive evaluation\nquery:\n%s\n got %s\nwant %s", which, when, q, text, want)
			}
			if len(stats.PrunedSources) > 0 {
				cov.pruned++
			}
		}
		if len(naive.Root.Children) > 0 {
			cov.nonEmpty++
		}
	}
	evaluated := func() (n int64) {
		for _, m := range subjects {
			n += m.Stats().AnswerPartsEvaluated
		}
		return n
	}
	for _, q := range fleetQueries(t, rand.New(rand.NewSource(26)), views, 600) {
		switch {
		case q.Root.Recursive:
			cov.recursiveRoot++
		case q.Root.Var == q.PickVar:
			cov.rootPick++
		case len(q.Root.Children) != 1:
			cov.twoRootChildren++
		default:
			cov.byPart++
		}
		if len(q.Neq) > 0 {
			cov.neq++
		}
		check("on a slot that has not seen the query", q)
		before := evaluated()
		check("on a repeat", q)
		if _, err := subjects["pruning"].InvalidateSource(sources[cov.byPart%len(sources)].name); err != nil {
			t.Fatal(err)
		}
		subjects["no pruning"].Invalidate()
		check("after an invalidation that changed nothing", q)
		if after := evaluated(); after != before {
			t.Fatalf("a repeat and a read after a no-op invalidation evaluated %d parts\nquery:\n%s", after-before, q)
		}
		for _, s := range sources { // each single part changes in turn, and stays changed
			s.cur.Store(1 - s.cur.Load())
			ref.Invalidate()
			for _, m := range subjects {
				if _, err := m.InvalidateSource(s.name); err != nil {
					t.Fatal(err)
				}
			}
			before := evaluated()
			check("after "+s.name+" changed", q)
			if after := evaluated(); after-before > int64(len(subjects)) {
				t.Fatalf("after %s alone changed, %d parts were evaluated by %d mediators\nquery:\n%s", s.name, after-before, len(subjects), q)
			}
		}
	}
	for what, n := range map[string]int{
		"queries answered part by part": cov.byPart, "root conditions with several children": cov.twoRootChildren,
		"recursive root steps": cov.recursiveRoot, "picks bound at the root": cov.rootPick,
		"non-empty answers": cov.nonEmpty, "queries with !=": cov.neq, "answers with a pruned source": cov.pruned,
	} {
		if n < 5 {
			t.Errorf("vacuous: only %d %s (%+v)", n, what, cov)
		}
	}
	if n := evaluated(); n == 0 {
		t.Error("vacuous: no part was ever evaluated for an answer")
	}
}

// Readers of one plan race invalidations of a source that alternates between
// its two documents: every answer is the naive answer over one of the two,
// whatever the memos held when it was put together. (Run under -race: the
// memos are written by whichever reader evaluates first.)
func TestConcurrentReadersGetOneOfTheTwoVersions(t *testing.T) {
	ctx := context.Background()
	sources := swapFleet(t)
	m := fleetOver(t, sources, true)
	changing := sources[2]
	queries := []*xmas.Query{
		xmas.MustParse(`r = SELECT X WHERE <fleet> X:<entry/> </fleet>`),
		xmas.MustParse(`r = SELECT N WHERE <fleet> <entry> N:<name/> </entry> </fleet>`),
	}
	admissible := make([]map[string]bool, len(queries))
	for i, q := range queries {
		admissible[i] = map[string]bool{}
		for version := int32(0); version < 2; version++ {
			changing.cur.Store(version)
			naive, err := fleetOver(t, sources, false).QueryUnsimplified(ctx, fleetView, q)
			if err != nil {
				t.Fatal(err)
			}
			admissible[i][xmlmodel.MarshalElement(naive.Root, -1)] = true
		}
		if len(admissible[i]) != 2 {
			t.Fatalf("vacuous: query %d answers the same over both versions", i)
		}
	}

	var wg sync.WaitGroup
	var reads atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			for seen := reads.Load(); reads.Load() < seen+2 && !t.Failed(); { // let a read or two see every version
				runtime.Gosched()
			}
			changing.cur.Store(int32(i % 2))
			if i%7 == 0 {
				m.Invalidate()
			} else if _, err := m.InvalidateSource(changing.name); err != nil {
				t.Error(err)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				which := (r + i) % len(queries)
				got, _, err := m.Query(ctx, fleetView, queries[which].Clone())
				if err != nil {
					t.Error(err)
					return
				}
				if text := xmlmodel.MarshalElement(got.Root, -1); !admissible[which][text] {
					t.Errorf("reader %d, read %d: query %d's answer is neither version's", r, i, which)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	wg.Wait()
	// And once nothing moves any more, the answer is the current version's.
	for i, q := range queries {
		naive, err := fleetOver(t, sources, false).QueryUnsimplified(ctx, fleetView, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := m.Query(ctx, fleetView, q.Clone()); err != nil || xmlmodel.MarshalElement(got.Root, -1) != xmlmodel.MarshalElement(naive.Root, -1) {
			t.Errorf("query %d after the last invalidation: not the answer over the documents now served (%v)", i, err)
		}
	}
	if st := m.Stats(); st.AnswerPartsEvaluated < 50 || st.AnswerPartsReused < 50 {
		t.Errorf("vacuous: %d reads, %d parts evaluated, %d reused", reads.Load(), st.AnswerPartsEvaluated, st.AnswerPartsReused)
	}
}
