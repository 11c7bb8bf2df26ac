package mediator

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// gatedSource is a wrapper whose Fetch blocks on an optional gate and
// counts its invocations — the instrument for the singleflight and
// stale-write-back tests. Every Fetch parses a fresh document, so two
// evaluations never alias.
type gatedSource struct {
	dtd     *dtd.DTD
	entered chan struct{} // closed when the first Fetch begins
	gate    chan struct{} // Fetch blocks until closed (nil = open)
	fetches atomic.Int64
}

func (g *gatedSource) Name() string { return "gated" }

func (g *gatedSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if g.fetches.Add(1) == 1 && g.entered != nil {
		close(g.entered)
	}
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	return doc, err
}

func (g *gatedSource) Schema() *dtd.DTD { return g.dtd }

// sameChildren reports whether two view documents are built from the very
// same cached part results (element identity, not just equal content):
// every materialization gets a fresh root, the elements under it are shared.
func sameChildren(a, b *xmlmodel.Document) bool {
	return len(a.Root.Children) > 0 && slices.Equal(a.Root.Children, b.Root.Children)
}

func newGatedMediator(t *testing.T) (*Mediator, *gatedSource) {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{dtd: d, entered: make(chan struct{}), gate: make(chan struct{})}
	m := New("campus")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("gated", xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	return m, src
}

// TestSingleflightMaterialize asserts that N concurrent cache misses
// evaluate the view exactly once per generation: one leader fetches, the
// followers join its in-flight call, and a second generation (after
// Invalidate) evaluates exactly once more.
func TestSingleflightMaterialize(t *testing.T) {
	m, src := newGatedMediator(t)
	ctx := context.Background()

	const followers = 15
	docs := make([]*xmlmodel.Document, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); docs[0], errs[0] = m.Materialize(ctx, "members") }()
	<-src.entered // the leader is inside Fetch, its in-flight entry registered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); docs[i], errs[i] = m.Materialize(ctx, "members") }(i)
	}
	close(src.gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if !sameChildren(docs[i], docs[0]) {
			t.Fatalf("caller %d got different part results: dedup failed", i)
		}
	}
	if got := src.fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1 (N concurrent misses must evaluate once)", got)
	}
	st := m.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1", st.CacheMisses)
	}
	if st.SingleflightDedups+st.CacheHits != followers {
		t.Errorf("dedups(%d) + hits(%d) != %d followers", st.SingleflightDedups, st.CacheHits, followers)
	}

	// Generation two: the cache is dropped, the next miss evaluates once.
	m.Invalidate()
	if _, err := m.Materialize(ctx, "members"); err != nil {
		t.Fatal(err)
	}
	if got := src.fetches.Load(); got != 2 {
		t.Fatalf("fetches after Invalidate = %d, want 2 (once per generation)", got)
	}
}

// TestLonePartLeaderJoinersAndACancelledReader: a read that leads the one
// part it resolves runs it on its own goroutine, under its own context, and
// the rule is the fan-out's: readers that join it wait for its result under
// their own contexts, one of them cancelled mid-fetch leaves with its
// cancellation and takes nothing from the others, and the rest share the one
// fetch.
func TestLonePartLeaderJoinersAndACancelledReader(t *testing.T) {
	m, src := newGatedMediator(t)
	bg := context.Background()
	const joiners = 3
	docs := make([]*xmlmodel.Document, joiners+1)
	errs := make([]error, joiners+1)
	var wg sync.WaitGroup
	read := func(i int) {
		wg.Add(1)
		go func() { defer wg.Done(); docs[i], errs[i] = m.Materialize(bg, "members") }()
	}
	read(0)
	<-src.entered // the leader is inside Fetch
	for i := 1; i <= joiners; i++ {
		read(i)
	}
	ctx, cancel := context.WithCancel(bg)
	cancelled := make(chan error, 1)
	go func() {
		_, err := m.Materialize(ctx, "members")
		cancelled <- err
	}()
	waitJoined(t, m, joiners+1)
	cancel()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled reader: err = %v, want its cancellation", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled reader still waits for the fetch")
	}
	close(src.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if !sameChildren(docs[i], docs[0]) {
			t.Fatalf("reader %d got other part results than the leader's", i)
		}
	}
	if got := src.fetches.Load(); got != 1 {
		t.Errorf("fetches = %d, want the leader's one", got)
	}
}

// TestInvalidateDiscardsInflightResult is the stale-write-back regression
// test: an Invalidate that lands while a materialization is in flight must
// prevent that (now stale) result from populating the cache — the next
// Materialize has to re-evaluate.
func TestInvalidateDiscardsInflightResult(t *testing.T) {
	m, src := newGatedMediator(t)
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := m.Materialize(ctx, "members")
		done <- err
	}()
	<-src.entered
	m.Invalidate() // the in-flight evaluation is now stale
	close(src.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The stale result must not have been cached: this call re-evaluates.
	if _, err := m.Materialize(ctx, "members"); err != nil {
		t.Fatal(err)
	}
	if got := src.fetches.Load(); got != 2 {
		t.Fatalf("fetches = %d, want 2: the pre-Invalidate result was served from cache (stale write-back)", got)
	}
	if st := m.Stats(); st.StaleDiscards != 1 {
		t.Errorf("stale discards = %d, want 1", st.StaleDiscards)
	}
}

// TestMaterializeFollowerCancellation: a follower whose own context dies
// while the leader is still evaluating gets its context error; the leader
// is unaffected.
func TestMaterializeFollowerCancellation(t *testing.T) {
	m, src := newGatedMediator(t)

	done := make(chan error, 1)
	go func() {
		_, err := m.Materialize(context.Background(), "members")
		done <- err
	}()
	<-src.entered

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := m.Materialize(ctx, "members")
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the follower join the in-flight call
	cancel()
	select {
	case err := <-followerDone:
		if err == nil {
			t.Fatal("canceled follower must fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled follower still blocked on the leader")
	}
	close(src.gate)
	if err := <-done; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// matResult carries one materialization's outcome out of its goroutine.
type matResult struct {
	doc *xmlmodel.Document
	err error
}

// waitJoined blocks until n materialization calls have joined a running
// part computation (joins are counted when they happen, not on return).
func waitJoined(t *testing.T, m *Mediator, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().SingleflightDedups < n {
		if time.Now().After(deadline) {
			t.Fatalf("joins = %d, want %d", m.Stats().SingleflightDedups, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerSurvivesLeaderCancellation: a caller that joined a part
// computation must not inherit the cancellation of the caller running it
// (a hedged request whose other leg won, a client that hung up). The
// leader gets its own cancellation; the follower, whose context is alive,
// computes the part itself.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	m, src := newGatedMediator(t)

	lctx, lcancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := m.Materialize(lctx, "members")
		leaderDone <- err
	}()
	<-src.entered
	followerDone := make(chan matResult, 1)
	go func() {
		doc, err := m.Materialize(context.Background(), "members")
		followerDone <- matResult{doc, err}
	}()
	waitJoined(t, m, 1)

	lcancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want its own cancellation", err)
	}
	close(src.gate)
	got := <-followerDone
	if got.err != nil {
		t.Fatalf("follower inherited the leader's failure: %v", got.err)
	}
	if n := len(got.doc.Root.Children); n != 2 {
		t.Errorf("follower document has %d members, want the complete 2", n)
	}
	if n := src.fetches.Load(); n != 2 {
		t.Errorf("fetches = %d, want 2 (the leader's abandoned one, the follower's own)", n)
	}
}

// failOnRelease is a wrapper whose Fetch blocks until released and then
// fails hard.
type failOnRelease struct {
	dtd     *dtd.DTD
	release chan struct{}
}

func (f *failOnRelease) Name() string { return "failing" }

func (f *failOnRelease) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	select {
	case <-f.release:
		return nil, errFetch
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *failOnRelease) Schema() *dtd.DTD { return f.dtd }

// TestFollowerSurvivesSiblingInducedCancellation is the same defect reached
// without any client going away: caller A's part 1 fails hard, which
// cancels A's own fetch of part 0 — while caller B, whose mask drops part
// 1, is waiting on that very fetch. A fails with the root cause; B's view
// of the world has no failing part and must succeed.
func TestFollowerSurvivesSiblingInducedCancellation(t *testing.T) {
	m, src := newGatedMediator(t)
	failing := &failOnRelease{dtd: src.dtd, release: make(chan struct{})}
	if err := m.AddSource(failing); err != nil {
		t.Fatal(err)
	}
	part := xmas.MustParse(`v = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)
	v, err := m.DefineUnionView("both", []ViewPart{
		{Source: "gated", Query: part}, {Source: "failing", Query: part},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	aDone := make(chan error, 1)
	go func() {
		_, err := m.Materialize(ctx, "both")
		aDone <- err
	}()
	<-src.entered
	bDone := make(chan matResult, 1)
	go func() {
		parts, _, err := m.resolveMasked(ctx, v, []bool{true, false}, nil, "")
		bDone <- matResult{viewDocument(v.Name, parts), err}
	}()
	waitJoined(t, m, 1)

	close(failing.release)
	if err := <-aDone; !errors.Is(err, errFetch) {
		t.Fatalf("A: err = %v, want the root cause %v", err, errFetch)
	}
	close(src.gate)
	got := <-bDone
	if got.err != nil {
		t.Fatalf("B inherited A's sibling-induced cancellation: %v", got.err)
	}
	if n := len(got.doc.Root.Children); n != 2 {
		t.Errorf("B's document has %d members, want part 0's 2", n)
	}
	if n := src.fetches.Load(); n != 2 {
		t.Errorf("gated fetches = %d, want 2 (A's cancelled one, B's own)", n)
	}
}

// TestParallelMaterializeQueryInvalidate hammers a shared mediator from
// many goroutines mixing Query, Materialize, QueryUnsimplified and
// Invalidate — primarily a race-detector workload, with answer-correctness
// asserted throughout.
func TestParallelMaterializeQueryInvalidate(t *testing.T) {
	m := newDeptMediator(t)
	if _, err := m.DefineView("cs-dept", xmas.MustParse(q2Text)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := xmas.MustParse(`profs = SELECT X WHERE <withJournals> X:<professor><publication/></professor> </withJournals>`)

	const workers, iters = 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0:
					doc, err := m.Materialize(ctx, "withJournals")
					if err != nil {
						errc <- err
						return
					}
					if n := len(doc.Root.Children); n != 2 {
						errc <- errFetch
						return
					}
				case 1:
					res, _, err := m.Query(ctx, "withJournals", q)
					if err != nil {
						errc <- err
						return
					}
					if n := len(res.Root.Children); n != 1 {
						errc <- errFetch
						return
					}
				case 2:
					if _, err := m.QueryUnsimplified(ctx, "withJournals", q); err != nil {
						errc <- err
						return
					}
				case 3:
					m.Invalidate()
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	st := m.Stats()
	if st.CacheMisses == 0 || st.Views["withJournals"].Queries == 0 {
		t.Errorf("stats not recorded under load: %+v", st)
	}
}

// TestSimplifierErrorFallback: when SimplifyQuery fails (here: the view
// DTD was corrupted into inconsistency), the query is answered through the
// unsimplified path and the failure is recorded — not silently swallowed
// with zeroed stats.
func TestSimplifierErrorFallback(t *testing.T) {
	m := newDeptMediator(t)
	v, err := m.DefineView("cs-dept", xmas.MustParse(q2Text))
	if err != nil {
		t.Fatal(err)
	}
	delete(v.DTD.Types, v.DTD.Root) // simulate a broken simplifier input
	q := xmas.MustParse(`profs = SELECT X WHERE <withJournals> X:<professor/> </withJournals>`)
	res, stats, err := m.Query(context.Background(), "withJournals", q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimplifierError == "" {
		t.Error("the simplifier failure must be recorded in QueryStats")
	}
	if stats.PrunedConditions != 0 || stats.SkippedUnsatisfiable {
		t.Errorf("fallback stats must be zeroed: %+v", stats)
	}
	base, err := m.QueryUnsimplified(context.Background(), "withJournals", q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Root.Equal(base.Root) {
		t.Error("fallback answer differs from the unsimplified baseline")
	}
	if st := m.Stats(); st.SimplifierErrors != 1 {
		t.Errorf("simplifier errors = %d, want 1", st.SimplifierErrors)
	}
}

// TestSentinelErrors: lookups report ErrUnknownView / ErrUnknownSource
// through the %w chain.
func TestSentinelErrors(t *testing.T) {
	m := newDeptMediator(t)
	if _, err := m.View("nosuch"); !errors.Is(err, ErrUnknownView) {
		t.Errorf("View: %v must wrap ErrUnknownView", err)
	}
	if _, err := m.Materialize(context.Background(), "nosuch"); !errors.Is(err, ErrUnknownView) {
		t.Errorf("Materialize: %v must wrap ErrUnknownView", err)
	}
	if _, err := m.Wrapper("nosuch"); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("Wrapper: %v must wrap ErrUnknownSource", err)
	}
	if _, err := m.DefineView("nosuch", xmas.MustParse(`v = SELECT X WHERE X:<department/>`)); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("DefineView: %v must wrap ErrUnknownSource", err)
	}
}
