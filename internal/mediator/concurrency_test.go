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
