package mediator

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// testClock is an injectable, race-safe clock for driving breaker state
// transitions without sleeping.
type testClock struct{ nanos atomic.Int64 }

func (c *testClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *testClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// TestBreakerStateMachine walks the full closed → open → half-open cycle
// with an injected clock: threshold counting, cooldown rejections, the
// single-probe discipline, probe failure re-opening, probe success
// closing.
func TestBreakerStateMachine(t *testing.T) {
	clk := &testClock{}
	b := NewBreaker(BreakerOptions{Threshold: 3, Cooldown: time.Minute, Clock: clk.Now})

	// Two failures: still closed.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d: %v", i, err)
		}
		b.Record(true)
	}
	if err := b.Allow(); err != nil {
		t.Fatal("breaker must stay closed below the threshold")
	}
	b.Record(true) // third consecutive failure: trips
	if got := b.Trips(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}

	// Open: rejected without touching the source until the cooldown.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed a call (err = %v)", err)
	}
	if got := b.Rejections(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}

	// Cooldown elapsed: exactly one probe goes through.
	clk.Advance(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker must allow one probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second caller must not join the half-open probe")
	}

	// Probe fails: back to open, cooldown restarts.
	b.Record(true)
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips = %d, want 2 after a failed probe", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("failed probe must re-open the breaker")
	}

	// Next probe succeeds: closed, failure count reset.
	clk.Advance(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after second cooldown: %v", err)
	}
	b.Record(false)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call: %v", err)
		}
		b.Record(true)
	}
	if err := b.Allow(); err != nil {
		t.Fatal("failure count must have been reset by the successful probe")
	}
}

// hangSource blocks until the caller's context is cancelled.
type hangSource struct{ inner *StaticSource }

func (s *hangSource) Name() string     { return s.inner.Name() }
func (s *hangSource) Schema() *dtd.DTD { return s.inner.Schema() }
func (s *hangSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestBreakerIgnoresCallerCancellation: a fetch that failed because the
// caller went away says nothing about the source's health and must not
// trip the breaker.
func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	bs := NewBreakerSource(&hangSource{inner: staticDeptSource(t)},
		BreakerOptions{Threshold: 1, Cooldown: time.Minute})
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		if _, err := bs.Fetch(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("fetch %d: err = %v, want the context deadline", i, err)
		}
		cancel()
	}
	if got := bs.BreakerTrips(); got != 0 {
		t.Fatalf("trips = %d; caller cancellations must not count against the source", got)
	}
	// The breaker is still closed: a real fetch (immediately-done inner)
	// would be allowed.
	if err := bs.Breaker().Allow(); err != nil {
		t.Fatalf("breaker must still be closed: %v", err)
	}
}

// flakySource fails on demand, so tests can kill and heal a source.
type flakySource struct {
	inner *StaticSource

	mu      sync.Mutex
	failing bool
}

func (s *flakySource) setFailing(v bool) {
	s.mu.Lock()
	s.failing = v
	s.mu.Unlock()
}

func (s *flakySource) Name() string     { return s.inner.Name() }
func (s *flakySource) Schema() *dtd.DTD { return s.inner.Schema() }
func (s *flakySource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	s.mu.Lock()
	failing := s.failing
	s.mu.Unlock()
	if failing {
		return nil, errors.New("site unreachable")
	}
	return s.inner.Fetch(ctx)
}

// breakerScenario wires a union view over a healthy department source and
// a breaker-guarded flaky twin, registered as wrap makes it (nil: as is).
func breakerScenario(t *testing.T, wrap func(Wrapper) Wrapper) (*Mediator, *flakySource, *BreakerSource, *testClock) {
	t.Helper()
	m := newDeptMediator(t)
	inner := staticDeptSource(t)
	inner.SourceName = "remote-dept"
	flaky := &flakySource{inner: inner}
	clk := &testClock{}
	bs := NewBreakerSource(flaky, BreakerOptions{Threshold: 1, Cooldown: time.Minute, Clock: clk.Now})
	var registered Wrapper = bs
	if wrap != nil {
		registered = wrap(bs)
	}
	if err := m.AddSource(registered); err != nil {
		t.Fatal(err)
	}
	profQ := `SELECT X WHERE <department> X:<professor/> </department>`
	if _, err := m.DefineUnionView("allProfs", []ViewPart{
		{Source: "cs-dept", Query: xmas.MustParse(profQ)},
		{Source: "remote-dept", Query: xmas.MustParse(profQ)},
	}); err != nil {
		t.Fatal(err)
	}
	return m, flaky, bs, clk
}

// TestUnionViewDegradesOnOpenBreaker: with the breaker open, the dead
// source's parts are dropped — the view materializes degraded instead of
// failing — the degraded document is never cached, and completeness (plus
// caching) returns once the source heals and the probe succeeds. A decorator
// above the breaker changes none of it, nor hides the breaker's counters.
func TestUnionViewDegradesOnOpenBreaker(t *testing.T) {
	t.Run("registered", func(t *testing.T) { testDegradesOnOpenBreaker(t, nil) })
	t.Run("under a FaultSource", func(t *testing.T) {
		testDegradesOnOpenBreaker(t, func(w Wrapper) Wrapper { return NewFaultSource(w) })
	})
}

func testDegradesOnOpenBreaker(t *testing.T, wrap func(Wrapper) Wrapper) {
	m, flaky, bs, clk := breakerScenario(t, wrap)
	ctx := context.Background()
	flaky.setFailing(true)

	// Breaker still closed: the failure propagates and the view fails.
	if _, _, err := m.MaterializeInfo(ctx, "allProfs"); err == nil {
		t.Fatal("first materialization must fail (breaker not yet open)")
	}

	// Breaker open now (threshold 1): the view degrades instead.
	doc, info, err := m.MaterializeInfo(ctx, "allProfs")
	if err != nil {
		t.Fatalf("open-breaker materialization must degrade, not fail: %v", err)
	}
	if !info.Degraded {
		t.Fatal("info.Degraded must be set")
	}
	if len(info.DegradedSources) != 1 || info.DegradedSources[0] != "remote-dept" {
		t.Fatalf("degraded sources = %v, want [remote-dept]", info.DegradedSources)
	}
	if n := len(doc.Root.Children); n != 1 {
		t.Fatalf("degraded view has %d professors, want 1 (the healthy source's)", n)
	}

	// Degraded documents are not cached: the next call materializes again.
	if _, info2, err := m.MaterializeInfo(ctx, "allProfs"); err != nil || !info2.Degraded {
		t.Fatalf("repeat = %+v, %v; must still be a degraded materialization", info2, err)
	}
	st := m.Stats()
	if st.CacheHits != 0 {
		t.Errorf("cache hits = %d; degraded documents must never be cached", st.CacheHits)
	}
	if st.DegradedMaterializations != 2 {
		t.Errorf("degraded materializations = %d, want 2", st.DegradedMaterializations)
	}
	if st.BreakerTrips < 1 || st.BreakerRejections < 2 {
		t.Errorf("trips/rejections = %d/%d, want >=1/>=2", st.BreakerTrips, st.BreakerRejections)
	}
	if st.BreakerTrips != bs.BreakerTrips() || st.BreakerRejections != bs.BreakerRejections() {
		t.Errorf("trips/rejections = %d/%d in Stats, %d/%d in the breaker",
			st.BreakerTrips, st.BreakerRejections, bs.BreakerTrips(), bs.BreakerRejections())
	}

	// Heal the source, pass the cooldown: the probe succeeds and the view
	// is complete — and cacheable — again.
	flaky.setFailing(false)
	clk.Advance(time.Minute)
	doc, info, err = m.MaterializeInfo(ctx, "allProfs")
	if err != nil || info.Degraded {
		t.Fatalf("healed materialization = %+v, %v; want complete", info, err)
	}
	if n := len(doc.Root.Children); n != 2 {
		t.Fatalf("healed view has %d professors, want 2", n)
	}
	if _, info, err = m.MaterializeInfo(ctx, "allProfs"); err != nil || info.Degraded {
		t.Fatalf("cached read = %+v, %v", info, err)
	}
	if st := m.Stats(); st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (complete doc is cached)", st.CacheHits)
	}
}

// gateSource fails on demand and, when healthy, parks every fetch on a
// gate until the test releases it — so a test can hold the half-open
// probe in flight while a crowd of concurrent callers hammers Allow.
type gateSource struct {
	inner   *StaticSource
	failing atomic.Bool
	entered chan struct{} // one signal per fetch that reaches the gate
	release chan struct{}
	fetches atomic.Int64
}

func (s *gateSource) Name() string     { return s.inner.Name() }
func (s *gateSource) Schema() *dtd.DTD { return s.inner.Schema() }
func (s *gateSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	s.fetches.Add(1)
	if s.failing.Load() {
		return nil, errors.New("site down")
	}
	s.entered <- struct{}{}
	<-s.release
	return s.inner.Fetch(ctx)
}

// TestBreakerHalfOpenSingleProbeConcurrent (run under -race): when the
// cooldown elapses and a crowd of concurrent requests arrives at the
// half-open breaker, exactly one becomes the probe and reaches the
// source; every other caller is rejected with ErrBreakerOpen rather than
// joining the probe or racing the state transition.
func TestBreakerHalfOpenSingleProbeConcurrent(t *testing.T) {
	const callers = 20
	clk := &testClock{}
	gate := &gateSource{
		inner:   staticDeptSource(t),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	bs := NewBreakerSource(gate, BreakerOptions{Threshold: 1, Cooldown: time.Minute, Clock: clk.Now})

	// Trip the breaker, then let the cooldown pass: the next Allow is the
	// half-open probe slot.
	gate.failing.Store(true)
	if _, err := bs.Fetch(context.Background()); err == nil {
		t.Fatal("tripping fetch must fail")
	}
	if got := bs.BreakerTrips(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
	gate.failing.Store(false)
	clk.Advance(time.Minute)

	var wg sync.WaitGroup
	var successes, rejections atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch _, err := bs.Fetch(context.Background()); {
			case err == nil:
				successes.Add(1)
			case errors.Is(err, ErrBreakerOpen):
				rejections.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}

	// One caller is parked at the gate (the probe). Wait for the other
	// callers to drain against the closed probe slot, then let it finish.
	<-gate.entered
	deadline := time.After(5 * time.Second)
	for bs.BreakerRejections() < callers-1 {
		select {
		case <-deadline:
			t.Fatalf("rejections = %d after 5s, want %d", bs.BreakerRejections(), callers-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(gate.release)
	wg.Wait()

	if got := successes.Load(); got != 1 {
		t.Errorf("successes = %d, want exactly the probe", got)
	}
	if got := rejections.Load(); got != callers-1 {
		t.Errorf("rejections = %d, want %d", got, callers-1)
	}
	// Wire truth: the source saw the tripping fetch and one probe — the
	// half-open crowd never reached it.
	if got := gate.fetches.Load(); got != 2 {
		t.Errorf("source fetches = %d, want 2 (trip + single probe)", got)
	}
	// The successful probe closed the breaker.
	if err := bs.Breaker().Allow(); err != nil {
		t.Errorf("breaker must be closed after the probe succeeded: %v", err)
	}
}

// TestQueryReportsDegraded: the Query path must propagate the degraded
// flag of the materialization it ran against into QueryStats.
func TestQueryReportsDegraded(t *testing.T) {
	m, flaky, _, _ := breakerScenario(t, nil)
	ctx := context.Background()
	flaky.setFailing(true)
	if _, _, err := m.MaterializeInfo(ctx, "allProfs"); err == nil {
		t.Fatal("first materialization must fail")
	}
	q := xmas.MustParse(`profs = SELECT X WHERE <allProfs> X:<professor/> </allProfs>`)
	doc, qs, err := m.Query(ctx, "allProfs", q)
	if err != nil {
		t.Fatalf("query against the degraded view: %v", err)
	}
	if !qs.Degraded {
		t.Fatal("QueryStats.Degraded must be set")
	}
	if len(qs.DegradedSources) != 1 || qs.DegradedSources[0] != "remote-dept" {
		t.Fatalf("degraded sources = %v", qs.DegradedSources)
	}
	if n := len(doc.Root.Children); n != 1 {
		t.Fatalf("degraded query returned %d professors, want 1", n)
	}
}
