package mediator

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// replicaStub is a controllable replica: it can be told to fail, to delay
// (honoring the caller's context), or to return an arbitrary document,
// and it counts fetches.
type replicaStub struct {
	name  string
	inner *StaticSource

	mu      sync.Mutex
	failing bool
	delay   time.Duration
	doc     *xmlmodel.Document // overrides the inner document when set

	fetches atomic.Int64
}

func newReplicaStub(t *testing.T, name string) *replicaStub {
	t.Helper()
	return &replicaStub{name: name, inner: staticDeptSource(t)}
}

func (s *replicaStub) set(failing bool, delay time.Duration) {
	s.mu.Lock()
	s.failing = failing
	s.delay = delay
	s.mu.Unlock()
}

func (s *replicaStub) Name() string     { return s.name }
func (s *replicaStub) Schema() *dtd.DTD { return s.inner.Schema() }

func (s *replicaStub) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	s.fetches.Add(1)
	s.mu.Lock()
	failing, delay, doc := s.failing, s.delay, s.doc
	s.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if failing {
		return nil, errors.New(s.name + " unreachable")
	}
	if doc != nil {
		return doc, nil
	}
	return s.inner.Fetch(ctx)
}

// fetchNoted fetches from w as the mediator does — under a stale note — and
// returns the note beside the result.
func fetchNoted(ctx context.Context, w Wrapper) (*xmlmodel.Document, bool, error) {
	ctx, stale := WithStaleNote(ctx)
	doc, err := w.Fetch(ctx)
	return doc, stale.Load(), err
}

// TestReplicaSetRejectsMismatchedDTD: replicas must be interchangeable —
// a replica whose DTD describes a different document language is rejected
// at registration, by name.
func TestReplicaSetRejectsMismatchedDTD(t *testing.T) {
	a := newReplicaStub(t, "r0")
	other, err := dtd.Parse(remoteDTD) // members, not department
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(remoteDoc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStaticSource("r1", doc, other)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewReplicaSet("dept", []Wrapper{a, b}, ReplicaSetOptions{})
	if err == nil {
		t.Fatal("mismatched replica DTD must be rejected")
	}
	if !strings.Contains(err.Error(), "r1") {
		t.Errorf("err = %v, must name the offending replica", err)
	}
	if _, err := NewReplicaSet("dept", nil, ReplicaSetOptions{}); err == nil {
		t.Fatal("empty replica set must be rejected")
	}
}

// TestReplicaSetFailover: when the primary fails, the next-healthiest
// replica is tried (spending a budget token) and the fetch succeeds; the
// failed replica is demoted to suspect and sorts last on the next fetch.
func TestReplicaSetFailover(t *testing.T) {
	a, b := newReplicaStub(t, "r0"), newReplicaStub(t, "r1")
	a.set(true, 0)
	rs, err := NewReplicaSet("dept", []Wrapper{a, b}, ReplicaSetOptions{HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	doc, stale, err := fetchNoted(context.Background(), rs)
	if err != nil || stale {
		t.Fatalf("fetch = stale=%v, %v; want a live failover success", stale, err)
	}
	if doc.Root.Name != "department" {
		t.Errorf("root = %q", doc.Root.Name)
	}
	st := rs.ReplicaStatus()
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
	if st.BudgetSpent != 1 {
		t.Errorf("budget spent = %d, want 1 (the failover)", st.BudgetSpent)
	}
	if st.Replicas[0].State != "suspect" || st.Replicas[1].State != "healthy" {
		t.Errorf("states = %v", st.Replicas)
	}

	// Next fetch goes straight to the healthy replica: suspect sorts last.
	before := b.fetches.Load()
	if _, _, err := fetchNoted(context.Background(), rs); err != nil {
		t.Fatal(err)
	}
	if b.fetches.Load() != before+1 {
		t.Error("healthy replica must be preferred over the suspect one")
	}
	if a.fetches.Load() != 1 {
		t.Errorf("suspect replica fetched %d times, want 1", a.fetches.Load())
	}
}

// TestReplicaSetHedgeWins: a slow primary triggers a hedged read at the
// next replica after the hedge delay; the hedge's answer wins and the
// fetch returns far sooner than the primary would have.
func TestReplicaSetHedgeWins(t *testing.T) {
	a, b := newReplicaStub(t, "r0"), newReplicaStub(t, "r1")
	a.set(false, 2*time.Second)
	rs, err := NewReplicaSet("dept", []Wrapper{a, b}, ReplicaSetOptions{HedgeDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	doc, stale, err := fetchNoted(context.Background(), rs)
	if err != nil || stale {
		t.Fatalf("fetch = stale=%v, %v", stale, err)
	}
	if doc.Root.Name != "department" {
		t.Errorf("root = %q", doc.Root.Name)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged fetch took %v; the hedge must win long before the slow primary", elapsed)
	}
	st := rs.ReplicaStatus()
	if st.HedgedFetches != 1 || st.HedgeWins != 1 {
		t.Errorf("hedged/wins = %d/%d, want 1/1", st.HedgedFetches, st.HedgeWins)
	}
	if st.BudgetSpent != 1 {
		t.Errorf("budget spent = %d, want 1 (the hedge)", st.BudgetSpent)
	}
}

// TestReplicaSetHedgeDeniedWhenBudgetDry: a dry retry budget suppresses
// the hedge (counted, not blocking) — the fetch still completes on the
// primary.
func TestReplicaSetHedgeDeniedWhenBudgetDry(t *testing.T) {
	a, b := newReplicaStub(t, "r0"), newReplicaStub(t, "r1")
	a.set(false, 50*time.Millisecond)
	fixed := time.Unix(1, 0)
	budget := NewRetryBudget(RetryBudgetOptions{
		Capacity: 1, RefillPerSecond: 1, Clock: func() time.Time { return fixed },
	})
	if !budget.Allow() {
		t.Fatal("draining the bucket must succeed")
	}
	rs, err := NewReplicaSet("dept", []Wrapper{a, b}, ReplicaSetOptions{
		HedgeDelay: 5 * time.Millisecond,
		Budget:     budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, stale, err := fetchNoted(context.Background(), rs)
	if err != nil || stale || doc == nil {
		t.Fatalf("fetch = %v, stale=%v, %v", doc, stale, err)
	}
	st := rs.ReplicaStatus()
	if st.HedgedFetches != 0 || st.HedgesDenied != 1 {
		t.Errorf("hedged/denied = %d/%d, want 0/1", st.HedgedFetches, st.HedgesDenied)
	}
	if b.fetches.Load() != 0 {
		t.Errorf("secondary fetched %d times despite the dry budget", b.fetches.Load())
	}
}

// TestReplicaSetStaleServing: when every replica fails, the last known
// good document is served with the stale marker; with stale serving
// disabled (or before any success) the fetch fails instead.
func TestReplicaSetStaleServing(t *testing.T) {
	a, b := newReplicaStub(t, "r0"), newReplicaStub(t, "r1")
	rs, err := NewReplicaSet("dept", []Wrapper{a, b}, ReplicaSetOptions{HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}

	// No last known good yet: a total outage is an error.
	a.set(true, 0)
	b.set(true, 0)
	if _, _, err := fetchNoted(context.Background(), rs); err == nil {
		t.Fatal("outage with no last-known-good must fail")
	}

	// Warm the cache, then fail everything: the stale copy is served.
	a.set(false, 0)
	b.set(false, 0)
	if _, stale, err := fetchNoted(context.Background(), rs); err != nil || stale {
		t.Fatalf("warmup = stale=%v, %v", stale, err)
	}
	a.set(true, 0)
	b.set(true, 0)
	doc, stale, err := fetchNoted(context.Background(), rs)
	if err != nil {
		t.Fatalf("outage with a last-known-good must stale-serve: %v", err)
	}
	if !stale {
		t.Fatal("served document must carry the stale marker")
	}
	if doc.Root.Name != "department" {
		t.Errorf("root = %q", doc.Root.Name)
	}
	st := rs.ReplicaStatus()
	if st.StaleServes != 1 || !st.HasLastKnownGood {
		t.Errorf("staleServes=%d hasLKG=%v", st.StaleServes, st.HasLastKnownGood)
	}

	// Fetch drops the marker but still serves.
	if _, err := rs.Fetch(context.Background()); err != nil {
		t.Fatalf("Fetch during outage: %v", err)
	}

	// DisableStaleServe: same outage, hard failure.
	a2, b2 := newReplicaStub(t, "r0"), newReplicaStub(t, "r1")
	rs2, err := NewReplicaSet("dept", []Wrapper{a2, b2},
		ReplicaSetOptions{HedgeDelay: -1, DisableStaleServe: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fetchNoted(context.Background(), rs2); err != nil {
		t.Fatal(err)
	}
	a2.set(true, 0)
	b2.set(true, 0)
	if _, _, err := fetchNoted(context.Background(), rs2); err == nil ||
		!strings.Contains(err.Error(), "all replicas failed") {
		t.Fatalf("err = %v, want all-replicas-failed (stale serving disabled)", err)
	}
}

// TestReplicaSetLKGMustValidate: a fetched document that does not
// validate against the set's DTD is never stored as last known good — the
// stale-serving guarantee is "schema-valid but possibly outdated".
func TestReplicaSetLKGMustValidate(t *testing.T) {
	a := newReplicaStub(t, "r0")
	bad, _, err := xmlmodel.Parse(`<department><name>CS</name></department>`) // violates professor+
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	a.doc = bad
	a.mu.Unlock()
	rs, err := NewReplicaSet("dept", []Wrapper{a}, ReplicaSetOptions{HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fetchNoted(context.Background(), rs); err != nil {
		t.Fatalf("the live answer itself is passed through: %v", err)
	}
	if rs.HasLastKnownGood() {
		t.Fatal("an invalid document must not become the last known good")
	}
	a.set(true, 0)
	if _, _, err := fetchNoted(context.Background(), rs); err == nil {
		t.Fatal("outage must fail: the invalid document was not cached")
	}
}

// TestReplicaSetEjectionAndRecovery walks one replica through the health
// state machine with an injected clock: failures demote healthy → suspect
// → ejected, the cooldown gates the recovery probe, and a successful
// probe restores healthy.
func TestReplicaSetEjectionAndRecovery(t *testing.T) {
	clk := &testClock{}
	a := newReplicaStub(t, "r0")
	a.set(true, 0)
	rs, err := NewReplicaSet("dept", []Wrapper{a}, ReplicaSetOptions{
		HedgeDelay:        -1,
		DisableStaleServe: true,
		Clock:             clk.Now,
		Health:            HealthOptions{EjectCooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	wantState := func(want string) {
		t.Helper()
		if st := rs.ReplicaStatus(); st.Replicas[0].State != want {
			t.Fatalf("state = %q, want %q", st.Replicas[0].State, want)
		}
	}
	if _, _, err := fetchNoted(ctx, rs); err == nil {
		t.Fatal("failing replica must fail the fetch")
	}
	wantState("suspect") // SuspectAfter default 1
	for i := 0; i < 2; i++ {
		if _, _, err := fetchNoted(ctx, rs); err == nil {
			t.Fatal("failing replica must fail the fetch")
		}
	}
	wantState("ejected") // EjectAfter default 3

	// Within the cooldown the replica is not even contacted.
	before := a.fetches.Load()
	if _, _, err := fetchNoted(ctx, rs); err == nil ||
		!strings.Contains(err.Error(), "every replica ejected") {
		t.Fatalf("err = %v, want every-replica-ejected", err)
	}
	if a.fetches.Load() != before {
		t.Fatal("ejected replica was contacted during its cooldown")
	}
	st := rs.ReplicaStatus()
	if st.Available != 0 || st.Healthy != 0 {
		t.Errorf("available/healthy = %d/%d, want 0/0", st.Available, st.Healthy)
	}

	// Past the cooldown, a failed probe re-ejects with a fresh cooldown.
	clk.Advance(time.Minute)
	if _, _, err := fetchNoted(ctx, rs); err == nil {
		t.Fatal("failed probe must fail the fetch")
	}
	wantState("ejected")

	// Heal, pass the new cooldown: the probe succeeds and the replica is
	// healthy again.
	a.set(false, 0)
	clk.Advance(time.Minute)
	doc, stale, err := fetchNoted(ctx, rs)
	if err != nil || stale || doc == nil {
		t.Fatalf("recovery probe = %v, stale=%v, %v", doc, stale, err)
	}
	wantState("healthy")
	if st := rs.ReplicaStatus(); st.Available != 1 || st.Healthy != 1 {
		t.Errorf("available/healthy = %d/%d, want 1/1", st.Available, st.Healthy)
	}
}

// TestReplicaSetCheckReplicas: the active health pass probes non-healthy
// replicas, notices recovery without query traffic, and re-warms the
// last-known-good cache from the probe's answer.
func TestReplicaSetCheckReplicas(t *testing.T) {
	clk := &testClock{}
	a := newReplicaStub(t, "r0")
	a.set(true, 0)
	rs, err := NewReplicaSet("dept", []Wrapper{a}, ReplicaSetOptions{
		HedgeDelay:        -1,
		DisableStaleServe: false,
		Clock:             clk.Now,
		Health:            HealthOptions{EjectCooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := fetchNoted(ctx, rs); err == nil {
			t.Fatal("failing replica must fail the fetch")
		}
	}

	// Ejected but still cooling down: the pass must not probe yet.
	if n := rs.CheckReplicas(ctx, time.Second); n != 0 {
		t.Fatalf("probes = %d, want 0 (replica still in cooldown)", n)
	}

	a.set(false, 0)
	clk.Advance(time.Minute)
	if n := rs.CheckReplicas(ctx, time.Second); n != 1 {
		t.Fatalf("probes = %d, want 1", n)
	}
	st := rs.ReplicaStatus()
	if st.Replicas[0].State != "healthy" {
		t.Errorf("state = %q after a successful probe", st.Replicas[0].State)
	}
	if !st.HasLastKnownGood {
		t.Error("the probe's answer must warm the last-known-good cache")
	}
	if st.ActiveProbes != 1 {
		t.Errorf("active probes = %d, want 1", st.ActiveProbes)
	}

	// All healthy again: the next pass is a no-op.
	if n := rs.CheckReplicas(ctx, time.Second); n != 0 {
		t.Fatalf("probes = %d, want 0 (fleet healthy)", n)
	}
}

// TestReplicaSetMediatorStaleFlow: end-to-end through the mediator — a
// total replica outage turns into a complete, DTD-valid answer marked in
// MaterializeInfo.StaleSources and QueryStats.StaleSources (disjoint from
// Degraded), the stale materialization is never cached, and live serving
// (plus caching) resumes once a replica heals. All of it holds wherever the
// ReplicaSet sits in the source's decorator stack: the stale note and the
// set's report pass through every wrapper above it.
func TestReplicaSetMediatorStaleFlow(t *testing.T) {
	breaker := func(w Wrapper) Wrapper { return NewBreakerSource(w, BreakerOptions{}) }
	for name, wrap := range map[string]func(Wrapper) Wrapper{
		"bare":          func(w Wrapper) Wrapper { return w },
		"fault":         func(w Wrapper) Wrapper { return NewFaultSource(w) },
		"breaker":       breaker,
		"fault+breaker": func(w Wrapper) Wrapper { return NewFaultSource(breaker(w)) },
	} {
		t.Run(name, func(t *testing.T) { testStaleFlow(t, wrap) })
	}
}

func testStaleFlow(t *testing.T, wrap func(Wrapper) Wrapper) {
	a, b := newReplicaStub(t, "r0"), newReplicaStub(t, "r1")
	// EjectAfter is set high so the repeated outage materializations keep
	// the replicas suspect rather than ejected — ejection/cooldown timing
	// has its own test; here the focus is the stale data flow.
	rs, err := NewReplicaSet("dept-rs", []Wrapper{a, b}, ReplicaSetOptions{
		HedgeDelay: -1,
		Health:     HealthOptions{EjectAfter: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New("campus")
	if err := m.AddSource(wrap(rs)); err != nil {
		t.Fatal(err)
	}
	profQ := `SELECT X WHERE <department> X:<professor/> </department>`
	if _, err := m.DefineUnionView("profs", []ViewPart{
		{Source: "dept-rs", Query: xmas.MustParse(profQ)},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm: live materialization, cacheable.
	if _, info, err := m.MaterializeInfo(ctx, "profs"); err != nil || len(info.StaleSources) != 0 {
		t.Fatalf("warm materialize = %+v, %v", info, err)
	}

	// Outage: the view still answers, marked stale, not degraded.
	a.set(true, 0)
	b.set(true, 0)
	if _, err := m.InvalidateSource("dept-rs"); err != nil {
		t.Fatal(err)
	}
	doc, info, err := m.MaterializeInfo(ctx, "profs")
	if err != nil {
		t.Fatalf("outage materialize must stale-serve: %v", err)
	}
	if len(info.StaleSources) != 1 || info.StaleSources[0] != "dept-rs" {
		t.Fatalf("stale sources = %v, want [dept-rs]", info.StaleSources)
	}
	if info.Degraded || len(info.DegradedSources) != 0 {
		t.Fatal("stale serving is complete — it must not be reported as degraded")
	}
	if n := len(doc.Root.Children); n != 1 {
		t.Fatalf("stale view has %d professors, want 1", n)
	}

	// Stale materializations are never cached: the repeat is stale again,
	// with no cache hit.
	hitsBefore := m.Stats().CacheHits
	if _, info, err = m.MaterializeInfo(ctx, "profs"); err != nil || len(info.StaleSources) != 1 {
		t.Fatalf("repeat = %+v, %v; must still be stale", info, err)
	}
	st := m.Stats()
	if st.CacheHits != hitsBefore {
		t.Error("stale documents must never be cached")
	}
	if st.StaleMaterializations != 2 {
		t.Errorf("stale materializations = %d, want 2", st.StaleMaterializations)
	}
	// The mediator's totals are the set's own counts, and its snapshot is
	// the set's own status.
	own := rs.ReplicaStatus()
	if own.StaleServes != 2 || st.StaleServes != own.StaleServes {
		t.Errorf("stale serves = %d in Stats, %d in the set; want 2 in both", st.StaleServes, own.StaleServes)
	}
	if rst, ok := st.Replicas["dept-rs"]; !ok || rst.StaleServes != own.StaleServes || !rst.HasLastKnownGood {
		t.Errorf("stats replicas = %+v; want the dept-rs snapshot with its stale serves", st.Replicas)
	}
	if _, ok := m.ReplicaStatuses()["dept-rs"]; !ok {
		t.Error("ReplicaStatuses (the /readyz input) must see the set")
	}
	if st.BreakerTrips != 0 || st.BreakerRejections != 0 {
		t.Errorf("breaker trips/rejections = %d/%d; a stale serve is an answer, not a failure",
			st.BreakerTrips, st.BreakerRejections)
	}

	// The query path carries the marker too.
	q := xmas.MustParse(`profs = SELECT X WHERE <profs> X:<professor/> </profs>`)
	if _, qs, err := m.Query(ctx, "profs", q); err != nil ||
		len(qs.StaleSources) != 1 || qs.StaleSources[0] != "dept-rs" {
		t.Fatalf("query stats = %+v, %v; want the stale marker", qs, err)
	}

	// Heal: the replicas are asked again — the outdated document was not
	// pinned in the slot — and the live answer is cacheable again.
	a.set(false, 0)
	b.set(false, 0)
	fetchesBefore := a.fetches.Load() + b.fetches.Load()
	if _, info, err = m.MaterializeInfo(ctx, "profs"); err != nil || len(info.StaleSources) != 0 {
		t.Fatalf("healed materialize = %+v, %v", info, err)
	}
	if a.fetches.Load()+b.fetches.Load() == fetchesBefore {
		t.Error("the healed replicas must be fetched again")
	}
	if _, info, err = m.MaterializeInfo(ctx, "profs"); err != nil || len(info.StaleSources) != 0 {
		t.Fatalf("cached read = %+v, %v", info, err)
	}
	if m.Stats().CacheHits != hitsBefore+1 {
		t.Error("the healed, complete document must be cached again")
	}
}

// TestReplicaSetConcurrentFetch hammers a replica set whose primary
// flaps, under -race: every fetch must return either a live document or a
// marked stale one, never an error, once the LKG is warm.
func TestReplicaSetConcurrentFetch(t *testing.T) {
	a, b := newReplicaStub(t, "r0"), newReplicaStub(t, "r1")
	rs, err := NewReplicaSet("dept", []Wrapper{a, b}, ReplicaSetOptions{HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fetchNoted(context.Background(), rs); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.set(i%2 == 0, 0)
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				doc, _, err := fetchNoted(context.Background(), rs)
				if err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				if doc.Root.Name != "department" {
					t.Errorf("root = %q", doc.Root.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
}
