package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

func getMetrics(t *testing.T, base string) mediator.Stats {
	t.Helper()
	code, body, _ := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var st mediator.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	return st
}

// TestMetricsEndpoint walks a scripted request sequence and asserts that
// the /metrics counters move consistently with it.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t)

	st := getMetrics(t, srv.URL)
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.SimplifierSkips != 0 {
		t.Fatalf("baseline counters must be zero: %+v", st)
	}

	// 1st view fetch: a cache miss; 2nd: a hit.
	for i := 0; i < 2; i++ {
		if code, body, _ := get(t, srv.URL+"/views/members"); code != 200 {
			t.Fatalf("view: %d %s", code, body)
		}
	}
	// An unsatisfiable query: simplifier skip, no materialization.
	resp, err := http.Post(srv.URL+"/views/members/query", "text/plain",
		strings.NewReader(`v = SELECT X WHERE <members> X:<course/> </members>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A prunable query: evaluated against the cached view (another hit).
	resp, err = http.Post(srv.URL+"/views/members/query", "text/plain",
		strings.NewReader(`profs = SELECT X WHERE <members> X:<professor><publication/></professor> </members>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st = getMetrics(t, srv.URL)
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1", st.CacheMisses)
	}
	if st.CacheHits != 2 { // 2nd GET + prunable query's materialization
		t.Errorf("cache hits = %d, want 2", st.CacheHits)
	}
	if st.SimplifierSkips != 1 {
		t.Errorf("simplifier skips = %d, want 1", st.SimplifierSkips)
	}
	if st.SimplifierPruned < 1 {
		t.Errorf("simplifier pruned = %d, want >= 1", st.SimplifierPruned)
	}
	vs, ok := st.Views["members"]
	if !ok || vs.Queries != 2 {
		t.Errorf("view stats = %+v, want 2 queries", vs)
	}
	if vs.Materializations != 1 {
		t.Errorf("materializations = %d, want 1", vs.Materializations)
	}
	// The compiled-automata cache is process-wide, so exact counts depend
	// on test order; but by now view inference has compiled content models
	// and the queries above re-used them, so the counters must be live.
	ac := st.AutomataCache
	if ac.Capacity <= 0 {
		t.Errorf("automata cache capacity = %d, want > 0", ac.Capacity)
	}
	if ac.Misses == 0 {
		t.Errorf("automata cache misses = 0, want > 0 (inference compiles content models)")
	}
	if ac.Size == 0 {
		t.Errorf("automata cache size = 0, want resident entries")
	}
}

// slowSource blocks Fetch on a gate so the test can hold a
// materialization in flight while stacking HTTP requests behind it.
type slowSource struct {
	d       *dtd.DTD
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (s *slowSource) Name() string { return "slow" }

func (s *slowSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	s.once.Do(func() { close(s.entered) })
	select {
	case <-s.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	return doc, err
}

func (s *slowSource) Schema() *dtd.DTD { return s.d }

// TestMetricsSingleflightDedups holds a materialization in flight, stacks
// three more HTTP requests behind it, and asserts /metrics reports them as
// singleflight dedups of a single cache miss.
func TestMetricsSingleflightDedups(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	src := &slowSource{d: d, entered: make(chan struct{}), gate: make(chan struct{})}
	m := mediator.New("campus")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("slow", xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m)

	const followers = 3
	var wg sync.WaitGroup
	codes := make([]int, followers+1)
	for i := 0; i <= followers; i++ {
		if i == 1 {
			<-src.entered // leader holds the in-flight evaluation
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = get(t, srv.URL+"/views/members")
		}(i)
	}
	// Wait (bounded) until all followers joined the in-flight call, then
	// release the source.
	deadline := time.Now().Add(5 * time.Second)
	for getMetrics(t, srv.URL).SingleflightDedups < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never joined: %+v", getMetrics(t, srv.URL))
		}
		time.Sleep(time.Millisecond)
	}
	close(src.gate)
	wg.Wait()
	for i, code := range codes {
		if code != 200 {
			t.Errorf("request %d: %d", i, code)
		}
	}
	st := getMetrics(t, srv.URL)
	if st.CacheMisses != 1 || st.SingleflightDedups != followers {
		t.Errorf("misses = %d (want 1), dedups = %d (want %d)", st.CacheMisses, st.SingleflightDedups, followers)
	}
}

func newTestServer(t *testing.T, m *mediator.Mediator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(m))
	t.Cleanup(srv.Close)
	return srv
}

// TestSimplifierErrorHeader: a failing simplifier must not be mistaken
// for a fast one — the fallback is flagged on the response.
func TestSimplifierErrorHeader(t *testing.T) {
	srv, m := newServerAndMediator(t)
	v, err := m.View("members")
	if err != nil {
		t.Fatal(err)
	}
	delete(v.DTD.Types, v.DTD.Root) // corrupt the view DTD: SimplifyQuery now errors

	resp, err := http.Post(srv.URL+"/views/members/query", "text/plain",
		strings.NewReader(`profs = SELECT X WHERE <members> X:<professor/> </members>`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("fallback query: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Mix-Simplifier-Error") == "" {
		t.Error("X-Mix-Simplifier-Error header must flag the fallback")
	}
	for _, name := range []string{"X-Mix-Pruned", "X-Mix-Skipped", "X-Mix-Dropped-Names"} {
		if vals, ok := resp.Header[name]; ok {
			t.Errorf("fallback stats must be zero, so absent: %s %q", name, vals)
		}
	}
	if getMetrics(t, srv.URL).SimplifierErrors != 1 {
		t.Error("metrics must count the simplifier failure")
	}
}

// trapSource fails Fetch with a message that literally contains "unknown
// view" — the substring that used to misroute statusFor to 404.
type trapSource struct{ d *dtd.DTD }

func (s *trapSource) Name() string { return "trap" }
func (s *trapSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	return nil, context.DeadlineExceeded
}
func (s *trapSource) Schema() *dtd.DTD { return s.d }

// TestStatusForUsesSentinels: an evaluation failure whose message happens
// to contain "unknown view" is a 500, not a 404; real lookup misses stay
// 404 via errors.Is on the sentinel errors.
func TestStatusForUsesSentinels(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	m := mediator.New("campus")
	// A view literally named to contain "unknown view".
	if err := m.AddSource(&trapSource{d: d}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("trap", xmas.MustParse(
		`v = SELECT X WHERE <department> X:<professor/> </department>`)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, m)

	// Fetch failure (source down): 500, even though older code classified
	// any error by message text.
	code, body, _ := get(t, srv.URL+"/views/v")
	if code != http.StatusInternalServerError {
		t.Errorf("fetch failure: %d (%s), want 500", code, strings.TrimSpace(body))
	}
	// Genuine lookup miss: 404 through the sentinel.
	code, _, _ = get(t, srv.URL+"/views/unknown view of nothing")
	if code != http.StatusNotFound {
		t.Errorf("unknown view: %d, want 404", code)
	}
	code, _, _ = get(t, srv.URL+"/sources/nosuch/dtd")
	if code != http.StatusNotFound {
		t.Errorf("unknown source dtd: %d, want 404", code)
	}
}
