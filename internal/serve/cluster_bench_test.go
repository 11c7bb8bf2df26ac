package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mediator"
)

// benchGet performs one GET and fails the benchmark on a non-200.
func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
}

// benchForwarder builds a fresh non-owner node whose one view is pinned
// to the owner — the cold path: the first request must fetch the owner's
// DTD, build the peer transport, then fetch and validate the view.
func benchForwarder(b *testing.B, ownerURL string) *cluster.Node {
	b.Helper()
	node, err := cluster.NewNode(cluster.Config{
		Self:   "bench",
		Nodes:  map[string]string{"alpha": ownerURL, "bench": ""},
		Pinned: map[string][]string{"members": {"alpha"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return node
}

// BenchmarkForwardHopCold measures the full cost of a first forwarded
// request: transport build (owner DTD round trip) plus the materialized
// view fetch, streaming validation and re-serve. Pairs with
// BenchmarkForwardHopWarm via benchjson to report the transport cache's
// speedup — the forward-hop figure of merit archived in
// BENCH_cluster.json.
func BenchmarkForwardHopCold(b *testing.B) {
	owner, _ := newServerAndMediator(b)
	late := &swapHandler{}
	front := httptest.NewServer(late)
	defer front.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		late.set(New(mediator.New("bench-med"), WithCluster(benchForwarder(b, owner.URL))))
		benchGet(b, front.URL+"/views/members")
	}
}

// BenchmarkForwardHopWarm measures a forwarded request once the peer
// transport is built and cached: one owner round trip for the view body,
// validated in flight.
func BenchmarkForwardHopWarm(b *testing.B) {
	owner, _ := newServerAndMediator(b)
	front := httptest.NewServer(New(mediator.New("bench-med"), WithCluster(benchForwarder(b, owner.URL))))
	defer front.Close()
	benchGet(b, front.URL+"/views/members") // build + cache the transport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, front.URL+"/views/members")
	}
}

// BenchmarkForwardHopChanged is the other side of the warm hop: the owner's
// source is invalidated before every request, so the forwarder's conditional
// fetch finds a new tag each time and the owner's document is shipped,
// validated and parsed — what every warm hop cost before the hop revalidated.
func BenchmarkForwardHopChanged(b *testing.B) {
	owner, med := newServerAndMediator(b)
	front := httptest.NewServer(New(mediator.New("bench-med"), WithCluster(benchForwarder(b, owner.URL))))
	defer front.Close()
	benchGet(b, front.URL+"/views/members")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := med.InvalidateSource("cs-dept"); err != nil {
			b.Fatal(err)
		}
		benchGet(b, front.URL+"/views/members")
	}
}

// TestForwardHopNotModifiedAllocs ratchets the forwarded read of an unchanged
// owner document, counted from the forwarder's handler in: a GET and a query
// answered from the lease a cluster owner granted (no round trip), and the
// same once the lease is gone, when the forwarder asks the owner and is
// answered 304 with a new grant (the owner answers over loopback in this
// process, so its 304 and its trace are in the count too). The lease is taken
// away by a revocation before each of those reads, which costs what its end
// by expiry costs. The query finds its plan by its text and its picks beside
// the unchanged document either way. Measured 35, 34, 133 and 132 (37, 35,
// 141 and 139 under -race, which `make race` runs this with), ceilings
// + 10 %; a warm forwarded read was 129 and 128 while every one asked the
// owner, 135 and 150 while the forwarder parsed and walked every query, 165
// and 180 while a trace was an object per span and a copy per End.
func TestForwardHopNotModifiedAllocs(t *testing.T) {
	p := newLeasedPair(t, 0)
	const q = `r = SELECT P WHERE <members> P:<professor/> </members>`
	for _, c := range []struct {
		name, method, path, body string
		leased                   bool
		ceiling                  float64
	}{
		{"leased GET", http.MethodGet, "/views/members", "", true, 39},
		{"leased query", http.MethodPost, "/views/members/query", q, true, 38},
		{"GET after the lease", http.MethodGet, "/views/members", "", false, 147},
		{"query after the lease", http.MethodPost, "/views/members/query", q, false, 146},
	} {
		do := func() {
			if !c.leased {
				p.fwdNode.Revoked("members")
			}
			rec := httptest.NewRecorder()
			p.fwdH.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
			}
		}
		do() // builds the transport, fetches the document, keeps the pair
		before, beforeHits := p.fwdNode.Metrics(), p.fwdH.m.Stats().PlanTextHits
		n := testing.AllocsPerRun(50, do)
		after, planHits := p.fwdNode.Metrics(), p.fwdH.m.Stats().PlanTextHits-beforeHits
		hits, notModified := after.LeaseHits-before.LeaseHits, after.NotModified-before.NotModified
		if c.leased && (hits != 51 || notModified != 0) || !c.leased && (hits != 0 || notModified != 51) {
			t.Fatalf("%s: %d lease hits and %d not modified in 51 reads", c.name, hits, notModified)
		}
		if c.body != "" && (planHits != 51 || after.AnswersReused-before.AnswersReused != 51) {
			t.Fatalf("%s: %d plan hits and %d reused answers in 51 reads", c.name, planHits, after.AnswersReused-before.AnswersReused)
		}
		t.Logf("forwarded %s: %v allocs", c.name, n)
		if n > c.ceiling {
			t.Errorf("forwarded %s: %v allocs, want ≤ %v", c.name, n, c.ceiling)
		}
	}
}
