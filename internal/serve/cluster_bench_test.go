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

// TestForwardHopNotModifiedAllocs ratchets the revalidated hop: a warm
// forwarded GET and a warm forwarded query, the owner's document unchanged,
// counted from the forwarder's handler in (the owner answers over loopback in
// this process, so its 304 is in the count too — and its trace: a hop is two
// traced requests). The query finds its plan by its text and its picks beside
// the unchanged document: it parses nothing and walks nothing. Measured 129
// and 128 (136 and 135 under -race, which `make race` runs this with),
// ceilings + 10 %; they were 135 and 150 while the forwarder parsed and
// walked every query, 165 and 180 while a trace was an object per span and a
// copy per End.
func TestForwardHopNotModifiedAllocs(t *testing.T) {
	owner, _ := newServerAndMediator(t)
	node, err := cluster.NewNode(cluster.Config{
		Self:   "beta",
		Nodes:  map[string]string{"alpha": owner.URL, "beta": ""},
		Pinned: map[string][]string{"members": {"alpha"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New(mediator.New("beta-med"), WithCluster(node))
	const q = `r = SELECT P WHERE <members> P:<professor/> </members>`
	for _, c := range []struct {
		name, method, path, body string
		ceiling                  float64
	}{
		{"GET", http.MethodGet, "/views/members", "", 142},
		{"query", http.MethodPost, "/views/members/query", q, 141},
	} {
		do := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
			}
		}
		do() // builds the transport, fetches the document, keeps the pair
		before := node.Metrics()
		n := testing.AllocsPerRun(50, do)
		after := node.Metrics()
		if got := after.NotModified - before.NotModified; got != 51 {
			t.Fatalf("%s: %d of 51 forwarded reads were not modified", c.name, got)
		}
		if c.body != "" && (after.PlanHits-before.PlanHits != 51 || after.AnswersReused-before.AnswersReused != 51) {
			t.Fatalf("%s: %d plan hits and %d reused answers in 51 reads", c.name,
				after.PlanHits-before.PlanHits, after.AnswersReused-before.AnswersReused)
		}
		t.Logf("warm forwarded %s: %v allocs", c.name, n)
		if n > c.ceiling {
			t.Errorf("warm forwarded %s: %v allocs, want ≤ %v", c.name, n, c.ceiling)
		}
	}
}
