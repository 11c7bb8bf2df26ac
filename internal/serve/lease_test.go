package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
)

// A cluster owner leases its view to the forwarder and takes the lease back
// before it acknowledges an invalidation (internal/cluster/lease.go): after
// every 2xx of the owner's POST /invalidate the forwarder answers the owner's
// new document, and until then it answers without asking.

// leasedPair is owner alpha of view members, over a changingSource, and
// forwarder beta — both in cluster mode, so the owner grants leases.
type leasedPair struct {
	src        *changingSource
	owner, fwd *httptest.Server
	fwdNode    *cluster.Node
	fwdH       *Handler
}

// newLeasedPair stands the pair up.
func newLeasedPair(t *testing.T) *leasedPair {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	p := &leasedPair{src: &changingSource{dtd: d}}
	p.owner, p.fwd = httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	urls := map[string]string{"alpha": "http://" + p.owner.Listener.Addr().String(), "beta": "http://" + p.fwd.Listener.Addr().String()}
	pinned := map[string][]string{"members": {"alpha"}}
	ownerNode, err := cluster.NewNode(cluster.Config{Self: "alpha", Nodes: urls, Pinned: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if p.fwdNode, err = cluster.NewNode(cluster.Config{Self: "beta", Nodes: urls, Pinned: pinned}); err != nil {
		t.Fatal(err)
	}
	med := mediator.New("campus")
	if err := med.AddSource(p.src); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("cs-dept", xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	p.owner.Config.Handler = New(med, WithCluster(ownerNode))
	p.fwdH = New(mediator.New("beta-med"), WithCluster(p.fwdNode))
	p.fwd.Config.Handler = p.fwdH
	for _, srv := range []*httptest.Server{p.owner, p.fwd} {
		srv.Start()
		t.Cleanup(srv.Close)
	}
	return p
}

// invalidate posts body to the owner's /invalidate and wants code back.
func (p *leasedPair) invalidate(t *testing.T, body string, code int) {
	t.Helper()
	resp, err := http.Post(p.owner.URL+"/invalidate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != code {
		t.Fatalf("POST /invalidate %q: %d, want %d", body, resp.StatusCode, code)
	}
}

// Meaningful under -race: forwarded readers share the lease, the plan memo
// and the picks memo while the owner's source changes and is invalidated
// under them. Every answer is the owner's answer of some version, and the
// read that follows an invalidation's 2xx is the new version's.
func TestLeasedReadersDuringInvalidations(t *testing.T) {
	p := newLeasedPair(t)
	queries := []string{
		`r = SELECT P WHERE <members> P:<professor/> </members>`,
		`r = SELECT G WHERE <members> G:<gradStudent/> </members>`,
	}
	const versions = 4
	want := answersByVersion(t, p.owner.URL, queries, versions, func(v int64) {
		p.src.version.Store(v)
		p.invalidate(t, "", http.StatusNoContent)
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			forwardedReader(t, p.fwd.URL, queries, want, g, func(int) bool { return !stop.Load() })
		}(g)
	}
	for i := 1; i < 3*versions; i++ {
		v := i % versions
		p.src.version.Store(int64(v))
		p.invalidate(t, `{"source": "cs-dept"}`, http.StatusOK)
		for qi, q := range queries {
			if code, body := postBody(t, p.fwd.URL+"/views/members/query", q); code != 200 || body != want[v][qi] {
				t.Errorf("version %d, query %d, after the invalidation's 2xx: %d, the new version's answer: %v", v, qi, code, body == want[v][qi])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
