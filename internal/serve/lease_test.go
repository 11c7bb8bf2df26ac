package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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
	src                *changingSource
	owner, fwd         *httptest.Server
	ownerNode, fwdNode *cluster.Node
	fwdH               *Handler
}

// newLeasedPair stands the pair up. The forwarder acknowledges a revocation
// revokeDelay after it dropped the lease: an owner that answered an
// invalidation before the acknowledgement came would be seen.
func newLeasedPair(t *testing.T, revokeDelay time.Duration) *leasedPair {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	p := &leasedPair{src: &changingSource{dtd: d}}
	p.owner, p.fwd = httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	urls := map[string]string{"alpha": "http://" + p.owner.Listener.Addr().String(), "beta": "http://" + p.fwd.Listener.Addr().String()}
	pinned := map[string][]string{"members": {"alpha"}}
	if p.ownerNode, err = cluster.NewNode(cluster.Config{Self: "alpha", Nodes: urls, Pinned: pinned}); err != nil {
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
	p.owner.Config.Handler = New(med, WithCluster(p.ownerNode))
	p.fwdH = New(mediator.New("beta-med"), WithCluster(p.fwdNode))
	p.fwd.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.RevokePath {
			defer time.Sleep(revokeDelay)
		}
		p.fwdH.ServeHTTP(w, r)
	})
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

// After each 2xx of the owner's POST /invalidate — by source and wholesale,
// over a source that changed — the forwarder's very next GET and query are
// byte for byte the owner's, of the new version; between invalidations the
// forwarder answers from its lease.
func TestLeasedForwardFollowsEveryInvalidation(t *testing.T) {
	p := newLeasedPair(t, 20*time.Millisecond)
	const q = `r = SELECT P WHERE <members> P:<professor/> </members>`
	same := func(step, fetched string) {
		t.Helper()
		fwdCode, fwdBody, fwdHdr := get(t, p.fwd.URL+"/views/members")
		fwdQCode, fwdQBody := postBody(t, p.fwd.URL+"/views/members/query", q)
		ownCode, ownBody, ownHdr := get(t, p.owner.URL+"/views/members")
		ownQCode, ownQBody := postBody(t, p.owner.URL+"/views/members/query", q)
		if fwdCode != 200 || ownCode != 200 || fwdBody != ownBody || fwdHdr.Get("ETag") != ownHdr.Get("ETag") {
			t.Fatalf("%s: GET forwarder %d, owner %d, identical %v", step, fwdCode, ownCode, fwdBody == ownBody)
		}
		if fwdQCode != 200 || ownQCode != 200 || fwdQBody != ownQBody {
			t.Fatalf("%s: query forwarder %d, owner %d, identical %v", step, fwdQCode, ownQCode, fwdQBody == ownQBody)
		}
		if !strings.Contains(ownBody, fmt.Sprintf(`id="v%d"`, p.src.version.Load())) {
			t.Fatalf("%s: the owner does not serve version %d", step, p.src.version.Load())
		}
		if attr := rootAttr(p.fwdH, "forward_fetch"); attr != fetched {
			t.Errorf("%s: the forwarder's query says forward_fetch=%q, want %q", step, attr, fetched)
		}
	}
	same("first contact", "leased") // the GET fetched, the query found its lease
	if m := p.fwdNode.Metrics(); m.LeaseHits != 1 || p.ownerNode.Metrics().LeasesGranted != 1 {
		t.Errorf("first contact: %d lease hits, %d leases granted; want 1 and 1", m.LeaseHits, p.ownerNode.Metrics().LeasesGranted)
	}
	same("unchanged", "leased")
	if how := rootAttr(p.fwdH, "forwarded_answer"); how != "streamed" {
		t.Errorf("a leased query over the unchanged document, asked a second time: forwarded_answer=%q, want streamed (found, not walked)", how)
	}

	for _, inv := range []struct {
		body string
		code int
	}{{`{"source": "cs-dept"}`, http.StatusOK}, {"", http.StatusNoContent}, {`{"source": "cs-dept"}`, http.StatusOK}} {
		p.src.version.Add(1)
		p.invalidate(t, inv.body, inv.code)
		same(fmt.Sprintf("after POST /invalidate %q", inv.body), "leased")
	}
	if m := p.ownerNode.Metrics(); m.RevocationsSent != 3 || m.RevocationsWaitedOut != 0 {
		t.Errorf("three invalidations: %d revocations sent, %d waited out; want 3 and 0", m.RevocationsSent, m.RevocationsWaitedOut)
	}

	// A revocation body the forwarder cannot read is refused, and changes
	// nothing.
	code, body := postBody(t, p.fwd.URL+cluster.RevokePath, "{")
	if code != http.StatusBadRequest {
		t.Errorf("an unreadable revocation: %d %s", code, body)
	}
}

// Meaningful under -race: forwarded readers share the lease, the plan memo
// and the picks memo while the owner's source changes and is invalidated
// under them. Every answer is the owner's answer of some version, and the
// read that follows an invalidation's 2xx is the new version's.
func TestLeasedReadersDuringInvalidations(t *testing.T) {
	p := newLeasedPair(t, 0)
	queries := []string{
		`r = SELECT P WHERE <members> P:<professor/> </members>`,
		`r = SELECT G WHERE <members> G:<gradStudent/> </members>`,
	}
	const versions = 4
	var want [versions][]string
	for v := range want {
		p.src.version.Store(int64(v))
		p.invalidate(t, "", http.StatusNoContent)
		for _, q := range queries {
			code, body := postBody(t, p.owner.URL+"/views/members/query", q)
			if code != 200 {
				t.Fatalf("owner, version %d: %d %s", v, code, body)
			}
			want[v] = append(want[v], body)
		}
	}
	p.src.version.Store(0)
	p.invalidate(t, "", http.StatusNoContent)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (g + i) % len(queries)
				resp, err := http.Post(p.fwd.URL+"/views/members/query", "text/plain", strings.NewReader(queries[qi]))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				known := false
				for v := range want {
					known = known || string(body) == want[v][qi]
				}
				if resp.StatusCode != 200 || !known {
					t.Errorf("reader %d, read %d: %d, not the owner's answer of any version", g, i, resp.StatusCode)
					return
				}
			}
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
	close(stop)
	wg.Wait()
}
