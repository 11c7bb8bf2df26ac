package serve

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// A cluster owner leases its view to the forwarder and takes the lease back
// before it acknowledges an invalidation (internal/cluster/lease.go): after
// every 2xx of the owner's POST /invalidate the forwarder answers the owner's
// new document, and until then it answers without asking.

// leasedPair is owner alpha of view members, over a changingSource, and of
// view staff, over a source that is always down behind a breaker, and
// forwarder beta — both in cluster mode, so the owner grants leases. leased
// counts the owner's answers that carry a lease; each is checked to carry no
// header a lease hit could not relay (the degraded, pruned and stale sources
// and a hop path): what the owner grants a lease on is its tag and nothing
// else.
type leasedPair struct {
	src        *changingSource
	owner, fwd *httptest.Server
	fwdNode    *cluster.Node
	fwdH       *Handler
	leased     atomic.Int64
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
	pinned := map[string][]string{"members": {"alpha"}, "staff": {"alpha"}}
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
	doc, _, err := xmlmodel.Parse(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	down, err := mediator.NewStaticSource("down-dept", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.AddSource(mediator.NewBreakerSource(mediator.NewFaultSource(down, mediator.Fault{Err: errors.New("down")}),
		mediator.BreakerOptions{Threshold: 1, Cooldown: time.Hour})); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("down-dept", xmas.MustParse(
		`staff = SELECT X WHERE <department> X:<professor/> </department>`)); err != nil {
		t.Fatal(err)
	}
	ownerH := New(med, WithCluster(ownerNode))
	p.owner.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ownerH.ServeHTTP(w, r)
		if h := w.Header(); h.Get(mediator.LeaseHeader) != "" {
			p.leased.Add(1)
			for _, name := range []string{"X-Mix-Degraded", "X-Mix-Degraded-Sources", "X-Mix-Degraded-Reason",
				"X-Mix-Pruned-Sources", "X-Mix-Stale-Sources", mediator.ForwardHeader} {
				if v := h.Get(name); v != "" {
					t.Errorf("the owner's answer to %s %s carries %s and %s %q", r.Method, r.URL.Path, mediator.LeaseHeader, name, v)
				}
			}
		}
	})
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
	// A member asks for view staff: the source's failure trips its breaker,
	// and the next answer is degraded — and granted no lease.
	for _, code := range []int{http.StatusInternalServerError, http.StatusOK} {
		req, err := http.NewRequest(http.MethodGet, p.owner.URL+"/views/staff", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(mediator.ForwardHeader, "beta")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != code || code == http.StatusOK && resp.Header.Get("X-Mix-Degraded-Sources") != "down-dept" {
			t.Fatalf("a member's GET of staff: %d, degraded sources %q; want %d", resp.StatusCode, resp.Header.Get("X-Mix-Degraded-Sources"), code)
		}
		if resp.Header.Get(mediator.LeaseHeader) != "" {
			t.Errorf("a %d answer of staff was granted a lease", code)
		}
	}
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
	if p.leased.Load() == 0 {
		t.Error("the owner leased none of its answers")
	}
}

// TestOwnerTakesTheLeaseBackBeforeItAcknowledges holds an owner's
// invalidation to the order the lease contract needs — the holder has given
// its lease back before the owner answers — without racing for it: on one
// processor, the owner's handler runs on this goroutine with a recorder, and
// the holder is served in memory on whichever goroutine sends the
// revocation. An owner that acknowledged first and revoked on a goroutine of
// its own would return with the holder still leased, every time.
func TestOwnerTakesTheLeaseBackBeforeItAcknowledges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	src := &changingSource{dtd: d}
	med := mediator.New("campus")
	if err := med.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView(src.Name(), xmas.MustParse(
		`members = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	var ownerH, holderH *Handler
	var acked atomic.Int64 // revocations the holder has answered
	holder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		holderH.ServeHTTP(w, r)
		if r.URL.Path == cluster.RevokePath {
			acked.Add(1)
		}
	})
	nodes, pinned := map[string]string{"alpha": "http://alpha", "beta": "http://beta"}, map[string][]string{"members": {"alpha"}}
	ownerNode, err := cluster.NewNode(cluster.Config{Self: "alpha", Nodes: nodes, Pinned: pinned,
		Client: &http.Client{Transport: handlerTransport{holder}}})
	if err != nil {
		t.Fatal(err)
	}
	holderNode, err := cluster.NewNode(cluster.Config{Self: "beta", Nodes: nodes, Pinned: pinned,
		Client: &http.Client{Transport: handlerTransport{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ownerH.ServeHTTP(w, r) })}}})
	if err != nil {
		t.Fatal(err)
	}
	ownerH, holderH = New(med, WithCluster(ownerNode)), New(mediator.New("beta-med"), WithCluster(holderNode))
	read := func() string {
		rec := serveOnce(holderH, http.MethodGet, "/views/members", "", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("forwarded GET: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	for i, body := range []string{`{"source": "cs-dept"}`, ""} {
		read() // asks the owner, which grants a lease
		hits := holderNode.Metrics().LeaseHits
		before := read()
		if holderNode.Metrics().LeaseHits != hits+1 {
			t.Fatalf("invalidation %d: the holder's second read was no lease hit", i)
		}
		src.version.Add(1)
		was := acked.Load()
		rec := httptest.NewRecorder()
		ownerH.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate", strings.NewReader(body)))
		if got := acked.Load() - was; got != 1 || rec.Code/100 != 2 {
			t.Fatalf("invalidation %d answered %d with %d revocations acknowledged, want 2xx after 1", i, rec.Code, got)
		}
		hits = holderNode.Metrics().LeaseHits
		if after := read(); after == before || holderNode.Metrics().LeaseHits != hits {
			t.Errorf("invalidation %d: the holder's next read was a lease hit (%v) or the old document (%v)",
				i, holderNode.Metrics().LeaseHits != hits, after == before)
		}
	}
}

// seenTransport is rt, keeping the headers of every request it was asked.
type seenTransport struct {
	rt   http.RoundTripper
	mu   sync.Mutex
	seen []http.Header
}

func (t *seenTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.seen = append(t.seen, req.Header.Clone())
	t.mu.Unlock()
	return t.rt.RoundTrip(req)
}

// take returns the headers of the requests served since the last take.
func (t *seenTransport) take() []http.Header {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := t.seen
	t.seen = nil
	return seen
}

// What a forwarded fetch notes is its own: an owner served in the forwarder's
// process, under the forwarder's request context, makes its own fetches of
// its leaf source, and those neither announce the forwarder's hop path nor
// ask for runs, nor bring their tags into the forwarder's answer. So the
// forwarder relays the owner's ETag, and its next read is a lease hit.
func TestForwardInProcessNotesOnlyItsOwnFetch(t *testing.T) {
	leafSrv, _ := newServerAndMediator(t)
	leaf := &seenTransport{rt: handlerTransport{leafSrv.Config.Handler}}
	src, err := mediator.NewHTTPSource(&http.Client{Transport: leaf}, "http://leaf", "members", mediator.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	med := mediator.New("alpha-med")
	if err := med.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView(src.Name(), xmas.MustParse(
		`staff = SELECT X WHERE <members> X:<professor|gradStudent/> </members>`)); err != nil {
		t.Fatal(err)
	}
	nodes, pinned := map[string]string{"alpha": "http://alpha", "beta": "http://beta"}, map[string][]string{"staff": {"alpha"}}
	ownerNode, err := cluster.NewNode(cluster.Config{Self: "alpha", Nodes: nodes, Pinned: pinned})
	if err != nil {
		t.Fatal(err)
	}
	ownerH := New(med, WithCluster(ownerNode))
	owner := &seenTransport{rt: handlerTransport{ownerH}}
	fwdNode, err := cluster.NewNode(cluster.Config{Self: "beta", Nodes: nodes, Pinned: pinned, Client: &http.Client{Transport: owner}})
	if err != nil {
		t.Fatal(err)
	}
	fwd := New(mediator.New("beta-med"), WithCluster(fwdNode))
	read := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		fwd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/views/staff", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("forwarded GET: %d %s", rec.Code, rec.Body)
		}
		return rec
	}
	leaf.take()
	first := read()
	seen := leaf.take()
	if len(seen) == 0 {
		t.Fatal("the owner's first answer fetched nothing from its leaf")
	}
	for _, h := range seen {
		if h.Get(mediator.ForwardHeader) != "" || h.Get("A-Im") != "" {
			t.Errorf("the owner's leaf fetch carries the forwarder's %s %q and A-IM %q", mediator.ForwardHeader, h.Get(mediator.ForwardHeader), h.Get("A-Im"))
		}
	}
	direct := httptest.NewRecorder()
	ownerH.ServeHTTP(direct, httptest.NewRequest(http.MethodGet, "/views/staff", nil))
	if tag := first.Header().Get("ETag"); tag == "" || tag != direct.Header().Get("ETag") {
		t.Errorf("the forwarded GET relays the ETag %q, the owner's is %q", tag, direct.Header().Get("ETag"))
	}
	owner.take()
	before := fwdNode.Metrics().LeaseHits
	if second := read(); second.Body.String() != first.Body.String() {
		t.Error("the second read answered other bytes")
	}
	if hits, asked := fwdNode.Metrics().LeaseHits-before, len(owner.take()); hits != 1 || asked != 0 {
		t.Errorf("the second read: %d lease hits, %d requests to the owner; want a lease hit", hits, asked)
	}
}
