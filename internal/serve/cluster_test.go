package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mediator"
)

// swapHandler lets a server's URL exist before its handler does: cluster
// configuration needs every member's URL, but building a member's handler
// needs the configuration. Requests arriving before wiring get a 503.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not wired yet", http.StatusServiceUnavailable)
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

// forwarderFor stands up a one-view cluster node "beta" whose only view is
// pinned to an owner at ownerURL — the minimal non-owner that must forward
// everything.
func forwarderFor(t *testing.T, ownerURL, view string) *httptest.Server {
	t.Helper()
	srv, _, _ := forwarderNode(t, ownerURL, view)
	return srv
}

// forwarderNode is forwarderFor with the node and handler behind the server.
func forwarderNode(t *testing.T, ownerURL, view string) (*httptest.Server, *cluster.Node, *Handler) {
	t.Helper()
	node, err := cluster.NewNode(cluster.Config{
		Self:   "beta",
		Nodes:  map[string]string{"alpha": ownerURL, "beta": ""},
		Pinned: map[string][]string{view: {"alpha"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New(mediator.New("beta-med"), WithCluster(node))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, node, h
}

// TestClusterForwarderListsTheView: a non-owner lists the cluster view it
// forwards although it defines nothing, and its /cluster topology reports
// the pinned assignment and the built forward. That what it forwards is the
// owner's, byte for byte, is internal/oracle's hop axis.
func TestClusterForwarderListsTheView(t *testing.T) {
	owner := newServer(t)
	fwd := forwarderFor(t, owner.URL, "members")
	if code, _, _ := get(t, fwd.URL+"/views/members"); code != 200 {
		t.Fatalf("GET /views/members on the forwarder: %d", code)
	}

	// The forwarder lists the cluster view even though it defines nothing.
	code, body, _ := get(t, fwd.URL+"/views")
	if code != 200 || strings.TrimSpace(body) != "members" {
		t.Errorf("views listing: %d %q", code, body)
	}

	// /cluster reports the pinned assignment and the built forward.
	code, body, _ = get(t, fwd.URL+"/cluster")
	if code != 200 {
		t.Fatalf("/cluster: %d %s", code, body)
	}
	var top struct {
		Self  string `json:"self"`
		Views []struct {
			View   string   `json:"view"`
			Owners []string `json:"owners"`
			Pinned bool     `json:"pinned"`
			Local  bool     `json:"local"`
		} `json:"views"`
		ForwardedViews []string `json:"forwarded_views"`
	}
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatalf("/cluster JSON: %v", err)
	}
	if top.Self != "beta" || len(top.Views) != 1 ||
		top.Views[0].View != "members" || !top.Views[0].Pinned || top.Views[0].Local {
		t.Errorf("topology: %+v", top)
	}
	if len(top.ForwardedViews) != 1 || top.ForwardedViews[0] != "members" {
		t.Errorf("forwarded_views = %v, want [members]", top.ForwardedViews)
	}
}

// TestClusterLoopGuard421: a request whose hop path already contains this
// node is misdirected — 421 with the offending path named, not a forward.
func TestClusterLoopGuard421(t *testing.T) {
	owner := newServer(t)
	fwd := forwarderFor(t, owner.URL, "members")

	req, err := http.NewRequest(http.MethodGet, fwd.URL+"/views/members", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(mediator.ForwardHeader, "alpha,beta")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		body.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status %d, want 421: %s", resp.StatusCode, body.String())
	}
	if !strings.Contains(body.String(), "forwarding loop") ||
		!strings.Contains(body.String(), "alpha -> beta") {
		t.Errorf("loop rejection should name the cycle: %q", body.String())
	}
}

// TestClusterPinnedCycle: two nodes each pinning the view to the other —
// the worst misconfiguration the loop guard exists for. The second hop
// detects its own name in the path, answers 421, and the 421 propagates
// un-retried back to the client with the loop named.
func TestClusterPinnedCycle(t *testing.T) {
	lateA, lateB := &swapHandler{}, &swapHandler{}
	srvA := httptest.NewServer(lateA)
	srvB := httptest.NewServer(lateB)
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)

	nodes := map[string]string{"nodeA": srvA.URL, "nodeB": srvB.URL}
	nodeA, err := cluster.NewNode(cluster.Config{
		Self: "nodeA", Nodes: nodes,
		Pinned: map[string][]string{"members": {"nodeB"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := cluster.NewNode(cluster.Config{
		Self: "nodeB", Nodes: nodes,
		Pinned: map[string][]string{"members": {"nodeA"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lateA.set(New(mediator.New("medA"), WithCluster(nodeA)))
	lateB.set(New(mediator.New("medB"), WithCluster(nodeB)))

	code, body, _ := get(t, srvA.URL+"/views/members")
	if code != http.StatusMisdirectedRequest {
		t.Fatalf("cycle request: status %d, want 421: %s", code, body)
	}
	if !strings.Contains(body, "forwarding loop") {
		t.Errorf("cycle error should say 'forwarding loop': %q", body)
	}
}

// TestClusterTaxonomyPassThrough: the owner's degraded/pruned/stale
// response taxonomy survives the forward hop verbatim — the forwarding
// node reports the owner's sources, it does not erase or rename them.
func TestClusterTaxonomyPassThrough(t *testing.T) {
	const viewDTD = `<!DOCTYPE members [
  <!ELEMENT members (#PCDATA)>
]>`
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/views/members/dtd":
			w.Write([]byte(viewDTD))
		case "/views/members":
			w.Header().Set("X-Mix-Degraded", "true")
			w.Header().Set("X-Mix-Degraded-Sources", "cs-dept")
			w.Header().Set("X-Mix-Pruned-Sources", "archive")
			w.Header().Set("X-Mix-Stale-Sources", "mirror")
			w.Write([]byte(viewDTD + "\n<members>hi</members>"))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(owner.Close)

	fwd := forwarderFor(t, owner.URL, "members")
	code, _, hdr := get(t, fwd.URL+"/views/members")
	if code != 200 {
		t.Fatalf("forwarded view: %d", code)
	}
	if hdr.Get("X-Mix-Degraded") != "true" {
		t.Error("degraded flag not passed through")
	}
	if got := hdr.Get("X-Mix-Degraded-Sources"); got != "cs-dept" {
		t.Errorf("degraded sources = %q, want cs-dept", got)
	}
	if got := hdr.Get("X-Mix-Pruned-Sources"); got != "archive" {
		t.Errorf("pruned sources = %q, want archive", got)
	}
	if got := hdr.Get("X-Mix-Stale-Sources"); got != "mirror" {
		t.Errorf("stale sources = %q, want mirror", got)
	}
	if got := hdr.Get(mediator.ForwardHeader); got != "beta" {
		t.Errorf("hop path = %q, want beta", got)
	}
}

// TestClusterForwardFailureTaxonomy: once the peer transport is cached,
// an owner outage turns every forwarded endpoint into a clean 502 naming
// the forward, and a malformed forwarded query stays a local 400 — no
// hangs, no 500s, no retry storms.
func TestClusterForwardFailureTaxonomy(t *testing.T) {
	ownerSrv, _ := newServerAndMediator(t)
	fwd := forwarderFor(t, ownerSrv.URL, "members")

	// Malformed query body: rejected locally before any fetch.
	code, body := postBody(t, fwd.URL+"/views/members/query", "this is not xmas")
	if code != http.StatusBadRequest {
		t.Errorf("bad query: %d %s, want 400", code, body)
	}

	// Warm the transport, then kill the owner.
	if code, body, _ := get(t, fwd.URL+"/views/members"); code != 200 {
		t.Fatalf("warm request: %d %s", code, body)
	}
	ownerSrv.CloseClientConnections()
	ownerSrv.Close()

	for _, path := range []string{
		"/views/members",
		"/views/members/sdtd",
	} {
		code, body, _ := get(t, fwd.URL+path)
		if code != http.StatusBadGateway {
			t.Errorf("%s with owner down: %d, want 502", path, code)
		}
		if !strings.Contains(body, `cluster: forwarding view "members" failed`) {
			t.Errorf("%s error should name the forward: %q", path, body)
		}
	}
	code, body = postBody(t, fwd.URL+"/views/members/query",
		`r = SELECT P WHERE <members> P:<professor/> </members>`)
	if code != http.StatusBadGateway || !strings.Contains(body, "forwarding view") {
		t.Errorf("query with owner down: %d %q, want 502 naming the forward", code, body)
	}
}

// TestClusterUnknownViewStays404: a view neither defined locally nor known
// to the cluster keeps the local 404 taxonomy — forwarding never turns an
// unknown name into a network round trip.
func TestClusterUnknownViewStays404(t *testing.T) {
	owner := newServer(t)
	fwd := forwarderFor(t, owner.URL, "members")
	code, _, _ := get(t, fwd.URL+"/views/nonexistent")
	if code != http.StatusNotFound {
		t.Errorf("unknown view: %d, want 404", code)
	}
}

// TestForwardErrorStatus: only the owner's own 421 stays a 421, and it is
// read off the typed upstream status, however deeply wrapped — never off the
// text, where an address, a port or a view's name can say "421" too.
func TestForwardErrorStatus(t *testing.T) {
	upstream := func(status int, body string) error {
		return &mediator.StatusError{URL: "http://127.0.0.1:8080/views/members", Status: status, Body: body}
	}
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"the owner's 421", upstream(421, "loop detected"), http.StatusMisdirectedRequest},
		{"the owner's 421, wrapped as a replicated forward's fetch wraps it",
			fmt.Errorf("mediator: source cluster:members: all replicas failed: %w",
				fmt.Errorf("mediator: fetching remote view: %w", upstream(421, "loop detected"))),
			http.StatusMisdirectedRequest},
		{"the owner's 404", upstream(404, "unknown view"), http.StatusBadGateway},
		{"the owner's 503 whose body says 421", upstream(503, "upstream said: 421: no"), http.StatusBadGateway},
		{"a dead owner on a port with 421 in it",
			errors.New(`Get "http://127.0.0.1:42177/views/members": dial tcp 127.0.0.1:42177: connect: connection refused`),
			http.StatusBadGateway},
		{"a view whose name spells the old pattern",
			&mediator.StatusError{URL: "http://127.0.0.1:8080/views/a: 421: b", Status: 500, Body: "x"}, http.StatusBadGateway},
		{"the old message text, untyped",
			errors.New(`GET http://127.0.0.1:8080/views/a: 421: b: 421: loop detected`), http.StatusBadGateway},
	} {
		rec := httptest.NewRecorder()
		(&Handler{}).forwardError(rec, "members", c.err)
		if rec.Code != c.want {
			t.Errorf("%s (%v): status %d, want %d", c.name, c.err, rec.Code, c.want)
		}
	}
	// The message a typed error renders is the one the untyped one had.
	if got, want := upstream(421, "loop detected").Error(), `GET http://127.0.0.1:8080/views/members: 421: loop detected`; got != want {
		t.Errorf("StatusError renders %q, want %q", got, want)
	}
}
