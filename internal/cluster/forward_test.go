package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mediator"
)

const fwdDTD = `<!DOCTYPE v [
  <!ELEMENT v (#PCDATA)>
]>`

// peerServer fakes one owner mediator: the view's /dtd, the materialized
// view, and an /sdtd sibling endpoint.
func peerServer(t *testing.T, dtdText, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/views/v/dtd", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, dtdText)
	})
	mux.HandleFunc("/views/v", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, dtdText+"\n"+body)
	})
	mux.HandleFunc("/views/v/sdtd", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "sdtd-payload")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func fwdNode(t *testing.T, pinned []string, urls map[string]string) *Node {
	t.Helper()
	nodes := map[string]string{"self": ""}
	for n, u := range urls {
		nodes[n] = u
	}
	n, err := NewNode(Config{
		Self:   "self",
		Nodes:  nodes,
		Pinned: map[string][]string{"v": pinned},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestForwardSingleOwner: build, fetch, accessor surface, sibling-path
// pass-through, and the build-once cache.
func TestForwardSingleOwner(t *testing.T) {
	owner := peerServer(t, fwdDTD, "<v>hello</v>")
	n := fwdNode(t, []string{"alpha"}, map[string]string{"alpha": owner.URL})
	ctx := context.Background()

	f, err := n.Forward(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	if f.View() != "v" || fmt.Sprint(f.Owners()) != "[alpha]" {
		t.Errorf("identity: view=%s owners=%v", f.View(), f.Owners())
	}
	if f.SchemaText() != fwdDTD {
		t.Errorf("SchemaText not verbatim: %q", f.SchemaText())
	}
	if f.Schema() == nil || f.Schema().Root != "v" {
		t.Errorf("Schema root: %+v", f.Schema())
	}
	if !strings.Contains(f.SourceName(), "/views/v") {
		t.Errorf("single-owner SourceName should be the view URL: %s", f.SourceName())
	}
	if _, ok := f.wrapper.(*mediator.HTTPSource); !ok {
		t.Errorf("single-owner forward fetches through %T, want the owner's HTTPSource alone", f.wrapper)
	}

	doc, stale, err := f.Fetch(ctx)
	if err != nil || stale {
		t.Fatalf("fetch: stale=%v err=%v", stale, err)
	}
	if doc.Root.Name != "v" {
		t.Errorf("fetched root %q", doc.Root.Name)
	}

	body, err := f.GetPath(ctx, "/sdtd")
	if err != nil || body != "sdtd-payload" {
		t.Errorf("GetPath: %q, %v", body, err)
	}

	f2, err := n.Forward(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Error("complete forward should be cached and reused")
	}
	if got := fmt.Sprint(n.ForwardedViews()); got != "[v]" {
		t.Errorf("ForwardedViews = %s", got)
	}
	m := n.Metrics()
	if m.Forwarded != 1 || m.ForwardErrors != 0 || m.ForwardViews != 1 {
		t.Errorf("metrics: %+v", m)
	}
}

// TestForwardNoPeer: a view whose only owner is this node cannot be
// forwarded — the caller misrouted (the view should have been defined
// locally).
func TestForwardNoPeer(t *testing.T) {
	n := fwdNode(t, []string{"self"}, nil)
	if _, err := n.Forward(context.Background(), "v"); err == nil ||
		!strings.Contains(err.Error(), "no owner other than this node") {
		t.Errorf("err = %v", err)
	}
}

// TestForwardReplicated: two owners become a ReplicaSet; killing one is
// absorbed by failover, exactly like a replica failure.
func TestForwardReplicated(t *testing.T) {
	o1 := peerServer(t, fwdDTD, "<v>one</v>")
	o2 := peerServer(t, fwdDTD, "<v>one</v>")
	n := fwdNode(t, []string{"alpha", "beta"},
		map[string]string{"alpha": o1.URL, "beta": o2.URL})
	ctx := context.Background()

	f, err := n.Forward(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	if f.SourceName() != "cluster:v" {
		t.Errorf("replicated SourceName = %s, want cluster:v", f.SourceName())
	}
	if rs, ok := f.wrapper.(*mediator.ReplicaSet); !ok || len(rs.ReplicaStatus().Replicas) != 2 {
		t.Errorf("replicated forward fetches through %T, want a ReplicaSet of 2", f.wrapper)
	}
	if _, stale, err := f.Fetch(ctx); err != nil || stale {
		t.Fatalf("fetch both-up: stale=%v err=%v", stale, err)
	}

	o1.CloseClientConnections()
	o1.Close()
	if _, _, err := f.Fetch(ctx); err != nil {
		t.Fatalf("fetch with one owner down must fail over: %v", err)
	}
}

// TestForwardIncompleteNotCached: a build that reached only some owners
// serves but is not cached, so the next request retries the full set.
func TestForwardIncompleteNotCached(t *testing.T) {
	up := peerServer(t, fwdDTD, "<v>up</v>")
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // unreachable owner
	n := fwdNode(t, []string{"alpha", "beta"},
		map[string]string{"alpha": up.URL, "beta": down.URL})
	ctx := context.Background()

	f, err := n.Forward(ctx, "v")
	if err != nil {
		t.Fatalf("partial build should still serve: %v", err)
	}
	if f.complete {
		t.Error("build missing an owner must not be marked complete")
	}
	if _, _, err := f.Fetch(ctx); err != nil {
		t.Errorf("fetch through the reachable owner: %v", err)
	}
	if got := n.ForwardedViews(); len(got) != 0 {
		t.Errorf("incomplete forward must not be cached: %v", got)
	}
	f2, err := n.Forward(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	if f2 == f {
		t.Error("next request should rebuild, not reuse the partial forward")
	}
}

// TestForwardSplitBrain: owners serving language-different DTDs for the
// same view are a deployment error, refused — never averaged.
func TestForwardSplitBrain(t *testing.T) {
	o1 := peerServer(t, fwdDTD, "<v>x</v>")
	o2 := peerServer(t, `<!DOCTYPE v [
  <!ELEMENT v (w*)>
  <!ELEMENT w (#PCDATA)>
]>`, "<v></v>")
	n := fwdNode(t, []string{"alpha", "beta"},
		map[string]string{"alpha": o1.URL, "beta": o2.URL})
	_, err := n.Forward(context.Background(), "v")
	if err == nil || !strings.Contains(err.Error(), "owners disagree") {
		t.Errorf("split-brain err = %v", err)
	}
}

// TestForwardErrorCounted: an unreachable sole owner fails the build and
// shows up in the error counter.
func TestForwardErrorCounted(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	n := fwdNode(t, []string{"alpha"}, map[string]string{"alpha": gone.URL})
	if _, err := n.Forward(context.Background(), "v"); err == nil {
		t.Fatal("build against a dead owner must fail")
	}
	if got := n.Metrics().ForwardErrors; got != 1 {
		t.Errorf("forward_errors = %d, want 1", got)
	}
}

// gatedOwner fakes an owner whose view DTD answers with status only once
// release is closed, and counts the DTD requests it gets.
func gatedOwner(t *testing.T, status int, release <-chan struct{}) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var gets atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/views/v/dtd", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		<-release
		w.WriteHeader(status)
		fmt.Fprint(w, fwdDTD)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &gets
}

// waitedCtx reports on waiting the first time its Done is asked for: a
// request that builds asks it in its round trip, one that joins the build
// in its wait.
type waitedCtx struct {
	context.Context
	once    sync.Once
	waiting chan<- struct{}
}

func (c *waitedCtx) Done() <-chan struct{} {
	c.once.Do(func() { c.waiting <- struct{}{} })
	return c.Context.Done()
}

// TestForwardBuildOncePerBurst: a burst of first requests for a view runs
// one build — one DTD request to the owner — and every request gets what it
// landed: the Forward, or the failure. A failed build is not kept: the next
// request asks the owner again.
func TestForwardBuildOncePerBurst(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
	}{{"built", http.StatusOK}, {"failed", http.StatusNotFound}} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			owner, gets := gatedOwner(t, tc.status, release)
			n := fwdNode(t, []string{"alpha"}, map[string]string{"alpha": owner.URL})
			const burst = 4
			waiting := make(chan struct{}, burst)
			fwds, errs := make([]*Forward, burst), make([]error, burst)
			var wg sync.WaitGroup
			for i := range burst {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fwds[i], errs[i] = n.Forward(&waitedCtx{Context: context.Background(), waiting: waiting}, "v")
				}()
			}
			for i := 0; i < burst; i++ {
				select {
				case <-waiting:
				case <-time.After(time.Second):
					i = burst // a request that neither builds nor joins the build waits for it to end
				}
			}
			close(release)
			wg.Wait()
			if got := gets.Load(); got != 1 {
				t.Errorf("%d concurrent first requests made %d DTD requests to the owner, want 1", burst, got)
			}
			for i := range burst {
				if fwds[i] != fwds[0] || fmt.Sprint(errs[i]) != fmt.Sprint(errs[0]) {
					t.Errorf("request %d got %p, %v; request 0 %p, %v", i, fwds[i], errs[i], fwds[0], errs[0])
				}
			}
			if failed := errs[0] != nil; failed != (tc.status != http.StatusOK) {
				t.Fatalf("build error %v with owner status %d", errs[0], tc.status)
			}
			if tc.status == http.StatusOK {
				return
			}
			if got := n.Metrics().ForwardErrors; got != burst {
				t.Errorf("forward_errors = %d, want one per failed request (%d)", got, burst)
			}
			if _, err := n.Forward(context.Background(), "v"); err == nil || gets.Load() != 2 {
				t.Errorf("after a failed build: %v, %d DTD requests; want the owner asked again", err, gets.Load())
			}
		})
	}
}

// TestForwardJoinerLeavesWithItsContext: a request that joins a build under
// way returns as soon as its own context ends, while the build goes on for
// the request running it.
func TestForwardJoinerLeavesWithItsContext(t *testing.T) {
	release := make(chan struct{})
	owner, gets := gatedOwner(t, http.StatusOK, release)
	n := fwdNode(t, []string{"alpha"}, map[string]string{"alpha": owner.URL})
	built := make(chan error, 1)
	go func() {
		_, err := n.Forward(context.Background(), "v")
		built <- err
	}()
	for gets.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	left := make(chan error, 1)
	go func() {
		_, err := n.Forward(ctx, "v")
		left <- err
	}()
	select {
	case err := <-left:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("the joiner that left got %v, want its context's error", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("a joiner whose context ended waits for the owner")
	}
	close(release)
	if err := <-built; err != nil {
		t.Fatalf("the build: %v", err)
	}
	if got := n.ForwardedViews(); len(got) != 1 {
		t.Errorf("forwarded views = %v, want the build kept", got)
	}
}

// A lease hit relays the owner's tag and nothing else, so the forwarder keeps
// a granted lease only from an answer with nothing else to relay: one that
// names a source pruned, stale or degraded, or relays another node's hop
// path, installs none, whatever the owner granted.
func TestForwardLeasesOnlyAnAnswerWithNothingButItsTag(t *testing.T) {
	for _, c := range []struct {
		header, value string
	}{
		{"", ""},
		{"X-Mix-Pruned-Sources", "archive"},
		{"X-Mix-Stale-Sources", "mirror"},
		{"X-Mix-Degraded", "true"},
		{"X-Mix-Degraded-Sources", "cs"},
		{mediator.ForwardHeader, "self,gamma"},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("/views/v/dtd", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, fwdDTD) })
		mux.HandleFunc("/views/v", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `"t1"`)
			w.Header().Set(mediator.LeaseHeader, "1000")
			if c.header != "" {
				w.Header().Set(c.header, c.value)
			}
			fmt.Fprint(w, fwdDTD+"\n<v>hello</v>")
		})
		owner := httptest.NewServer(mux)
		n := fwdNode(t, []string{"alpha"}, map[string]string{"alpha": owner.URL})
		note := mediator.NewForwardNote(context.Background(), []string{"self"})
		f, err := n.Forward(note, "v")
		if err == nil {
			_, _, err = f.Fetch(note)
		}
		owner.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.header, err)
		}
		if leased := !n.LeaseExpiry("v").IsZero(); leased != (c.header == "") || note.Tag() != `"t1"` {
			t.Errorf("an answer with %s %q: leased %v, relayed tag %q", c.header, c.value, leased, note.Tag())
		}
	}
}
