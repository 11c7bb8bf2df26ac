package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/serve"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The lease protocol (lease.go) on a clock the test turns: an owner alpha of
// view members and a forwarder beta are the serve package's handlers, so the
// grant, the revocation route and the forwarder's fetch are the ones a fleet
// runs.

const deptDTD = `<!DOCTYPE dept [
  <!ELEMENT dept (prof*)>
  <!ELEMENT prof (#PCDATA)>
]>`

// dept is the owner's one source: the document set last. A document handed
// out is never written again; set replaces it.
type dept struct {
	d   *dtd.DTD
	doc atomic.Pointer[xmlmodel.Document]
}

func (s *dept) Name() string     { return "dept" }
func (s *dept) Schema() *dtd.DTD { return s.d }
func (s *dept) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	return s.doc.Load(), nil
}

func (s *dept) set(t *testing.T, profs ...string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("<dept>")
	for _, p := range profs {
		fmt.Fprintf(&b, "<prof>%s</prof>", p)
	}
	b.WriteString("</dept>")
	doc, _, err := xmlmodel.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	s.doc.Store(doc)
}

// fakeClock is a node's clock: it reads what the test set, plus step on
// every reading, and a sleep moves it on by the time slept.
type fakeClock struct {
	mu    sync.Mutex
	t     time.Time
	step  time.Duration
	slept []time.Duration
}

func newClock() *fakeClock { return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slept = append(c.slept, d)
	c.t = c.t.Add(d)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// reading is the clock's time without a step.
func (c *fakeClock) reading() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func newNode(t *testing.T, self string, urls map[string]string, clock *fakeClock) *cluster.Node {
	t.Helper()
	n, err := cluster.NewNode(cluster.Config{Self: self, Nodes: urls, Pinned: map[string][]string{"members": {"alpha"}}})
	if err != nil {
		t.Fatal(err)
	}
	n.SetClock(clock.now, clock.sleep)
	return n
}

func urlOf(srv *httptest.Server) string { return "http://" + srv.Listener.Addr().String() }

// fleet is owner alpha and forwarder beta on one clock.
type fleet struct {
	src        *dept
	med        *mediator.Mediator // the owner's
	owner, fwd *cluster.Node
	fwdURL     string
	// ownerGets counts the GET /views/members the owner was sent; hook, when
	// set, runs at the start of each.
	ownerGets atomic.Int64
	hook      atomic.Pointer[func()]
}

// newFleet stands the two nodes up, with the members of extra besides, and
// runs the clock past their start grace.
func newFleet(t *testing.T, clock *fakeClock, extra map[string]string) *fleet {
	t.Helper()
	d, err := dtd.Parse(deptDTD)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{src: &dept{d: d}}
	f.src.set(t, "ada", "bob")
	med := mediator.New("alpha-med")
	f.med = med
	if err := med.AddSource(f.src); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("dept", xmas.MustParse(`members = SELECT X WHERE <dept> X:<prof/> </dept>`)); err != nil {
		t.Fatal(err)
	}
	ownerSrv, fwdSrv := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	urls := map[string]string{"alpha": urlOf(ownerSrv), "beta": urlOf(fwdSrv)}
	for name, url := range extra {
		urls[name] = url
	}
	f.owner = newNode(t, "alpha", urls, clock)
	f.fwd = newNode(t, "beta", urls, clock)
	owner := serve.New(med, serve.WithCluster(f.owner))
	ownerSrv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/views/members" {
			f.ownerGets.Add(1)
			if hook := f.hook.Load(); hook != nil {
				(*hook)()
			}
		}
		owner.ServeHTTP(w, r)
	})
	fwdSrv.Config.Handler = serve.New(mediator.New("beta-med"), serve.WithCluster(f.fwd))
	for _, srv := range []*httptest.Server{ownerSrv, fwdSrv} {
		srv.Start()
		t.Cleanup(srv.Close)
	}
	f.fwdURL = urlOf(fwdSrv)
	clock.advance(cluster.LeaseTerm)
	return f
}

// read is a forwarded GET /views/members: the body and the ETag.
func (f *fleet) read(t *testing.T) (string, string) {
	t.Helper()
	resp, err := http.Get(f.fwdURL + "/views/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded read: %d %s %v", resp.StatusCode, body, err)
	}
	return string(body), resp.Header.Get("ETag")
}

// A lease answers without asking until it ends — body and ETag those of the
// fetch that was granted it — and the first read after it ends asks the owner
// (a 304 here: nothing changed), which grants it anew.
func TestLeaseAnswersUntilItEnds(t *testing.T) {
	clock := newClock()
	f := newFleet(t, clock, nil)
	body, tag := f.read(t)
	if tag == "" || f.ownerGets.Load() != 1 || f.owner.Metrics().LeasesGranted != 1 {
		t.Fatalf("first read: ETag %q, %d owner GETs, %d leases granted", tag, f.ownerGets.Load(), f.owner.Metrics().LeasesGranted)
	}
	for i := 0; i < 3; i++ {
		if b, tg := f.read(t); b != body || tg != tag {
			t.Fatalf("leased read %d: another answer (ETag %q, was %q)", i, tg, tag)
		}
	}
	if f.ownerGets.Load() != 1 || f.fwd.Metrics().LeaseHits != 3 {
		t.Errorf("three reads under the lease: %d owner GETs, %d lease hits; want 1 and 3", f.ownerGets.Load(), f.fwd.Metrics().LeaseHits)
	}

	clock.advance(cluster.LeaseTerm)
	if b, tg := f.read(t); b != body || tg != tag {
		t.Error("the read after the lease ended: another answer")
	}
	m := f.fwd.Metrics()
	if f.ownerGets.Load() != 2 || m.NotModified != 1 || f.owner.Metrics().LeasesGranted != 2 {
		t.Errorf("after the term: %d owner GETs, %d not modified, %d leases granted; want 2, 1, 2",
			f.ownerGets.Load(), m.NotModified, f.owner.Metrics().LeasesGranted)
	}
	f.read(t)
	if f.ownerGets.Load() != 2 || f.fwd.Metrics().LeaseHits != 4 {
		t.Errorf("the renewed lease: %d owner GETs, %d lease hits; want 2 and 4", f.ownerGets.Load(), f.fwd.Metrics().LeaseHits)
	}
}

// A lease is a term on a tag: a hit serves the document a transport holds
// under it. When a fetch that installs no lease — one without a forward's note,
// which asks for no runs — has replaced that record, no record holds the
// lease's tag, and the next forwarded read asks the owner: it is served the
// document the transport then holds, its query finds that record's runs'
// memos, and the lease its answer was granted is a term on that document.
func TestLeaseOfATagNoLongerHeldIsAMiss(t *testing.T) {
	clock := newClock()
	f := newFleet(t, clock, nil)
	ctx := context.Background()
	member := func() context.Context {
		return mediator.NewForwardNote(ctx, []string{"beta"})
	}
	fwd, err := f.fwd.Forward(member(), "members")
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := fwd.Fetch(member())
	if err != nil || f.fwd.LeaseExpiry("members").IsZero() {
		t.Fatalf("the first read: %v, lease until %v", err, f.fwd.LeaseExpiry("members"))
	}
	// The owner's document changes and no revocation tells beta: the owner's
	// mediator is invalidated directly. The transport's own fetch brings it.
	f.src.set(t, "ada", "bob", "cy")
	if _, err := f.med.InvalidateSource("dept"); err != nil {
		t.Fatal(err)
	}
	src := f.fwd.Transport("members")
	replaced, err := src.Fetch(ctx)
	if held, _, _ := src.Held(); err != nil || replaced == first || held != replaced {
		t.Fatalf("the unleased fetch: %v; a new document %v, held %v", err, replaced != first, held == replaced)
	}

	plan, err := mediator.New("beta-med").ParsePlan(ctx, []byte(`r = SELECT X WHERE <members> X:<prof/> </members>`))
	if err != nil {
		t.Fatal(err)
	}
	before := f.fwd.Metrics()
	doc, _, err := fwd.Fetch(member())
	after := f.fwd.Metrics()
	if err != nil || after.LeaseHits != before.LeaseHits || after.NotModified+after.Deltas != before.NotModified+before.Deltas+1 {
		t.Fatalf("the read after: %v; %d lease hits, %d not modified, %d deltas; want the owner asked once",
			err, after.LeaseHits-before.LeaseHits, after.NotModified-before.NotModified, after.Deltas-before.Deltas)
	}
	if held, _, _ := src.Held(); doc != held || doc != replaced {
		t.Fatalf("the read after was served a document no record holds (held %v, the replacing one %v)", doc == held, doc == replaced)
	}
	for _, want := range []string{"evaluated", "streamed"} {
		if _, how, err := fwd.Answer(plan, doc); err != nil || how != want {
			t.Fatalf("the query over it: %s (want %s), %v", how, want, err)
		}
	}
	again, _, err := fwd.Fetch(member())
	if err != nil || again != doc || f.fwd.Metrics().LeaseHits != after.LeaseHits+1 {
		t.Errorf("the read after that: %v, the same document %v, %d lease hits; want a hit",
			err, again == doc, f.fwd.Metrics().LeaseHits-after.LeaseHits)
	}
}

// The owner's fence: a revocation between the epoch read (Offer) and the
// grant means no lease, and a wholesale one moves every view's epoch. A lease
// goes only to a configured member other than the owner, named last on the
// hop path, and only on a cluster view.
func TestRevocationBeforeTheGrantLeasesNothing(t *testing.T) {
	ctx := context.Background()
	clock := newClock()
	f := newFleet(t, clock, nil)
	for _, revoke := range []func(){
		func() { f.owner.Revoke(ctx, "members") },
		func() { f.owner.RevokeAll(ctx) },
	} {
		o, ok := f.owner.Offer("members", "beta")
		if !ok {
			t.Fatal("beta was offered no lease")
		}
		revoke()
		if f.owner.Grant(o) {
			t.Error("a lease was granted against an epoch a revocation had moved")
		}
	}
	if !f.owner.GrantExpiry("members", "beta").IsZero() || f.owner.Metrics().LeasesGranted != 0 {
		t.Fatal("a fenced grant was recorded")
	}
	o, _ := f.owner.Offer("members", "beta")
	f.owner.Revoke(ctx, "other") // another view's revocation fences nothing here
	if !f.owner.Grant(o) || f.owner.GrantExpiry("members", "beta") != clock.reading().Add(cluster.LeaseTerm) {
		t.Error("a grant with no revocation of its view since its offer was refused, or not for one term")
	}
	for _, c := range []struct{ view, hops string }{
		{"members", ""}, {"members", "client"}, {"members", "alpha"}, {"members", "beta,alpha"}, {"nope", "beta"},
	} {
		if _, ok := f.owner.Offer(c.view, c.hops); ok {
			t.Errorf("view %q from hops %q was offered a lease", c.view, c.hops)
		}
	}
	if _, ok := f.owner.Offer("members", "gamma, beta"); !ok {
		t.Error("the last hop of a path is the holder")
	}
}

// The forwarder's fence: a revocation that reaches the forwarder while the
// owner's granting answer is on its way means the lease is not installed —
// the next read asks again.
func TestRevocationInFlightInstallsNothing(t *testing.T) {
	clock := newClock()
	f := newFleet(t, clock, nil)
	hook := func() { f.fwd.Revoked("members") }
	f.hook.Store(&hook)
	f.read(t)
	f.hook.Store(nil)
	if f.owner.Metrics().LeasesGranted != 1 {
		t.Fatal("the owner granted no lease to fence")
	}
	if exp := f.fwd.LeaseExpiry("members"); !exp.IsZero() {
		t.Fatalf("a lease revoked while its grant was in flight was installed, until %v", exp)
	}
	f.read(t)
	f.read(t)
	if f.ownerGets.Load() != 2 || f.fwd.Metrics().LeaseHits != 1 {
		t.Errorf("%d owner GETs and %d lease hits; want 2 and 1 — asked again, then leased", f.ownerGets.Load(), f.fwd.Metrics().LeaseHits)
	}
}

// The forwarder counts the term from before it sent, the owner from the
// grant: on a clock that moves with every reading the forwarder's lease ends
// first.
func TestForwarderLeaseEndsFirst(t *testing.T) {
	clock := newClock()
	f := newFleet(t, clock, nil)
	clock.mu.Lock()
	clock.step = time.Millisecond
	clock.mu.Unlock()
	f.read(t)
	fwd, owner := f.fwd.LeaseExpiry("members"), f.owner.GrantExpiry("members", "beta")
	if fwd.IsZero() || !fwd.Before(owner) {
		t.Errorf("the forwarder's lease ends at %v, the owner's at %v: not first", fwd, owner)
	}
}

// A holder that does not acknowledge is waited out to exactly the end of the
// lease the owner granted it, and then forgotten; a lease that already ended
// is nobody's to tell.
func TestUnreachableHolderIsWaitedOut(t *testing.T) {
	ctx := context.Background()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	clock := newClock()
	n := newNode(t, "alpha", map[string]string{"alpha": "http://unused", "beta": gone.URL}, clock)
	clock.advance(cluster.LeaseTerm)
	o, _ := n.Offer("members", "beta")
	if !n.Grant(o) {
		t.Fatal("no grant")
	}
	expires := n.GrantExpiry("members", "beta")
	n.Revoke(ctx, "members")
	if at := clock.reading(); !at.Equal(expires) || fmt.Sprint(clock.slept) != fmt.Sprint([]time.Duration{cluster.LeaseTerm}) {
		t.Errorf("the revocation returned at %v having slept %v; the lease ended at %v", at, clock.slept, expires)
	}
	if m := n.Metrics(); m.RevocationsSent != 1 || m.RevocationsWaitedOut != 1 {
		t.Errorf("%d revocations sent, %d waited out; want 1 and 1", m.RevocationsSent, m.RevocationsWaitedOut)
	}
	if !n.GrantExpiry("members", "beta").IsZero() {
		t.Error("the revoked grant is still recorded")
	}

	o, _ = n.Offer("members", "beta")
	n.Grant(o)
	clock.advance(cluster.LeaseTerm)
	n.Revoke(ctx, "members")
	if m := n.Metrics(); m.RevocationsSent != 1 || len(clock.slept) != 1 {
		t.Errorf("a lease that had ended was revoked: %d sent, slept %v", m.RevocationsSent, clock.slept)
	}
}

// recorder is a member that acknowledges revocations and keeps them; when
// hold is set, each one waits for it to close first.
type recorder struct {
	mu      sync.Mutex
	got     []string
	arrived chan struct{}
	hold    chan struct{}
}

func newRecorder(t *testing.T) (*recorder, string) {
	t.Helper()
	r := &recorder{arrived: make(chan struct{}, 8)}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || req.URL.Path != cluster.RevokePath {
			http.NotFound(w, req)
			return
		}
		var rev cluster.Revocation
		if err := json.NewDecoder(req.Body).Decode(&rev); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.arrived <- struct{}{}
		if r.hold != nil {
			<-r.hold
		}
		r.mu.Lock()
		r.got = append(r.got, strings.Join(rev.Views, ","))
		r.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(srv.Close)
	return r, srv.URL
}

func (r *recorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	got := r.got
	r.got = nil
	return got
}

// Two revocations of one view: the second — which finds no holder left to
// tell — returns only once the first has told its holder.
func TestRevocationsOfOneViewAreOrdered(t *testing.T) {
	ctx := context.Background()
	beta, url := newRecorder(t)
	beta.hold = make(chan struct{})
	clock := newClock()
	n := newNode(t, "alpha", map[string]string{"alpha": "http://unused", "beta": url}, clock)
	clock.advance(cluster.LeaseTerm)
	o, _ := n.Offer("members", "beta")
	n.Grant(o)

	first, second := make(chan struct{}), make(chan struct{})
	go func() { n.Revoke(ctx, "members"); close(first) }()
	<-beta.arrived // the first is telling beta, who does not answer yet
	go func() { n.Revoke(ctx, "members"); close(second) }()
	select {
	case <-second:
		t.Error("the second revocation returned while the first was still telling its holder")
	case <-time.After(100 * time.Millisecond):
	}
	close(beta.hold)
	<-first
	<-second
	if got := beta.take(); fmt.Sprint(got) != "[members]" {
		t.Errorf("beta was told %v, want [members] once", got)
	}
}

// For one term after it starts a node tells every member about every view it
// revokes — it cannot know what its previous incarnation granted — and after
// the term only the holders it granted.
func TestStartGraceTellsEveryMember(t *testing.T) {
	ctx := context.Background()
	beta, betaURL := newRecorder(t)
	gamma, gammaURL := newRecorder(t)
	clock := newClock()
	n := newNode(t, "alpha", map[string]string{"alpha": "http://unused", "beta": betaURL, "gamma": gammaURL}, clock)
	clock.advance(cluster.LeaseTerm / 2)
	n.Revoke(ctx, "members")
	n.RevokeAll(ctx)
	for name, r := range map[string]*recorder{"beta": beta, "gamma": gamma} {
		if got := r.take(); fmt.Sprint(got) != "[members members]" {
			t.Errorf("in the grace term %s was told %v, want [members members]", name, got)
		}
	}
	if m := n.Metrics(); m.RevocationsSent != 4 || m.RevocationsWaitedOut != 0 {
		t.Errorf("%d sent, %d waited out; want 4 and 0", m.RevocationsSent, m.RevocationsWaitedOut)
	}

	clock.advance(cluster.LeaseTerm / 2)
	o, _ := n.Offer("members", "gamma")
	n.Grant(o)
	n.Revoke(ctx, "members")
	if b, g := beta.take(), gamma.take(); len(b) != 0 || fmt.Sprint(g) != "[members]" {
		t.Errorf("after the grace term: beta told %v, gamma %v; want nothing and [members]", b, g)
	}
}
