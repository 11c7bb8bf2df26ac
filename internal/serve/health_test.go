package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// flakyWrapper is a mediator source that fails on demand.
type flakyWrapper struct {
	name    string
	doc     *xmlmodel.Document
	schema  *dtd.DTD
	failing atomic.Bool
}

func (f *flakyWrapper) Name() string     { return f.name }
func (f *flakyWrapper) Schema() *dtd.DTD { return f.schema }
func (f *flakyWrapper) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if f.failing.Load() {
		return nil, errors.New(f.name + " unreachable")
	}
	return f.doc, nil
}

// decorated registers a ReplicaSet the way a fault campaign does: under a
// (here fault-free) FaultSource. What the set reports and notes must reach
// the handlers through it.
func decorated(w mediator.Wrapper) mediator.Wrapper { return mediator.NewFaultSource(w) }

// replicaFixture builds a mediator whose single source is a ReplicaSet of
// two flaky replicas — registered as wrap makes it (nil: as is) — under the
// union view "profs", served over HTTP.
func replicaFixture(t *testing.T, opts mediator.ReplicaSetOptions, wrap func(mediator.Wrapper) mediator.Wrapper) (*httptest.Server, *mediator.Mediator, []*flakyWrapper) {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDoc)
	if err != nil {
		t.Fatal(err)
	}
	flakies := []*flakyWrapper{
		{name: "r0", doc: doc, schema: d},
		{name: "r1", doc: doc, schema: d},
	}
	rs, err := mediator.NewReplicaSet("dept-rs",
		[]mediator.Wrapper{flakies[0], flakies[1]}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var registered mediator.Wrapper = rs
	if wrap != nil {
		registered = wrap(rs)
	}
	m := mediator.New("campus")
	if err := m.AddSource(registered); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineUnionView("profs", []mediator.ViewPart{{
		Source: "dept-rs",
		Query:  xmas.MustParse(`SELECT X WHERE <department> X:<professor/> </department>`),
	}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(m))
	t.Cleanup(srv.Close)
	return srv, m, flakies
}

func setFailing(flakies []*flakyWrapper, v bool) {
	for _, f := range flakies {
		f.failing.Store(v)
	}
}

// TestHealthz: liveness is unconditional — the process answering is the
// whole check.
func TestHealthz(t *testing.T) {
	srv := newServer(t)
	code, body, _ := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

// TestReadyzReady: a mediator with views and healthy sources is ready.
func TestReadyzReady(t *testing.T) {
	srv := newServer(t)
	code, body, _ := get(t, srv.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, body)
	}
	if !strings.Contains(body, `"ready": true`) {
		t.Errorf("body = %s", body)
	}
}

// TestReadyzNoViews: an instance with nothing to serve must not take
// traffic.
func TestReadyzNoViews(t *testing.T) {
	srv := httptest.NewServer(New(mediator.New("empty")))
	defer srv.Close()
	code, body, _ := get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503", code)
	}
	if !strings.Contains(body, "no views defined") {
		t.Errorf("body = %s", body)
	}
}

// TestReadyzReplicaOutage: a source whose every replica is ejected and
// that has no stale fallback makes the instance not-ready; the same
// outage with a warmed last-known-good (and stale serving on) keeps it
// ready, because that is exactly the mode it would answer in. Where the set
// sits in its source's decorator stack makes no difference.
func TestReadyzReplicaOutage(t *testing.T) {
	t.Run("registered", func(t *testing.T) { testReadyzReplicaOutage(t, nil) })
	t.Run("under a decorator", func(t *testing.T) { testReadyzReplicaOutage(t, decorated) })
}

func testReadyzReplicaOutage(t *testing.T, wrap func(mediator.Wrapper) mediator.Wrapper) {
	health := mediator.HealthOptions{EjectAfter: 2}

	// No stale fallback: ejecting every replica flips readiness.
	srv, _, flakies := replicaFixture(t, mediator.ReplicaSetOptions{
		HedgeDelay: -1, DisableStaleServe: true, Health: health,
	}, wrap)
	setFailing(flakies, true)
	for i := 0; i < 2; i++ {
		if code, _, _ := get(t, srv.URL+"/views/profs"); code < 500 {
			t.Fatalf("outage materialization %d = %d, want 5xx", i, code)
		}
	}
	code, body, _ := get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503: %s", code, body)
	}
	if !strings.Contains(body, "dept-rs") || !strings.Contains(body, "no stale fallback") {
		t.Errorf("body = %s", body)
	}

	// Stale fallback available: still ready through the same outage.
	srv2, _, flakies2 := replicaFixture(t, mediator.ReplicaSetOptions{
		HedgeDelay: -1, Health: health,
	}, wrap)
	if code, _, _ := get(t, srv2.URL+"/views/profs"); code != http.StatusOK {
		t.Fatalf("warmup = %d", code)
	}
	setFailing(flakies2, true)
	for i := 0; i < 2; i++ {
		if code, _, _ := get(t, srv2.URL+"/views/profs"); code != http.StatusOK {
			t.Fatalf("stale materialization %d = %d, want 200", i, code)
		}
	}
	code, body, _ = get(t, srv2.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200 (stale fallback counts as servable): %s", code, body)
	}
	if !strings.Contains(body, `"has_last_known_good": true`) {
		t.Errorf("body = %s", body)
	}
}

// TestStaleHeaderOnViewAndQuery: a total replica outage after a warm
// fetch serves the last known good with X-Mix-Stale-Sources set on both
// the view and the query endpoints — and without X-Mix-Degraded, which
// means something else (missing parts).
func TestStaleHeaderOnViewAndQuery(t *testing.T) {
	t.Run("registered", func(t *testing.T) { testStaleHeaderOnViewAndQuery(t, nil) })
	t.Run("under a decorator", func(t *testing.T) { testStaleHeaderOnViewAndQuery(t, decorated) })
}

func testStaleHeaderOnViewAndQuery(t *testing.T, wrap func(mediator.Wrapper) mediator.Wrapper) {
	srv, m, flakies := replicaFixture(t, mediator.ReplicaSetOptions{
		HedgeDelay: -1,
		Health:     mediator.HealthOptions{EjectAfter: 100},
	}, wrap)
	code, _, hdr := get(t, srv.URL+"/views/profs")
	if code != http.StatusOK || hdr.Get("X-Mix-Stale-Sources") != "" {
		t.Fatalf("warm view = %d, stale=%q", code, hdr.Get("X-Mix-Stale-Sources"))
	}

	setFailing(flakies, true)
	if _, err := m.InvalidateSource("dept-rs"); err != nil {
		t.Fatal(err)
	}
	code, body, hdr := get(t, srv.URL+"/views/profs")
	if code != http.StatusOK {
		t.Fatalf("stale view = %d: %s", code, body)
	}
	if got := hdr.Get("X-Mix-Stale-Sources"); got != "dept-rs" {
		t.Errorf("X-Mix-Stale-Sources = %q, want dept-rs", got)
	}
	if hdr.Get("X-Mix-Degraded") != "" {
		t.Error("stale serving is complete and must not be advertised as degraded")
	}
	if !strings.Contains(body, "<professor") {
		t.Errorf("stale body lost its content: %s", body)
	}

	resp, err := http.Post(srv.URL+"/views/profs/query", "text/plain",
		strings.NewReader(`r = SELECT X WHERE <profs> X:<professor/> </profs>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale query = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mix-Stale-Sources"); got != "dept-rs" {
		t.Errorf("query X-Mix-Stale-Sources = %q, want dept-rs", got)
	}
}
