package serve

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/xmlmodel"
)

// panickySource is a wrapper that panics in Fetch while told to, after the
// gate (when there is one) opens.
type panickySource struct {
	mediator.Wrapper
	panics  atomic.Bool
	entered chan struct{} // receives once per Fetch that reaches the gate
	gate    chan struct{}
}

func (s *panickySource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if s.gate != nil {
		s.entered <- struct{}{}
		<-s.gate
	}
	if s.panics.Load() {
		panic("wrapper blew up")
	}
	return s.Wrapper.Fetch(ctx)
}

// panickyNode serves view "w" over two departments, s1 behind a
// panickySource. s1's part comes first, so that a read that leads both runs
// it on a goroutine of its own (the last part runs on the reading one).
func panickyNode(t *testing.T) (*mediator.Mediator, *panickySource) {
	t.Helper()
	srcs, _ := staticDepartments(t)
	m := mediator.New("node")
	if err := m.AddSource(srcs[0]); err != nil {
		t.Fatal(err)
	}
	bad := &panickySource{Wrapper: srcs[1]}
	if err := m.AddSource(bad); err != nil {
		t.Fatal(err)
	}
	mustDefine(t, m, "w", []string{"s1", "s0"}, func(int) string { return professorsOf("department") })
	return m, bad
}

// TestPanickingWrapperFailsTheRead: a wrapper that panics fails the read that
// fetched from it with a 500 — whether its part is the only one the read
// leads (run on the reading goroutine), one of several (run on goroutines of
// their own), or one the read joined — and takes nothing else down: the
// handler is called directly, so a panic that escaped the read would fail the
// test. The slot keeps nothing, so the first read after the wrapper recovers
// fetches again and succeeds.
func TestPanickingWrapperFailsTheRead(t *testing.T) {
	read := func(t *testing.T, srv http.Handler, want int) {
		t.Helper()
		if rec := serveOnce(srv, http.MethodGet, "/views/w", "", ""); rec.Code != want {
			t.Fatalf("GET /views/w: %d %s, want %d", rec.Code, rec.Body, want)
		}
	}
	recovers := func(t *testing.T, srv http.Handler, bad *panickySource) {
		t.Helper()
		read(t, srv, http.StatusInternalServerError) // the slot kept nothing: asked again, panics again
		bad.panics.Store(false)
		read(t, srv, http.StatusOK)
		if rec := serveOnce(srv, http.MethodGet, "/sources", "", ""); rec.Code != http.StatusOK {
			t.Fatalf("GET /sources after the panics: %d", rec.Code)
		}
	}

	t.Run("one of several parts", func(t *testing.T) {
		m, bad := panickyNode(t)
		srv := New(m)
		bad.panics.Store(true)
		rec := serveOnce(srv, http.MethodGet, "/views/w", "", "")
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "wrapper blew up") {
			t.Fatalf("GET /views/w: %d %q, want a 500 that names the panic", rec.Code, rec.Body)
		}
		recovers(t, srv, bad)
	})

	t.Run("the one part led", func(t *testing.T) {
		m, bad := panickyNode(t)
		srv := New(m)
		read(t, srv, http.StatusOK)
		if _, err := m.InvalidateSource("s1"); err != nil {
			t.Fatal(err)
		}
		bad.panics.Store(true)
		fetches := func() int64 { return srv.Tracer().SpanDurations()["source.fetch"].Count }
		before := fetches()
		read(t, srv, http.StatusInternalServerError)
		// The panic ends the fetch's span, with the panic as its error.
		sp := srv.Tracer().Traces(1)[0].Span("source.fetch")
		if n := fetches() - before; n != 1 || sp == nil || sp.DurationNanos == 0 || !slices.ContainsFunc(sp.Attrs, func(a obs.Attr) bool {
			return a.Key == "error" && strings.Contains(a.Value, "wrapper blew up")
		}) {
			t.Errorf("%d source.fetch spans ended; the panicking one: %+v", n, sp)
		}
		recovers(t, srv, bad)
	})

	t.Run("a joiner", func(t *testing.T) {
		m, bad := panickyNode(t)
		srv := New(m)
		read(t, srv, http.StatusOK)
		if _, err := m.InvalidateSource("s1"); err != nil {
			t.Fatal(err)
		}
		bad.panics.Store(true)
		bad.entered, bad.gate = make(chan struct{}, 1), make(chan struct{})
		codes := make([]int, 2)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				codes[i] = serveOnce(srv, http.MethodGet, "/views/w", "", "").Code
			}(i)
			if i == 0 {
				<-bad.entered // the leader is in Fetch
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for m.Stats().SingleflightDedups < 1 {
			if time.Now().After(deadline) {
				t.Fatal("the second read never joined the first")
			}
			time.Sleep(time.Millisecond)
		}
		close(bad.gate)
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusInternalServerError {
				t.Errorf("read %d: %d, want 500", i, code)
			}
		}
		bad.gate = nil
		recovers(t, srv, bad)
	})
}
