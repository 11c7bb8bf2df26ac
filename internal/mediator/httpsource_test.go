package mediator

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
)

const remoteDTD = `<!DOCTYPE members [
  <!ELEMENT members (professor*)>
  <!ELEMENT professor (#PCDATA)>
]>`

const remoteDoc = `<members><professor>ana</professor></members>`

// remoteView serves a minimal mixserve-shaped view: /views/v/dtd always
// answers; /views/v is delegated to the test's handler.
func remoteView(view func(w http.ResponseWriter, r *http.Request)) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /views/v/dtd", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, remoteDTD)
	})
	mux.HandleFunc("GET /views/v", view)
	return httptest.NewServer(mux)
}

// TestHTTPSourceHangTimesOut: a remote that never answers must produce a
// bounded-latency error — not a wedged goroutine — via the client timeout.
func TestHTTPSourceHangTimesOut(t *testing.T) {
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the client gives up
	})
	defer srv.Close()

	client := &http.Client{Timeout: 100 * time.Millisecond}
	src, err := NewHTTPSource(client, srv.URL, "v", WithRetries(1), WithBackoff(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = src.Fetch(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch from a hung remote must fail")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("fetch took %v: latency must be bounded by timeout+retries", elapsed)
	}
	if got := src.Retries(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

// TestHTTPSourceContextDeadline: the caller's context bounds the fetch
// even when the client itself has no timeout.
func TestHTTPSourceContextDeadline(t *testing.T) {
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	defer srv.Close()

	src, err := NewHTTPSource(srv.Client(), srv.URL, "v", WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := src.Fetch(ctx); err == nil {
		t.Fatal("fetch must fail when the context deadline passes")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("fetch took %v despite a 100ms context deadline", elapsed)
	}
}

// TestHTTPSourceRetriesThenSucceeds: transient 5xx responses are retried
// with backoff until the remote recovers.
func TestHTTPSourceRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient overload", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, remoteDTD)
		fmt.Fprintln(w, remoteDoc)
	})
	defer srv.Close()

	src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := src.Fetch(context.Background())
	if err != nil {
		t.Fatalf("fetch must succeed after the remote recovers: %v", err)
	}
	if len(doc.Root.Children) != 1 {
		t.Errorf("doc = %v", doc.Root)
	}
	if got := src.Retries(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	// The retry counter feeds Mediator.Stats, from the bottom of a stack.
	rs, err := NewReplicaSet("remote", []Wrapper{src}, ReplicaSetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := New("portal")
	if err := m.AddSource(NewFaultSource(NewBreakerSource(rs, BreakerOptions{}))); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Retries != 2 {
		t.Errorf("mediator stats retries = %d, want 2", st.Retries)
	}
}

// TestHTTPSourceNoRetryOn4xx: client errors are final — an unknown view
// stays unknown no matter how often it is asked for.
func TestHTTPSourceNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "unknown view v", http.StatusNotFound)
	})
	defer srv.Close()

	src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Fetch(context.Background()); err == nil {
		t.Fatal("404 must fail the fetch")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("view fetched %d times, want 1 (no retry on 4xx)", got)
	}
	if got := src.Retries(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

// TestHTTPSourceRetriesRegistration: the eager DTD fetch at registration
// time gets the same resilience as Fetch.
func TestHTTPSourceRetriesRegistration(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /views/v/dtd", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 1 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, remoteDTD)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(2), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("registration must survive a transient 500: %v", err)
	}
	if src.Schema().Root != "members" {
		t.Errorf("schema root = %q", src.Schema().Root)
	}
	if !strings.Contains(src.Name(), "/views/v") {
		t.Errorf("name = %q", src.Name())
	}
}

// TestHTTPSourceBodyTooLarge: an oversized remote response fails fast with
// ErrBodyTooLarge — one attempt, no retries — instead of being silently
// truncated into a parse error on a cut-off document.
func TestHTTPSourceBodyTooLarge(t *testing.T) {
	var calls atomic.Int64
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		_, _ = w.Write(make([]byte, maxResponseBytes+1))
	})
	defer srv.Close()

	src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = src.Fetch(context.Background())
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("oversized view fetched %d times, want 1 (not retryable)", got)
	}
	if got := src.Retries(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

// TestHTTPSourceBodyAtLimit: a response of exactly maxResponseBytes is
// legal — the detector reads one byte past the limit, it does not truncate
// at it.
func TestHTTPSourceBodyAtLimit(t *testing.T) {
	head := "<members><professor>"
	tail := "</professor></members>"
	text := strings.Repeat("x", maxResponseBytes-len(head)-len(tail))
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprint(w, head, text, tail)
	})
	defer srv.Close()

	src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := src.Fetch(context.Background())
	if err != nil {
		t.Fatalf("a body of exactly the limit must succeed: %v", err)
	}
	if len(doc.Root.Children) != 1 || len(doc.Root.Children[0].Text) != len(text) {
		t.Error("at-limit document did not round-trip intact")
	}
}

// TestHTTPSourceBackoffCapAndJitter: against a persistently failing
// remote, the requested sleeps double from the base, stay within the
// equal-jitter envelope [d/2, d], and never exceed DefaultHTTPMaxBackoff.
// A stub sleeper observes the delays without actually waiting.
func TestHTTPSourceBackoffCapAndJitter(t *testing.T) {
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down for good", http.StatusInternalServerError)
	})
	defer srv.Close()

	const base, cap = 12 * time.Second, DefaultHTTPMaxBackoff
	src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(5), WithBackoff(base))
	if err != nil {
		t.Fatal(err)
	}
	var delays []time.Duration
	src.sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return nil
	}
	if _, err := src.Fetch(context.Background()); err == nil {
		t.Fatal("fetch from a dead remote must fail")
	}
	if len(delays) != 5 {
		t.Fatalf("slept %d times, want 5 (one per retry)", len(delays))
	}
	// Raw backoff sequence: 12s, 24s, 30s, 30s, 30s (doubling, then capped);
	// jitter keeps each sleep within [raw/2, raw].
	want := []time.Duration{base, 2 * base, cap, cap, cap}
	for i, d := range delays {
		if d < want[i]/2 || d > want[i] {
			t.Errorf("sleep %d = %v, want within [%v, %v]", i, d, want[i]/2, want[i])
		}
		if d > cap {
			t.Errorf("sleep %d = %v exceeds the %v cap", i, d, cap)
		}
	}
	if got := src.Retries(); got != 5 {
		t.Errorf("retries = %d, want 5", got)
	}
}

// TestHTTPSourceBudgetDryNoSleep: with a shared retry budget, the retry
// loop spends a token per retry and gives up the moment the bucket is dry
// — without first sleeping a backoff that no retry will follow.
func TestHTTPSourceBudgetDryNoSleep(t *testing.T) {
	var calls atomic.Int64
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "browned out", http.StatusServiceUnavailable)
	})
	defer srv.Close()

	fixed := time.Unix(1, 0)
	budget := NewRetryBudget(RetryBudgetOptions{
		Capacity: 1, RefillPerSecond: 1, Clock: func() time.Time { return fixed },
	})
	src, err := NewHTTPSource(nil, srv.URL, "v",
		WithRetries(5), WithBackoff(time.Millisecond), WithRetryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	var sleeps atomic.Int64
	src.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps.Add(1)
		return nil
	}

	if _, err := src.Fetch(context.Background()); err == nil {
		t.Fatal("fetch from a dead remote must fail")
	}
	// One token: one backoff sleep, one retry, then an immediate give-up.
	if got := sleeps.Load(); got != 1 {
		t.Errorf("sleeps = %d, want 1 (only the budgeted retry backs off)", got)
	}
	if got := src.Retries(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("requests = %d, want 2 (primary + the single budgeted retry)", got)
	}
	if got := budget.Denied(); got != 1 {
		t.Errorf("budget denials = %d, want 1", got)
	}

	// The bucket is still dry: the next fetch fails after its free primary
	// attempt, with no sleep at all.
	if _, err := src.Fetch(context.Background()); err == nil {
		t.Fatal("fetch must still fail")
	}
	if got := sleeps.Load(); got != 1 {
		t.Errorf("sleeps = %d after the second fetch, want still 1", got)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
}

// TestHTTPSourceCancelledContextNoSleep: once the caller's context is
// done, the retry loop must return immediately — burning a backoff sleep
// before a retry that cannot run would hold the caller's goroutine for
// nothing.
func TestHTTPSourceCancelledContextNoSleep(t *testing.T) {
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	defer srv.Close()

	src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(5), WithBackoff(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var sleeps atomic.Int64
	src.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps.Add(1)
		return ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := src.Fetch(ctx); err == nil {
		t.Fatal("fetch with a cancelled context must fail")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fetch held the caller for %v after cancellation", elapsed)
	}
	if got := sleeps.Load(); got != 0 {
		t.Errorf("sleeps = %d, want 0 (no backoff after cancellation)", got)
	}
	if got := src.Retries(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

// TestHTTPSourceStreamValidatesBody: the fetch path validates the remote
// body in the scan that builds its tree, and names a failure by what the
// body is: one that violates the DTD (a *dtd.ValidationError) and one that
// is not a document of the model at all — malformed, or using an entity,
// which fails as a plain error and not as a ParseError — fail with distinct
// errors (and neither is retried — the remote would answer the same way
// again).
func TestHTTPSourceStreamValidatesBody(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"violates DTD", remoteDTD + "\n<members><student>bo</student></members>", "violates its own DTD"},
		{"violates a content model", remoteDTD + "\n<members><professor>ana</professor><members/></members>", "violates its own DTD"},
		{"mixed content", remoteDTD + "\n<members>ana<professor>bo</professor></members>", "violates its own DTD"},
		{"malformed", remoteDTD + "\n<members><professor>ana</members>", "unparseable"},
		{"unknown entity", remoteDTD + "\n<members><professor>ana&nbsp;b</professor></members>", "unparseable"},
	}
	for _, c := range cases {
		var calls atomic.Int64
		srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			fmt.Fprintln(w, c.body)
		})
		src, err := NewHTTPSource(nil, srv.URL, "v", WithRetries(3))
		if err != nil {
			t.Fatal(err)
		}
		_, err = src.Fetch(context.Background())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("%s: %d requests, want 1 (invalid content must not be retried)", c.name, got)
		}
		srv.Close()
	}
	before := dtd.StreamValidationStats()
	srv := remoteView(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, remoteDTD)
		fmt.Fprintln(w, remoteDoc)
	})
	defer srv.Close()
	src, err := NewHTTPSource(nil, srv.URL, "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Fetch(context.Background()); err != nil {
		t.Fatalf("valid remote document rejected: %v", err)
	}
	if after := dtd.StreamValidationStats(); after.Documents <= before.Documents {
		t.Error("fetch did not go through the streaming validator")
	}
}
