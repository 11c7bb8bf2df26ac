// Fault injection for the serving path. Production resilience claims —
// retries back off, breakers trip, degraded views stay sound — are only
// claims until a test can make a source misbehave on demand. This file
// provides two deterministic fault layers:
//
//   - FaultSource wraps a Wrapper and injects scripted errors and latency
//     at the Fetch boundary (what the mediator's evaluate loop sees);
//   - FaultyHandler wraps an http.Handler and injects wire-level faults —
//     5xx bursts, response delays, mid-body truncation, payload corruption
//     — exercising HTTPSource's retry/validation machinery end to end.
//
// Both consume an explicit script (one entry per call/request, in order),
// so every test run sees exactly the same fault sequence; RandomFaults
// derives such a script from a seed for randomized campaigns that must
// stay reproducible.
package mediator

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/xmlmodel"
)

// Fault is one scripted misbehavior of a FaultSource fetch.
type Fault struct {
	// Delay is slept before acting (honoring the fetch context), modelling
	// a slow source.
	Delay time.Duration
	// Err, when non-nil, is returned instead of fetching.
	Err error
}

// FaultSource wraps a Wrapper with a scripted fault sequence: call i
// consumes script entry i (delay, then error or passthrough); calls beyond
// the script pass through untouched. Safe for concurrent use; concurrent
// fetches consume script entries in arrival order.
type FaultSource struct {
	inner Wrapper

	mu     sync.Mutex
	script []Fault
	next   int

	injected atomic.Int64
	fetches  atomic.Int64
}

// NewFaultSource wraps w with the given fault script.
func NewFaultSource(w Wrapper, script ...Fault) *FaultSource {
	return &FaultSource{inner: w, script: script}
}

// RandomFaults derives a deterministic n-entry fault script from a seed:
// each entry independently fails with probability p (as err) and carries a
// small random delay up to maxDelay. Same seed, same script.
func RandomFaults(seed int64, n int, p float64, maxDelay time.Duration, err error) []Fault {
	r := rand.New(rand.NewSource(seed))
	out := make([]Fault, n)
	for i := range out {
		if maxDelay > 0 {
			out[i].Delay = time.Duration(r.Int63n(int64(maxDelay)))
		}
		if r.Float64() < p {
			out[i].Err = err
		}
	}
	return out
}

// Injected reports how many faults (errors) have been injected so far.
func (s *FaultSource) Injected() int64 { return s.injected.Load() }

// Fetches reports how many Fetch calls have reached this source (faulted
// or not). Pruning tests use it to assert that a pruned source was never
// contacted at all.
func (s *FaultSource) Fetches() int64 { return s.fetches.Load() }

// Name implements Wrapper.
func (s *FaultSource) Name() string { return s.inner.Name() }

// Schema implements Wrapper.
func (s *FaultSource) Schema() *dtd.DTD { return s.inner.Schema() }

// Report implements Reporter: a FaultSource counts nothing of its own.
func (s *FaultSource) Report(r *SourceReport) { r.Collect(s.inner) }

// Fetch implements Wrapper, consuming the next script entry.
func (s *FaultSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	s.fetches.Add(1)
	s.mu.Lock()
	var f Fault
	if s.next < len(s.script) {
		f = s.script[s.next]
		s.next++
	}
	s.mu.Unlock()
	if f.Delay > 0 {
		select {
		case <-time.After(f.Delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.Err != nil {
		s.injected.Add(1)
		return nil, f.Err
	}
	return s.inner.Fetch(ctx)
}

// WireFault is one scripted misbehavior of a FaultyHandler request.
type WireFault struct {
	// Delay is slept before responding (modelling a slow remote; combine
	// with a short client timeout to script timeouts).
	Delay time.Duration
	// Status, when non-zero, short-circuits the request with this HTTP
	// status and an empty body (503 bursts etc.).
	Status int
	// TruncateBody, when positive, serves the real response but declares
	// its full Content-Length while writing only the first TruncateBody
	// bytes — the Go HTTP server then severs the connection, so the client
	// observes a mid-body disconnect (io.ErrUnexpectedEOF).
	TruncateBody int
	// CorruptBody flips bytes in the real response body, keeping the
	// status and length intact — the payload arrives whole but unparseable.
	CorruptBody bool
}

// FaultyHandler wraps an http.Handler with a scripted per-request wire
// fault sequence: request i consumes script entry i; requests beyond the
// script pass through untouched. Safe for concurrent use.
type FaultyHandler struct {
	inner http.Handler

	mu     sync.Mutex
	script []WireFault
	next   int

	injected atomic.Int64
}

// NewFaultyHandler wraps h with the given wire-fault script.
func NewFaultyHandler(h http.Handler, script ...WireFault) *FaultyHandler {
	return &FaultyHandler{inner: h, script: script}
}

// Injected reports how many non-passthrough faults have fired.
func (f *FaultyHandler) Injected() int64 { return f.injected.Load() }

// ServeHTTP implements http.Handler.
func (f *FaultyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	var wf WireFault
	if f.next < len(f.script) {
		wf = f.script[f.next]
		f.next++
	}
	f.mu.Unlock()
	if wf.Delay > 0 {
		select {
		case <-time.After(wf.Delay):
		case <-r.Context().Done():
			return
		}
	}
	if wf.Status != 0 {
		f.injected.Add(1)
		http.Error(w, http.StatusText(wf.Status), wf.Status)
		return
	}
	if wf.TruncateBody <= 0 && !wf.CorruptBody {
		f.inner.ServeHTTP(w, r)
		return
	}
	// Body-mangling faults need the full inner response first.
	f.injected.Add(1)
	rec := httptest.NewRecorder()
	f.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if wf.CorruptBody {
		body = append([]byte(nil), body...)
		for i := 0; i < len(body); i += 7 {
			body[i] ^= 0xa5
		}
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if wf.TruncateBody > 0 && wf.TruncateBody < len(body) {
		// Promise the full body, deliver a prefix: the server closes the
		// connection on the short write and the client sees an unexpected
		// EOF mid-body.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body[:wf.TruncateBody])
		return
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}
