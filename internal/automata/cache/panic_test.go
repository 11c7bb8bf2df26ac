package cache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPanicFailsWaitersAndPropagates: a panicking compute must (a) unblock
// every singleflight joiner with ErrComputePanic, (b) re-panic in the
// computing goroutine, (c) leave the key absent so a later call retries
// and can succeed.
func TestPanicFailsWaitersAndPropagates(t *testing.T) {
	c := New(8)
	entered := make(chan struct{})
	release := make(chan struct{})

	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.GetOrCompute(context.Background(), "k", func() (any, bool, error) {
			close(entered)
			<-release
			panic("compile blew up")
		})
	}()
	<-entered

	const joiners = 3
	var wg sync.WaitGroup
	errs := make([]error, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompute(context.Background(), "k", func() (any, bool, error) {
				t.Error("joiner must not compute while the leader is in flight")
				return nil, true, nil
			})
		}(i)
	}
	for c.Stats().Dedups < joiners {
		runtime.Gosched() // until all joiners registered; bounded by the test timeout
	}
	close(release)
	wg.Wait()

	if r := <-leaderPanicked; r != "compile blew up" {
		t.Fatalf("leader recover() = %v, want the original panic value", r)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrComputePanic) {
			t.Errorf("joiner %d: err = %v, want ErrComputePanic", i, err)
		}
	}
	if c.Len() != 0 {
		t.Fatal("panicked computation must not be cached")
	}

	// The key must be clean: a retry computes and caches normally.
	v, _, err := c.GetOrCompute(context.Background(), "k", func() (any, bool, error) { return "ok", true, nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after panic = %v, %v; want ok", v, err)
	}
	if _, ok := c.Get("k"); !ok {
		t.Fatal("successful retry must be cached")
	}
}

// TestErrorIsTheLeadersOwn is the error-path twin: a compute that returns an
// error (budget exhaustion, cancellation) while joiners wait fails the
// leader only. Every joiner starts over with its own compute — one of them
// leads, the rest share its success — nothing of the failed flight is
// cached, and every call is still counted exactly once.
func TestErrorIsTheLeadersOwn(t *testing.T) {
	c := New(8)
	exhausted := errors.New("budget exhausted mid-compile")
	entered := make(chan struct{})
	release := make(chan struct{})

	var leaderErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, leaderErr = c.GetOrCompute(context.Background(), "k", func() (any, bool, error) {
			close(entered)
			<-release
			return nil, false, exhausted
		})
	}()
	<-entered

	const joiners = 3
	var wg sync.WaitGroup
	var wrong, computes int32
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), "k", func() (any, bool, error) {
				atomic.AddInt32(&computes, 1)
				return "fresh", true, nil
			})
			if err != nil || v != "fresh" {
				atomic.AddInt32(&wrong, 1)
			}
		}()
	}
	for c.Stats().Dedups < joiners {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	<-done

	if !errors.Is(leaderErr, exhausted) {
		t.Fatalf("leader err = %v, want the exhaustion error", leaderErr)
	}
	if wrong != 0 {
		t.Fatalf("%d joiners inherited the leader's failure instead of computing for themselves", wrong)
	}
	if computes < 1 {
		t.Fatal("no joiner ran its own compute")
	}
	if v, ok := c.Get("k"); !ok || v != "fresh" {
		t.Fatalf("resident value = %v, %v; want a joiner's fresh result", v, ok)
	}
	st := c.Stats()
	if st.Hits+st.Misses+st.Dedups != 1+joiners {
		t.Errorf("hits(%d)+misses(%d)+dedups(%d) != %d calls", st.Hits, st.Misses, st.Dedups, 1+joiners)
	}
	if st.Misses != 1+int64(computes) {
		t.Errorf("misses = %d, want one per compute run (%d)", st.Misses, 1+computes)
	}
}
