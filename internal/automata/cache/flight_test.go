package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlight is the flight's rule, one row per way a flight can end for a
// joiner: it lands a value the joiner takes; it lands the leader's own
// failure and the joiner starts over; it lands a failure every joiner shares;
// the joiner's own context ends first; the leader panics. The leader always
// gets what its compute returned, and a joiner that comes after the landing
// waits for nothing.
func TestFlight(t *testing.T) {
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type outcome struct {
		val  int
		err  error
		redo bool
	}
	for _, tc := range []struct {
		name   string
		val    int
		err    error
		panics bool
		own    bool            // what the holder settles
		ctx    context.Context // the joiner's
		want   outcome         // what the joiner gets
	}{
		{name: "land then wait", val: 7, ctx: context.Background(), want: outcome{val: 7}},
		{name: "the leader's own failure sends joiners to start over", err: boom, own: true, ctx: context.Background(), want: outcome{redo: true}},
		{name: "a shared failure", err: boom, ctx: context.Background(), want: outcome{err: boom}},
		{name: "a joiner leaves on its own context", val: 7, ctx: cancelled, want: outcome{err: context.Canceled}},
		{name: "a panic fails the joiners", panics: true, own: true, ctx: context.Background(), want: outcome{err: ErrComputePanic}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			f := new(Flight[int]).Start()
			wait := func(ctx context.Context) <-chan outcome {
				out := make(chan outcome, 1)
				go func() {
					var o outcome
					o.val, o.err, o.redo = f.Wait(ctx)
					out <- o
				}()
				return out
			}
			joined := wait(tc.ctx)
			if tc.ctx.Err() != nil {
				select {
				case got := <-joined:
					if got != tc.want {
						t.Fatalf("the joiner whose context ended got %+v, want %+v", got, tc.want)
					}
					joined = nil
				case <-time.After(5 * time.Second):
					t.Fatal("a joiner whose context ended still waits for the flight")
				}
			}
			if _, ok := f.Landed(); ok {
				t.Fatal("landed before it ran")
			}

			var settled error
			leaderPanic := make(chan any, 1)
			go func() {
				defer func() { leaderPanic <- recover() }()
				val, err := f.Run(&mu, func() (int, error) {
					if tc.panics {
						panic("compute blew up")
					}
					return tc.val, tc.err
				}, func(_ int, err error) bool {
					settled = err
					return tc.own
				})
				if val != tc.val || err != tc.err {
					t.Errorf("the leader got %d, %v; want what its compute returned", val, err)
				}
			}()
			if r := <-leaderPanic; (r != nil) != tc.panics {
				t.Errorf("leader recover() = %v", r)
			}
			if tc.panics && settled != ErrComputePanic {
				t.Errorf("the holder settled %v, want ErrComputePanic", settled)
			}
			if joined != nil {
				if got := <-joined; got != tc.want {
					t.Errorf("the joiner got %+v, want %+v", got, tc.want)
				}
			}
			if val, ok := f.Landed(); !ok || val != tc.val {
				t.Errorf("Landed() = %d, %v after the run; want %d, true", val, ok, tc.val)
			}
			late := tc.want
			if tc.ctx.Err() != nil {
				late = outcome{val: tc.val} // what a joiner whose context lives gets
			}
			select {
			case got := <-wait(context.Background()):
				if got != late {
					t.Errorf("a joiner after the landing got %+v, want %+v", got, late)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a joiner after the landing still waits")
			}
		})
	}
}

// endingContext ends while it is read: its Err is nil at the first look and
// context.Canceled after.
type endingContext struct {
	context.Context
	looks atomic.Int32
}

func (c *endingContext) Err() error {
	if c.looks.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestWaitLooksAtItsContextOnce: a joiner of a flight that landed the
// leader's own failure, whose context ends while Wait reads it, starts over
// or leaves with the context's error — never with neither, which hands its
// caller the zero value as a result (internal/oracle's concurrent readers
// met it as a nil query plan behind a nil error).
func TestWaitLooksAtItsContextOnce(t *testing.T) {
	var mu sync.Mutex
	f := new(Flight[*int]).Start()
	f.Run(&mu, func() (*int, error) { return nil, errors.New("the leader's own") }, func(*int, error) bool { return true })
	if val, err, redo := f.Wait(&endingContext{Context: context.Background()}); val == nil && err == nil && !redo {
		t.Fatal("Wait gave no value, no error and no redo")
	}
}
