package cache

import (
	"context"
	"sync"
)

// Flight is one computation several callers may need at once, and the rule
// by which they share it. The caller that claims it — finds no flight in its
// holder's place, or one fenced off, and Starts one there under the holder's
// lock — runs it; every other caller joins it and waits under its own
// context; it lands exactly once, under the holder's lock, as the holder
// settles the result. A holder keeps nothing a fence went up against while
// the flight ran (a source generation moved, a Cache was purged), and a
// fenced-off flight gains no new joiners. A result that is the leader's own —
// its context or budget failed it, or it may not be kept — is the leader's
// alone: its joiners start over. A panicking leader fails them with
// ErrComputePanic.
type Flight[T any] struct {
	done chan struct{} // closed when the flight lands
	val  T
	err  error
	redo bool // the result is the leader's own
}

// Start readies f for the caller that claimed it, and returns it.
func (f *Flight[T]) Start() *Flight[T] { f.done = make(chan struct{}); return f }

// Landed returns what f landed and true; false while f runs, or is nil.
func (f *Flight[T]) Landed() (val T, ok bool) {
	if f == nil {
		return val, false
	}
	select {
	case <-f.done:
		return f.val, true
	default:
		return val, false
	}
}

// Run is the leader's side: it runs compute, then under mu has settle keep or
// drop the result and say whether it is the leader's own, and lands it. The
// leader gets what compute returned, or compute's panic.
func (f *Flight[T]) Run(mu sync.Locker, compute func() (T, error), settle func(T, error) (own bool)) (val T, err error) {
	err = ErrComputePanic // unless compute returns
	defer func() {
		mu.Lock()
		f.val, f.err, f.redo = val, err, settle(val, err) && err != ErrComputePanic
		close(f.done)
		mu.Unlock()
	}()
	return compute()
}

// Wait is a joiner's side: what f lands, or ctx's error once ctx ends; redo
// says the result was the leader's own and the caller is to start over. A
// landed flight does not touch ctx, which may make its Done channel.
func (f *Flight[T]) Wait(ctx context.Context) (val T, err error, redo bool) {
	if _, landed := f.Landed(); !landed {
		select {
		case <-f.done:
		case <-ctx.Done():
			return val, ctx.Err(), false
		}
	}
	if f.redo { // ctx is read once: one that ends in between would say neither
		err = ctx.Err()
		return val, err, err == nil
	}
	return f.val, f.err, false
}
