package infer

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestFanOutRecoversPanicWithLabel: a panic in any parallel refinement
// worker must be converted into an error naming the element being refined
// — never crash the process — and must stop the remaining work.
func TestFanOutRecoversPanicWithLabel(t *testing.T) {
	in := &inferencer{ctx: context.Background()}
	names := []string{"article", "author", "title", "journal"}
	var ran int64
	in.fanOut(len(names), func(i int) string { return names[i] }, func(i int) {
		atomic.AddInt64(&ran, 1)
		if names[i] == "author" {
			panic("nil model dereference")
		}
	})
	in.mu.Lock()
	err := in.panicErr
	in.mu.Unlock()
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("worker panic must be recorded as an ErrWorkerPanic, got %v", err)
	}
	if !strings.Contains(err.Error(), `"author"`) {
		t.Errorf("error %q must name the panicking element", err)
	}
	if !strings.Contains(err.Error(), "nil model dereference") {
		t.Errorf("error %q must carry the panic value", err)
	}
}

// TestFanOutFirstPanicWins: when several workers panic, exactly one error
// is kept (the first recorded), so the caller reports one root cause.
func TestFanOutFirstPanicWins(t *testing.T) {
	in := &inferencer{ctx: context.Background()}
	in.fanOut(8, func(i int) string { return "elem" }, func(i int) {
		panic(i)
	})
	in.mu.Lock()
	err := in.panicErr
	in.mu.Unlock()
	if err == nil {
		t.Fatal("expected a recorded panic")
	}
}

// TestFanOutStopsOnCancel: a cancelled context stops the serial fallback
// (and starves the parallel workers) rather than running every item.
func TestFanOutStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := &inferencer{ctx: ctx}
	var ran int64
	in.fanOut(100, func(i int) string { return "elem" }, func(i int) {
		atomic.AddInt64(&ran, 1)
	})
	if n := atomic.LoadInt64(&ran); n == 100 {
		t.Error("cancelled fan-out must not run the full workload")
	}
}
