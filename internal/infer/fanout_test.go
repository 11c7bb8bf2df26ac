package infer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/xmas"
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

// TestFanOutFillsOneSlab: the workers of a condition's fan-out write its
// specializations into one slice, each at its own index, and the slice is
// sorted by base name once they are done. A wildcard condition over D1
// refines all thirteen names at once; with four workers the result must be
// the serial one — same tags, same types, same classes, in base order — and
// under -race no two workers may touch the same element.
func TestFanOutFillsOneSlab(t *testing.T) {
	src := mustDTD(t, d1Text)
	q := xmas.MustParse(`v = SELECT X WHERE <department> X:<*> <publication/> </*> </department>`)
	run := func(procs int) specs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		in := newInferencer(context.Background(), q, src)
		got := in.tightenCond(q.Root.Children[0])
		if err := in.err(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := run(1)
	if len(serial) != len(src.Types) {
		t.Fatalf("a wildcard has %d specializations, want one per declared name (%d)", len(serial), len(src.Types))
	}
	if !slices.IsSortedFunc(serial, func(a, b spec) int { return strings.Compare(a.name.Base, b.name.Base) }) {
		t.Errorf("specializations not sorted by base name: %v", serial)
	}
	for i := range serial {
		if sp := serial.get(serial[i].name.Base); sp != &serial[i] {
			t.Errorf("get(%q) = %v, want element %d", serial[i].name.Base, sp, i)
		}
	}
	if serial.get("nosuchname") != nil {
		t.Error("get of an undeclared base must be nil")
	}
	for round := 0; round < 20; round++ {
		parallel := run(4)
		if fmt.Sprint(parallel) != fmt.Sprint(serial) {
			t.Fatalf("round %d: the parallel fan-out gave\n%v\nthe serial one\n%v", round, parallel, serial)
		}
	}
}
