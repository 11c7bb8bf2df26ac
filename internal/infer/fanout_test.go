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

	"repro/internal/dtd"
	"repro/internal/regex"
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

// TestFanOutStopsOnCancel: a cancelled context starves the workers rather
// than letting them run every item.
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

// TestFanOutOneNameRunsInline: a condition that matches one name — and,
// under one processor, every condition — is refined on the calling
// goroutine, without fanOut, and keeps what fanOut guarantees its workers.
// A panic is an ErrWorkerPanic naming the element, and the name's
// specialization is left inert (Unsatisfiable); a cancelled context refines
// nothing. The content model of r panics regex's tree walks on its nil item.
func TestFanOutOneNameRunsInline(t *testing.T) {
	panicky := mustDTD(t, `<!DOCTYPE r [ <!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> ]>`)
	panicky.Types["r"] = dtd.M(regex.Concat{Items: []regex.Expr{regex.Atom{Name: regex.N("a")}, nil}})
	onR := xmas.MustParse(`v = SELECT X WHERE <r> X:<a/> </r>`)
	d1 := mustDTD(t, d1Text)
	onDepartment := xmas.MustParse(`v = SELECT X WHERE <department> X:<professor/> </department>`)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			in := newInferencer(context.Background(), onR, panicky)
			got := in.tightenCond(onR.Root)
			err := in.err()
			if !errors.Is(err, ErrWorkerPanic) || !strings.Contains(err.Error(), `panic refining element "r"`) {
				t.Errorf("GOMAXPROCS %d: a panic refining r gave %v, want an ErrWorkerPanic naming r", procs, err)
			}
			if len(got) != 1 || got[0].class != Unsatisfiable || !regex.IsFail(got[0].typ.Model) {
				t.Errorf("GOMAXPROCS %d: after the panic r's specializations are %v, want one inert Unsatisfiable", procs, got)
			}

			in = newInferencer(cancelled, onDepartment, d1)
			got = in.tightenCond(onDepartment.Root)
			if err := in.err(); !errors.Is(err, context.Canceled) {
				t.Errorf("GOMAXPROCS %d: cancelled refinement reports %v, want context.Canceled", procs, err)
			}
			if len(got) != 1 || got[0].class != Unsatisfiable {
				t.Errorf("GOMAXPROCS %d: cancelled refinement of department gave %v, want it not refined", procs, got)
			}
			if got := newInferencer(context.Background(), onDepartment, d1).tightenCond(onDepartment.Root); got[0].class == Unsatisfiable {
				t.Fatalf("fixture: department under <professor/> is %v uncancelled; the cancelled check reads nothing", got)
			}
		}()
	}
}
