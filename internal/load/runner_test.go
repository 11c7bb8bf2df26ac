package load

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopShedsAndKeepsTheSchedule pins the open-loop rule on the one
// dispatcher: with every in-flight slot held by a request that does not come
// back, the operations behind it are shed — each planned operation is either
// sent or counted as shed, none is lost — and the schedule ends when the
// target rate says it ends, not when the blocked requests allow.
func TestOpenLoopShedsAndKeepsTheSchedule(t *testing.T) {
	const (
		planned  = 200
		rps      = 1000
		inFlight = 2
	)
	length := planned * time.Second / rps
	due := func(i int) time.Duration { return time.Duration(i) * time.Second / rps }

	// A fired operation blocks until the schedule's end: a loop that waited
	// for a slot instead of shedding would need planned/inFlight × length —
	// twenty seconds — to get through.
	var sent atomic.Int64
	start := time.Now()
	shed := openLoop(context.Background(), planned, due, inFlight, func(int) {
		sent.Add(1)
		time.Sleep(time.Until(start.Add(length)))
	})
	elapsed := time.Since(start)

	if got := sent.Load() + int64(len(shed)); got != planned {
		t.Errorf("sent %d + shed %d = %d, want every one of the %d planned accounted for", sent.Load(), len(shed), got, planned)
	}
	if len(shed) == 0 {
		t.Error("nothing was shed although both slots were held for the whole schedule")
	}
	for k := 1; k < len(shed); k++ {
		if shed[k] <= shed[k-1] {
			t.Fatalf("shed indices out of order or repeated: %v", shed)
		}
	}
	if elapsed < due(planned-1) {
		t.Errorf("returned after %v, before the last operation was due (%v)", elapsed, due(planned-1))
	}
	if elapsed > 20*length {
		t.Errorf("schedule of %v took %v: blocked operations delayed the ones behind them", length, elapsed)
	}
}

// TestOpenLoopStopsOnCancel: a cancelled context ends an hour-long schedule
// at once, and what was not yet due is neither fired nor shed.
func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sent atomic.Int64
	start := time.Now()
	shed := openLoop(ctx, 3600, func(i int) time.Duration { return time.Duration(i) * time.Second }, 4, func(int) {
		sent.Add(1)
		cancel()
	})
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Errorf("cancelled schedule ran for %v", elapsed)
	}
	if sent.Load() != 1 || len(shed) != 0 {
		t.Errorf("sent %d, shed %d after a cancel at the first operation; want 1 and 0", sent.Load(), len(shed))
	}
}
