package main

import (
	"io"
	"testing"
)

// TestSmoke runs every workload end to end at the -smoke scale (every
// phase about a second), untraced and traced: the stack comes up, every
// answer matches the naive path, and every declared metric is reported.
// It asserts nothing about the numbers — at this scale they mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up real servers")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{w: w, seed: 1, seconds: 1, traced: traced, out: io.Discard, traceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s [%s] reported as %+v", w.name, traced, m.name, m.unit, got)
				}
			}
		}
	}
}
