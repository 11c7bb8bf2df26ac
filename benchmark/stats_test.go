package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	// p95 of 200 values has exactly ten beyond it; of 199, nine.
	if v, ok := percentile(seq(200), 95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if _, ok := percentile(seq(199), 95); ok {
		t.Errorf("p95 of 199 values reported with fewer than %d samples beyond it", tailSamples)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 values reported")
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// The median is reported for any non-empty sample.
	if v, ok := percentile(seq(3), 50); !ok || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2, true", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of an empty sample reported")
	}
}

func TestSupportedTailFallsBack(t *testing.T) {
	v, used, ok := supportedTail(seq(100), 95)
	if !ok || v != 90 || used != 90 {
		t.Errorf("supportedTail(1..100, 95) = %v at p%v, %v; want 90 at p90", v, used, ok)
	}
	if v, used, ok := supportedTail(seq(400), 95); !ok || v != 380 || used != 95 {
		t.Errorf("supportedTail(1..400, 95) = %v at p%v, %v; want 380 at p95", v, used, ok)
	}
	if _, _, ok := supportedTail(seq(10), 95); ok {
		t.Error("a tail reported from ten samples")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(3,1) = %v, %v; want 0.5, 3.5", q1, q3)
	}
	// statistics.quantiles([10, 12, 11, 15, 9], n=4) == [9.5, 11.0, 13.5]
	if got := spread([]float64{10, 12, 11, 15, 9}); math.Abs(got-4.0/11) > 1e-12 {
		t.Errorf("spread = %v; want %v", got, 4.0/11)
	}
}

// pacedSamples builds an open-loop phase of n ops over dur whose lag is
// lag(i/n).
func pacedSamples(n int, dur time.Duration, lag func(x float64) time.Duration) []sample {
	out := make([]sample, n)
	for i := range out {
		x := float64(i) / float64(n)
		out[i] = sample{kind: opQuery, due: time.Duration(x * float64(dur)), lag: lag(x), latency: lag(x) + time.Millisecond}
	}
	return out
}

func TestBacklogGrowth(t *testing.T) {
	const dur, limit = 4 * time.Second, 40 * time.Millisecond
	steady := pacedSamples(400, dur, func(float64) time.Duration { return 5 * time.Millisecond })
	if backlogGrowing(steady, dur, limit) {
		t.Error("a constant lag counted as a growing backlog")
	}
	growing := pacedSamples(400, dur, func(x float64) time.Duration { return time.Duration(x * float64(200*time.Millisecond)) })
	if !backlogGrowing(growing, dur, limit) {
		t.Error("a lag rising to 200 ms not counted as a growing backlog")
	}
	// Nothing sent in the last fifth: the generator never got there.
	if !backlogGrowing(steady[:300], dur, limit) {
		t.Error("a phase that sent nothing in its last fifth not counted as a growing backlog")
	}
}

func TestRungEvaluation(t *testing.T) {
	const dur, limit = 4 * time.Second, 40 * time.Millisecond
	flat := func(float64) time.Duration { return 0 }
	ok := &rung{rate: 100, dur: dur, samples: pacedSamples(400, dur, flat)}
	if !ok.sustained(limit) {
		t.Error("a rung with 1 ms latencies and no lag not sustained")
	}
	for name, r := range map[string]*rung{
		"a failed op":     {rate: 100, dur: dur, samples: ok.samples, failed: 1},
		"an unsent op":    {rate: 100, dur: dur, samples: ok.samples, unsent: 1},
		"too few samples": {rate: 100, dur: dur, samples: ok.samples[:8]},
		"a tail over L":   {rate: 100, dur: dur, samples: pacedSamples(400, dur, func(x float64) time.Duration { return time.Duration(x * float64(50*time.Millisecond)) })},
	} {
		if r.sustained(limit) {
			t.Errorf("a rung with %s counted as sustained", name)
		}
	}
	fast := &rung{rate: 200, dur: dur, samples: ok.samples, unsent: 3}
	if got := maxOKRate([]*rung{{rate: 50, dur: dur, samples: ok.samples}, ok, fast}, limit); got != 100 {
		t.Errorf("maxOKRate = %v; want 100", got)
	}
	if got := maxOKRate([]*rung{fast}, limit); got != 0 {
		t.Errorf("maxOKRate with no sustained rung = %v; want 0", got)
	}
}

func TestEitherVersionMatcher(t *testing.T) {
	// Two sources, two versions each; source 1 contributes nothing in v1.
	chunks := [][]string{{"  <a>old</a>\n", "  <a>new</a>\n"}, {"  <b>old</b>\n", ""}}
	body := func(a, b string) string {
		if a+b == "" {
			return "<r></r>\n"
		}
		return "<r>\n" + a + b + "</r>\n"
	}
	oldOld, newOld, newNew := body(chunks[0][0], chunks[1][0]), body(chunks[0][1], chunks[1][0]), body(chunks[0][1], chunks[1][1])

	// After source 0's invalidation completed, only its new version is
	// admissible: the stale answer must be rejected.
	if matchAnswer(oldOld, "", "r", chunks, []uint8{2, 1}) {
		t.Error("a stale answer accepted after the invalidation's 2xx")
	}
	if !matchAnswer(newOld, "", "r", chunks, []uint8{2, 1}) {
		t.Error("the fresh answer rejected")
	}
	// While the invalidation is in flight either version may show.
	for _, b := range []string{oldOld, newOld} {
		if !matchAnswer(b, "", "r", chunks, []uint8{3, 1}) {
			t.Errorf("answer %q rejected while source 0's invalidation was in flight", b)
		}
	}
	if matchAnswer(newNew, "", "r", chunks, []uint8{3, 1}) {
		t.Error("an answer with source 1's other version accepted")
	}
	// Empty contributions, the childless form, and the head.
	if !matchAnswer(newNew, "", "r", chunks, []uint8{2, 2}) {
		t.Error("an answer with an empty contribution rejected")
	}
	empty := [][]string{{"", "  <a/>\n"}}
	if !matchAnswer("<r></r>\n", "", "r", empty, []uint8{1}) || matchAnswer("<r>\n</r>\n", "", "r", empty, []uint8{1}) {
		t.Error("the childless form is <r></r>, not <r>, newline, </r>")
	}
	if !matchAnswer("DTD\n"+newOld, "DTD\n", "r", chunks, []uint8{2, 1}) || matchAnswer(newOld, "DTD\n", "r", chunks, []uint8{2, 1}) {
		t.Error("the head is not checked")
	}
	if matchAnswer(newOld+"x", "", "r", chunks, []uint8{2, 1}) || matchAnswer(newOld, "", "s", chunks, []uint8{2, 1}) {
		t.Error("trailing bytes or a wrong root accepted")
	}
}

func TestVersionClock(t *testing.T) {
	c := newVersionClock(2)
	var leaf atomic.Int32
	before := c.stamp()
	c.begin(0, &leaf)
	if leaf.Load() != 1 {
		t.Fatal("begin did not switch the leaf")
	}
	during := c.stamp()
	c.end(0)
	after := c.stamp()
	for name, tc := range map[string]struct {
		st   readStamp
		want uint8
	}{
		"a read that began before the invalidation": {before, 3},
		"a read that began during it":               {during, 3},
		"a read issued after its 2xx":               {after, 2},
	} {
		if got := c.admissible(tc.st); got[0] != tc.want || got[1] != 1 {
			t.Errorf("%s: admissible = %v; want [%d 1]", name, got, tc.want)
		}
	}
}
