package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile for it to
// be reported: fewer and the figure is one or two outliers, not a tail.
const tailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of the exact sorted
// sample by nearest rank. ok is false — and the percentile omitted — when
// fewer than tailSamples samples lie beyond it; the median needs only one
// sample.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < tailSamples {
		return 0, false
	}
	return sorted[rank-1], true
}

// supportedTail returns the p-th percentile or, when the sample is too
// small to support it, the highest percentile that still has tailSamples
// samples beyond it; used reports which. ok is false when the sample has
// no more than tailSamples values at all.
func supportedTail(sorted []float64, p float64) (v, used float64, ok bool) {
	if v, ok := percentile(sorted, p); ok {
		return v, p, true
	}
	n := len(sorted)
	if n <= tailSamples {
		return 0, 0, false
	}
	return sorted[n-tailSamples-1], 100 * float64(n-tailSamples) / float64(n), true
}

// median is the 50th percentile with the usual midpoint for even counts;
// 0 for an empty sample.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method) — the driver measures spread that way, so -repeat does too.
// It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the sorted latencies in ms of the samples keep admits.
func latencies(samples []sample, keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s.kind) {
			out = append(out, ms(s.latency))
		}
	}
	sort.Float64s(out)
	return out
}

// rung is the outcome of one fixed-rate open-loop phase.
type rung struct {
	rate    float64
	dur     time.Duration
	samples []sample
	unsent  int
	failed  int64
}

// backlogGrowing reports whether the generator fell further and further
// behind its schedule: the median lag of the last fifth of the phase
// exceeds that of the first fifth by more than half the latency limit. A
// constant lag is a slow client, a growing one is a server past capacity.
func backlogGrowing(samples []sample, dur time.Duration, limit time.Duration) bool {
	var first, last []float64
	for _, s := range samples {
		switch {
		case s.due < dur/5:
			first = append(first, float64(s.lag))
		case s.due >= dur-dur/5:
			last = append(last, float64(s.lag))
		}
	}
	if len(first) == 0 || len(last) == 0 {
		return len(last) == 0 // nothing was sent in the last fifth at all
	}
	return median(last)-median(first) > float64(limit)/2
}

// sustained reports whether the rung held: no failures, every scheduled
// operation sent, backlog not growing, and the read-class p95 — or the
// highest percentile below it that the sample supports — within the limit.
func (r *rung) sustained(limit time.Duration) bool {
	if r.failed > 0 || r.unsent > 0 || backlogGrowing(r.samples, r.dur, limit) {
		return false
	}
	tail, _, ok := supportedTail(latencies(r.samples, opKind.isRead), 95)
	return ok && tail <= ms(limit)
}

// maxOKRate is the highest rate among the rungs that was sustained, 0 if
// none.
func maxOKRate(rungs []*rung, limit time.Duration) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.sustained(limit) && r.rate > best {
			best = r.rate
		}
	}
	return best
}
