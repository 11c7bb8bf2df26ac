package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

//go:embed testdata/digests.json
var digestsJSON []byte

// committedDigest returns the input digest committed for a workload and
// seed, if there is one.
func committedDigest(workload string, seed int64) (string, bool) {
	var committed map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &committed); err != nil {
		panic("testdata/digests.json, embedded at build time: " + err.Error())
	}
	want, ok := committed[workload][strconv.FormatInt(seed, 10)]
	return want, ok
}

// checkDigest refuses to run on inputs that differ from the committed
// ones: parent and change must be measured on identical corpora, pools and
// plans even if the generators under internal/ are refactored. A seed
// without a committed digest (the driver picks its own) runs unchecked;
// --repeat, the tool for comparing commits, refuses such a seed.
func checkDigest(fx *fixtures) error {
	want, ok := committedDigest(fx.w.name, fx.seed)
	if !ok {
		return nil
	}
	if got := fx.digest(); got != want {
		return fmt.Errorf("workload %s seed %d: input digest %s differs from the committed %s: "+
			"the generated inputs changed, so numbers would not compare with earlier runs", fx.w.name, fx.seed, got, want)
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is what one run is asked to do.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	out     io.Writer // human-readable report
	// traceDir is where the traced run writes its spans.
	traceDir string
	// setupSpan is how long the untraced run spends setting the stack up,
	// in setupGroups groups; 0 (--smoke) sets it up once.
	setupSpan time.Duration
}

// phase lengths as shares of --seconds. The issue's shape (2 s warm-up,
// 10 s capacity, 8 s per rung) is kept in proportion and shrunk uniformly
// to fit the contract's cap on total wall time.
const (
	warmShare     = 0.10 // discarded, on top of --seconds
	capacityShare = 0.30
	pacedShare    = 0.70
	// blocks is how many times the capacity and paced phases alternate.
	blocks = 4
	// The untraced run sets the stack up in setupGroups groups — before the
	// warm-up and after every block, so that the set-ups span the run: the
	// box has bursts of a few seconds in which everything takes two or
	// three times as long, and one of those must move a minority of the
	// sample, not all of it. A group sets up at least once and, a cheap
	// set-up, until the group has spent its share of defaultSetupSpan (a
	// 10 ms set-up timed five times is mostly scheduling noise), at most
	// maxGroupSetups times. setup_s is the median over all groups.
	setupGroups      = blocks + 1
	defaultSetupSpan = time.Second
	maxGroupSetups   = 20
)

func (c runConfig) span(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// setupPass sends every distinct operation of the workload once through
// every node: first-use costs (forward transports, verdict and automata
// cache fills, first materialization) belong to set-up, not to the
// measured phases.
func setupPass(d *driver) {
	fx := d.st.fx
	for n := 0; n < fx.w.nodes; n++ {
		if fx.w.has(opInferHot) {
			for i, p := range fx.inferHot {
				d.do(op{index: -1, kind: opInferHot, query: i, payload: p, node: n})
			}
			continue
		}
		for vi, v := range fx.views {
			for qi := range v.queries() {
				d.do(fx.readOp(vi, qi, n))
			}
			d.do(op{index: -1, kind: opMaterialize, view: vi, node: n})
		}
	}
}

// setUpGroup builds the stack repeatedly, each time from cold process
// caches, until span has been spent on it. It returns the last stack, its
// driver and every set-up's time; the stacks before the last are closed.
func setUpGroup(fx *fixtures, lf *leaf, o *oracle, extraNodes int, span time.Duration) (*stack, *driver, []float64, error) {
	var times []float64
	var spent float64
	for {
		purgeProcessCaches()
		runtime.GC() // garbage made before this set-up is not its to collect
		start := time.Now()
		st, err := buildStack(fx, lf, extraNodes)
		if err != nil {
			return nil, nil, nil, err
		}
		d := newDriver(st, o)
		setupPass(d)
		times = append(times, time.Since(start).Seconds())
		spent += times[len(times)-1]
		if d.failed.Load() > 0 {
			d.close()
			st.close()
			return nil, nil, nil, fmt.Errorf("set-up pass: %s", d.firstFailure)
		}
		if spent >= span.Seconds() || len(times) >= maxGroupSetups {
			return st, d, times, nil
		}
		d.close()
		st.close()
	}
}

// run executes one workload once and returns its result line.
func run(c runConfig) (*result, error) {
	fx, err := buildFixtures(c.w, c.seed)
	if err != nil {
		return nil, err
	}
	if err := checkDigest(fx); err != nil {
		return nil, err
	}
	o, err := buildOracle(fx)
	if err != nil {
		return nil, err
	}
	lf, err := startLeaf(fx)
	if err != nil {
		return nil, err
	}
	defer lf.close()
	extraNodes := 0
	if c.traced && c.w.nodes == 1 {
		extraNodes = 1 // a forward-only peer, to price the hop
	}
	groupSpan := c.setupSpan / setupGroups
	if c.traced {
		groupSpan = 0 // the traced run reports no set-up time: once is enough
	}
	st, d, setupTimes, err := setUpGroup(fx, lf, o, extraNodes, groupSpan)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer d.close()

	fmt.Fprintf(c.out, "workload %s  seed %d  seconds %g  traced %v\n", c.w.name, c.seed, c.seconds, c.traced)
	fmt.Fprintf(c.out, "fixtures: %d sources x ~%d B, %d view(s), %d node(s), R=%g ops/s, L=%g ms\n",
		len(fx.sources), c.w.docBytes, len(fx.views), c.w.nodes, c.w.rate, c.w.limitMs)

	values := map[string]float64{}
	var declared []metric
	if c.traced {
		declared = perLayer
		if err := traceRun(c, st, d, values); err != nil {
			return nil, err
		}
	} else {
		declared = endToEnd
		// The set-ups after each block build a stack beside the measured one
		// and drop it. They leave the process-wide caches as the first one
		// did: purged, then filled by the same set-up pass.
		var setupErr error
		l := measure(c, d, 1, func() {
			if c.setupSpan == 0 || setupErr != nil {
				return
			}
			st, d, times, err := setUpGroup(fx, lf, o, extraNodes, groupSpan)
			if err != nil {
				setupErr = err
				return
			}
			d.close()
			st.close()
			setupTimes = append(setupTimes, times...)
		})
		if setupErr != nil {
			return nil, setupErr
		}
		values["setup_s"] = median(setupTimes)
		sorted := append([]float64(nil), setupTimes...)
		sort.Float64s(sorted)
		fmt.Fprintf(c.out, "%d set-ups in %d groups: %.4f s to %.4f s\n", len(sorted), setupGroups, sorted[0], sorted[len(sorted)-1])
		values["alloc_kb_per_op"] = float64(l.allocB) / 1000 / float64(l.ops)
		values["allocs_per_op"] = float64(l.mallocs) / float64(l.ops)
		// The time-based figures are printed here too, but they are the
		// traced run's to report: on a shared two-core box they do not
		// repeat within a tenth, so they gate nothing.
		reads := latencies(l.paced, opKind.isRead)
		p50, _ := percentile(reads, 50)
		p90, _, _ := supportedTail(reads, 90)
		fmt.Fprintf(c.out, "not gated: throughput %.1f ops/s, cpu %.3f ms/op, read p50 %.3f ms, p90 %.3f ms (n=%d) at R\n",
			median(l.throughput), median(l.cpuMs), p50, p90, len(reads))
		printClasses(c.out, l.paced)
	}

	res := &result{
		Correct:   d.failed.Load() == 0,
		Attempted: d.attempted.Load(),
		Failed:    d.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range declared {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(c.out, "  %-34s %14.4f %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(c.out, "ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	if !res.Correct {
		// On standard error too, so that --quiet and --repeat still say why.
		fmt.Fprintf(c.out, "FIRST FAILURE: %s\n", d.firstFailure)
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d ops failed; first: %s\n", c.w.name, c.seed, res.Failed, res.Attempted, d.firstFailure)
	}
	return res, nil
}

// traffic is what the measured phases of one run yielded.
type traffic struct {
	paced      []sample // every open-loop sample at R
	pacedDur   time.Duration
	unsent     int
	throughput []float64 // closed-loop ops/s, one per block
	cpuMs      []float64 // process CPU ms per closed-loop op, one per block
	ops        int       // operations in the measured phases, both loops
	allocB     uint64    // bytes and objects allocated over those phases
	mallocs    uint64
}

// measure runs the measured traffic: a discarded warm-up, then blocks that
// each run the closed loop (capacity) and then the open loop at the
// workload's fixed rate R, scaled to share of --seconds. The box's speed
// drifts by tens of percent over seconds to minutes, so the phases
// alternate and rates are medians over the blocks: one slow stretch moves
// one block, not the result. Allocation is counted over all of it — the
// plan is stratified, so any stretch of it has the mix's composition.
// afterBlock, if not nil, runs after every block; what it allocates is not
// counted.
func measure(c runConfig, d *driver, share float64, afterBlock func()) traffic {
	d.closedLoop(workers, c.span(warmShare*share))
	capDur, pacedDur := c.span(capacityShare*share/blocks), c.span(pacedShare*share/blocks)
	l := traffic{pacedDur: pacedDur * blocks}
	for b := 0; b < blocks; b++ {
		before := readResources()
		start := time.Now()
		closed := d.closedLoop(workers, capDur)
		elapsed := time.Since(start)
		after := readResources()
		l.throughput = append(l.throughput, float64(len(closed))/elapsed.Seconds())
		l.cpuMs = append(l.cpuMs, ms(after.cpu-before.cpu)/float64(len(closed)))
		open, late := d.openLoop(c.w.rate, pacedDur)
		l.unsent += late
		for _, s := range open {
			s.due += time.Duration(b) * pacedDur // the blocks' open loops, end to end
			l.paced = append(l.paced, s)
		}
		l.ops += len(closed) + len(open)
		end := readResources()
		l.allocB += end.allocB - before.allocB
		l.mallocs += end.mallocs - before.mallocs
		if afterBlock != nil {
			afterBlock()
		}
	}
	fmt.Fprintf(c.out, "%d blocks of %.2fs closed loop (%d clients) + %.2fs open loop at R=%g: %d ops, %d unsent\n",
		blocks, capDur.Seconds(), workers, pacedDur.Seconds(), c.w.rate, l.ops, l.unsent)
	return l
}

// printClasses prints each op class's exact-sample latency percentiles
// with its count; p95 only where the sample supports it.
func printClasses(out io.Writer, samples []sample) {
	for k := opKind(0); k < numOpKinds; k++ {
		l := latencies(samples, func(o opKind) bool { return o == k })
		if len(l) == 0 {
			continue
		}
		p50, _ := percentile(l, 50)
		line := fmt.Sprintf("  %-18s n=%-6d p50=%.3fms", k, len(l), p50)
		if p95, ok := percentile(l, 95); ok {
			line += fmt.Sprintf(" p95=%.3fms", p95)
		}
		fmt.Fprintln(out, line)
	}
}
