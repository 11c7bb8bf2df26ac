package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workers is the number of client goroutines and of keep-alive
// connections per node: the box has two cores.
const workers = 2

// driver sends planned operations to a stack and checks every answer.
type driver struct {
	st     *stack
	oracle *oracle
	client *http.Client
	// next is the plan cursor shared by every phase, so a run never sends
	// the same unique payload twice.
	next atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64
	// firstFailure keeps one diagnostic for the report.
	failMu       sync.Mutex
	firstFailure string
	// soundnessDue is set at the start of each phase: the phase's first
	// materialization is re-validated against the DTD it was served with.
	soundnessDue atomic.Bool
	// sent counts the operations sent, by kind.
	sent [numOpKinds]atomic.Int64
}

func newDriver(st *stack, o *oracle) *driver {
	return &driver{st: st, oracle: o, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers},
	}}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

func (d *driver) fail(op op, format string, args ...any) {
	d.failed.Add(1)
	d.failMu.Lock()
	if d.firstFailure == "" {
		d.firstFailure = fmt.Sprintf("op %d (%s): %s", op.index, op.kind, fmt.Sprintf(format, args...))
	}
	d.failMu.Unlock()
}

// request issues one HTTP request and returns status and body.
func (d *driver) request(method, url, body string) (int, string, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// do executes one operation end to end and verifies its answer. It
// returns the moment the response was complete; verification happens
// after that and is not part of any latency.
func (d *driver) do(op op) time.Time {
	d.attempted.Add(1)
	d.sent[op.kind].Add(1)
	st := d.st
	base := st.nodes[op.node].srv.url
	switch op.kind {
	case opQuery, opQualified, opMaterialize:
		stamp := d.oracle.versions.stamp()
		view := st.fx.views[op.view].name
		var status int
		var body string
		var err error
		if op.kind == opMaterialize {
			status, body, err = d.request("GET", base+"/views/"+view, "")
		} else {
			status, body, err = d.request("POST", base+"/views/"+view+"/query", op.payload)
		}
		done := time.Now()
		switch {
		case err != nil:
			d.fail(op, "transport: %v", err)
		case status != http.StatusOK:
			d.fail(op, "status %d: %.200s", status, body)
		default:
			allowed := d.oracle.versions.admissible(stamp)
			if !d.oracle.checkRead(op, body, allowed) {
				d.fail(op, "view %s via node %d: answer differs from the naive path: %s", view, op.node, d.oracle.explainRead(op, body, allowed))
				break
			}
			if op.kind == opMaterialize && d.soundnessDue.CompareAndSwap(true, false) {
				if err := checkSoundness(body); err != nil {
					d.fail(op, "materialization violates its served DTD: %v", err)
				}
			}
		}
		return done
	case opInferHot, opInferUnique:
		status, body, err := d.request("POST", base+"/infer", op.payload)
		done := time.Now()
		switch {
		case err != nil:
			d.fail(op, "transport: %v", err)
		case status != http.StatusOK:
			d.fail(op, "status %d: %.200s", status, body)
		case !d.oracle.checkInfer(op, body):
			d.fail(op, "response differs from direct InferContext output")
		}
		return done
	case opInvalidate:
		status, body, err := d.request("POST", base+"/invalidate", "")
		done := time.Now()
		if err != nil || status != http.StatusNoContent {
			d.fail(op, "status %d: %v %.200s", status, err, body)
		}
		return done
	case opInvalidateSource:
		// Swap the leaf to the other version first, then tell every owner:
		// otherwise a stale cache is indistinguishable from a correct one.
		src := st.fx.sources[op.source]
		d.oracle.versions.begin(op.source, st.leaf.version[src.name])
		msg := fmt.Sprintf(`{"source": %q}`, st.sourceName(src))
		for _, o := range st.owners[st.viewOf(op.source)] {
			status, body, err := d.request("POST", st.nodes[o].srv.url+"/invalidate", msg)
			if err != nil || status != http.StatusOK {
				d.fail(op, "owner %d: status %d: %v %.200s", o, status, err, body)
			}
		}
		d.oracle.versions.end(op.source)
		return time.Now()
	}
	panic("unreachable")
}

// sample is one completed operation of a measured phase.
type sample struct {
	kind    opKind
	due     time.Duration // offset of the scheduled (open loop) or actual (closed loop) start
	lag     time.Duration // actual start − due; 0 in a closed loop
	latency time.Duration // completion − due
}

// closedLoop runs clients goroutines that each send their next operation
// as soon as the previous one completed, for the given duration.
func (d *driver) closedLoop(clients int, dur time.Duration) []sample {
	d.soundnessDue.Store(true)
	start := time.Now()
	deadline := start.Add(dur)
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				begin := time.Now()
				if !begin.Before(deadline) {
					return
				}
				op := d.st.fx.opAt(d.next.Add(1) - 1)
				begin = time.Now() // building a unique payload is the generator's time
				done := d.do(op)
				out[c] = append(out[c], sample{kind: op.kind, due: begin.Sub(start), latency: done.Sub(begin)})
			}
		}(c)
	}
	wg.Wait()
	return flatten(out)
}

// openLoop sends operations on a fixed schedule of rate per second for
// dur: operation k is due at k/rate whatever happened to the ones before
// it. Two workers pull due operations; latency runs from the due time, so
// a stall is charged to every operation it delays. An operation due inside
// the phase is still sent up to a quarter of the phase late; what is left
// unsent then is returned as the backlog.
func (d *driver) openLoop(rate float64, dur time.Duration) (samples []sample, unsent int) {
	d.soundnessDue.Store(true)
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(dur / interval)
	start := time.Now()
	cutoff := start.Add(dur + dur/4)
	var slot atomic.Int64
	out := make([][]sample, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := slot.Add(1) - 1
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				op := d.st.fx.opAt(d.next.Add(1) - 1)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				begin := time.Now()
				if begin.After(cutoff) {
					return // hopelessly behind: this and the rest is backlog
				}
				done := d.do(op)
				out[c] = append(out[c], sample{kind: op.kind, due: due.Sub(start), lag: begin.Sub(due), latency: done.Sub(due)})
			}
		}(c)
	}
	wg.Wait()
	samples = flatten(out)
	return samples, int(total) - len(samples)
}

func flatten(parts [][]sample) []sample {
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// resources snapshots what the process has consumed so far.
type resources struct {
	cpu     time.Duration // user + system
	allocB  uint64
	mallocs uint64
	gcCPU   float64
	heapSys uint64 // heap obtained from the OS: the high-water mark
}

func readResources() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:  ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcCPU:   ms.GCCPUFraction,
		heapSys: ms.HeapSys,
	}
}
