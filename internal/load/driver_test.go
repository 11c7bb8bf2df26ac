package load

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// logicOnly is the SLO of every in-suite run. Unit tests assert logic
// (faults visible, taxonomy, determinism, answers identical). Inside
// `go test ./...` latency and shed ceilings measure the neighbouring
// packages' CPU use, not the serving path; they are enforced where the box
// is quiet (make load-smoke, chaos, cluster-smoke, nightly).
var logicOnly = SLO{P95: Unchecked, P99: Unchecked, MaxShedRate: UncheckedRate}

// short returns options for a sub-second in-process run: fast enough for
// `go test`, long enough that every op kind appears in the stream.
func short(seed int64) Options {
	return Options{
		Seed:     seed,
		RPS:      200,
		Duration: 1200 * time.Millisecond,
		Sources:  6,
		SLO:      logicOnly,
	}
}

// TestHarnessDeterministic is the acceptance criterion for -seed: two
// harnesses built from equal options agree on every schema, every
// document and the entire op-for-op request plan.
func TestHarnessDeterministic(t *testing.T) {
	a, err := NewHarness(short(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewHarness(short(5))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	as, bs := a.Sources(), b.Sources()
	if len(as) != 6 || len(bs) != 6 {
		t.Fatalf("fleet sizes = %d, %d; want 6", len(as), len(bs))
	}
	for i := range as {
		if as[i].DTD.String() != bs[i].DTD.String() {
			t.Errorf("source %d: same seed, different schema", i)
		}
		if !as[i].Doc.Root.Equal(bs[i].Doc.Root) {
			t.Errorf("source %d: same seed, different corpus", i)
		}
	}
	if !reflect.DeepEqual(a.Plan(), b.Plan()) {
		t.Error("same seed, different op stream")
	}

	c, err := NewHarness(short(6))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if reflect.DeepEqual(a.Plan(), c.Plan()) {
		t.Error("different seeds, identical op stream")
	}
}

// TestRunPassesSLO is the end-to-end smoke: a short fault-free run over
// the default heterogeneous fleet must complete every op kind without a
// single error, prune at least some qualified queries, satisfy the
// default SLOs, and round-trip through the BENCH_serve.json encoding.
func TestRunPassesSLO(t *testing.T) {
	h, err := NewHarness(short(1))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("fault-free run saw %d errors", rep.Errors)
	}
	if !rep.Pass {
		t.Errorf("SLO failed:\n%s", rep.Summary())
	}
	if rep.Requests == 0 || rep.Planned == 0 {
		t.Fatalf("empty run: %+v", rep)
	}
	for _, k := range OpKinds() {
		if rep.Ops[string(k)].Count == 0 {
			t.Errorf("op kind %s never ran", k)
		}
	}
	if rep.Ops[string(OpQualified)].PrunedResponses == 0 {
		t.Error("no qualified query was pruned against the heterogeneous fleet")
	}
	if rep.Server.Views == nil {
		t.Error("report carries no scraped server stats")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("BENCH_serve.json does not round-trip: %v", err)
	}
	if back.Requests != rep.Requests || back.Pass != rep.Pass || len(back.SLO) != len(rep.SLO) {
		t.Errorf("round-trip mismatch: %+v vs %+v", back.Requests, rep.Requests)
	}
}

// TestRunPruneCompare: the -no-prune comparison re-answers the stream's
// query pools against pruning-on and pruning-off twins; sound pruning
// means pruned queries exist and mismatches do not.
func TestRunPruneCompare(t *testing.T) {
	opts := short(3)
	opts.RPS = 50
	opts.Duration = 400 * time.Millisecond
	opts.PruneCompare = true
	h, err := NewHarness(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pc := rep.PruneCompare
	if pc == nil {
		t.Fatal("PruneCompare missing from report")
	}
	if pc.Queries == 0 {
		t.Fatal("prune comparison answered no queries")
	}
	if pc.PrunedQueries == 0 {
		t.Error("pruning never fired across the heterogeneous fleet's probes")
	}
	if pc.Mismatches != 0 {
		t.Errorf("%d pruned answers differ from unpruned", pc.Mismatches)
	}
	if !rep.Pass {
		t.Errorf("SLO failed:\n%s", rep.Summary())
	}
}

// TestRunFaultCampaign: with per-fetch fault injection and breakers on,
// the run must complete, show the faults somewhere the SLO layer can see
// (errors or degraded serving), and still pass once the SLO is told to
// expect faults.
func TestRunFaultCampaign(t *testing.T) {
	opts := short(7)
	opts.FaultRate = 0.4
	opts.Breakers = true
	opts.SLO.ExpectFaults = true
	opts.SLO.MaxErrorRate = UncheckedRate
	h, err := NewHarness(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var degraded int64
	for _, st := range rep.Ops {
		degraded += st.DegradedResponses
	}
	if rep.Errors == 0 && degraded == 0 && rep.Server.DegradedMaterializations == 0 {
		t.Error("40% fault campaign left no trace in errors or degradation")
	}
	if !rep.Pass {
		t.Errorf("fault-tolerant SLO failed:\n%s", rep.Summary())
	}
	if rep.FaultRate != 0.4 || !rep.Breakers {
		t.Errorf("report does not echo the campaign config: %+v", rep)
	}
}

// TestStrictSLOSeesFaults: the same campaign WITHOUT ExpectFaults must
// fail the run — degraded serving is an SLO violation unless declared.
func TestStrictSLOSeesFaults(t *testing.T) {
	opts := short(7)
	opts.RPS = 100
	opts.Duration = 600 * time.Millisecond
	opts.FaultRate = 0.9
	opts.Breakers = true
	opts.SLO.MaxErrorRate = UncheckedRate // strict on degradation only
	h, err := NewHarness(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Errorf("a 90%% fault campaign passed a strict SLO:\n%s", rep.Summary())
	}
}

// TestRemoteHarness drives a second harness at the first one's server —
// the -target path: probe pools are derived from the remote view DTD
// instead of local fleet knowledge.
func TestRemoteHarness(t *testing.T) {
	local, err := NewHarness(short(11))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	opts := Options{
		Seed:     11,
		RPS:      100,
		Duration: 500 * time.Millisecond,
		Target:   local.server.URL,
		View:     "load",
		SLO:      logicOnly,
	}
	remote, err := NewHarness(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	rep, err := remote.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("remote run saw %d errors", rep.Errors)
	}
	if !rep.Pass {
		t.Errorf("remote SLO failed:\n%s", rep.Summary())
	}
}

// TestRemoteModeRejectsInProcessKnobs: fault injection, breakers and
// pruning control need in-process sources.
func TestRemoteModeRejectsInProcessKnobs(t *testing.T) {
	for _, opts := range []Options{
		{Target: "http://example.invalid", FaultRate: 0.1},
		{Target: "http://example.invalid", Breakers: true},
		{Target: "http://example.invalid", PruneCompare: true},
		{Target: "http://example.invalid", NoPrune: true},
	} {
		if _, err := NewHarness(opts); err == nil {
			t.Errorf("options %+v must be rejected in remote mode", opts)
		}
	}
}
