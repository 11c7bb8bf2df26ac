package load

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunClusterSmoke is a bounded end-to-end run of the cluster smoke
// campaign — the same harness `make cluster-smoke` gates CI on, with
// phases short enough for a unit test. The checks inside the report ARE
// the assertions (bit-equivalence with each view's first owner, zero
// errors fleet-wide, forwarded reads that ship no body and fresh reads
// after a change, kill-one-node survival, orphan error taxonomy once the
// dead owner's leases ran out);
// the test additionally pins the report's structural contract.
func TestRunClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster campaign takes multiple seconds")
	}
	rep, err := RunCluster(context.Background(), ClusterOptions{
		Seed:  1,
		RPS:   60,
		Phase: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("campaign failed:\n%s", rep.Summary())
	}
	if rep.EquivalenceChecks == 0 || rep.Mismatches != 0 {
		t.Errorf("equivalence: %d checks, %d mismatches", rep.EquivalenceChecks, rep.Mismatches)
	}
	if rep.Load.Requests == 0 || rep.Load.Forwarded == 0 {
		t.Errorf("load phase drove %d requests, %d forwarded — forwarding never exercised",
			rep.Load.Requests, rep.Load.Forwarded)
	}
	if rep.Load.NotModified+rep.Load.LeaseHits == 0 {
		t.Error("every forwarded read of the load phase shipped a body: neither a 304 nor a lease hit")
	}
	if rep.RevalidationReads < int64(rep.Views) || rep.StaleReads != 0 {
		t.Errorf("after every source changed: %d forwarded reads, %d stale", rep.RevalidationReads, rep.StaleReads)
	}
	if rep.Survivors.Requests == 0 || rep.Survivors.Errors != 0 {
		t.Errorf("survivor phase: %d requests, %d errors", rep.Survivors.Requests, rep.Survivors.Errors)
	}
	if rep.Victim == "" {
		t.Error("report names no victim node")
	}
	if len(rep.Assignments) == 0 {
		t.Error("report carries no view assignments")
	}

	// The report survives a JSON round-trip and the summary states the
	// verdict.
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ClusterReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.EquivalenceChecks != rep.EquivalenceChecks {
		t.Errorf("round-trip lost equivalence count: %d vs %d", back.EquivalenceChecks, rep.EquivalenceChecks)
	}
	if !strings.Contains(rep.Summary(), "PASS") {
		t.Errorf("summary missing verdict:\n%s", rep.Summary())
	}
}

// TestClusterOptionDefaults: zero values fill in, negatives clamp, and a
// replication request larger than the view count is capped.
func TestClusterOptionDefaults(t *testing.T) {
	d := ClusterOptions{}.withDefaults()
	if d.Nodes != 3 || d.Views != 4 || d.Replicated != 1 || d.RPS != 100 || d.Phase != 2*time.Second {
		t.Errorf("defaults: %+v", d)
	}
	if got := (ClusterOptions{Replicated: -1}).withDefaults().Replicated; got != 0 {
		t.Errorf("negative Replicated should clamp to 0, got %d", got)
	}
	if got := (ClusterOptions{Views: 2, Replicated: 5}).withDefaults().Replicated; got != 2 {
		t.Errorf("Replicated should cap at Views, got %d", got)
	}
}

// TestFirstDiff: the mismatch diagnostic pinpoints the divergent byte (or
// the length difference of a proper prefix).
func TestFirstDiff(t *testing.T) {
	got := firstDiff("aaaaXbbbb", "aaaaYbbbb")
	if !strings.Contains(got, "at byte 4") || !strings.Contains(got, "X") || !strings.Contains(got, "Y") {
		t.Errorf("firstDiff = %q", got)
	}
	if got := firstDiff("abc", "abcdef"); !strings.Contains(got, "length 3 vs 6") {
		t.Errorf("prefix case: %q", got)
	}
}
