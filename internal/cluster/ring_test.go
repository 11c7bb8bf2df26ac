package cluster

import (
	"fmt"
	"math"
	"testing"
)

// keys synthesizes a deterministic view-name corpus.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("view-%d", i)
	}
	return out
}

// TestRingDeterministic is the fleet-agreement property: the assignment
// is a pure function of membership and virtual-node count — independent
// of insertion order and of the process computing it (no seeds, no map
// iteration, no maphash). Two rings built from permuted member lists
// must agree on every key.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"alpha", "beta", "gamma", "delta"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"delta", "gamma", "beta", "alpha", "beta"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(a.Nodes()); got != fmt.Sprint(b.Nodes()) || got != "[alpha beta delta gamma]" {
		t.Fatalf("memberships disagree or unsorted: %s vs %s", fmt.Sprint(a.Nodes()), fmt.Sprint(b.Nodes()))
	}
	for _, k := range keys(2000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("key %s: owner %s vs %s across permuted memberships", k, ao, bo)
		}
		for n := 1; n <= 4; n++ {
			ao, bo := a.Owners(k, n), b.Owners(k, n)
			if fmt.Sprint(ao) != fmt.Sprint(bo) {
				t.Fatalf("key %s owners(%d): %v vs %v", k, n, ao, bo)
			}
		}
	}
}

// TestRingGoldenAssignment pins a handful of concrete assignments. FNV-1a
// plus the fmix64 finalizer over "node#i" is stable across Go versions and
// platforms; if this test ever fails, the ring function changed and every
// running fleet would disagree with a newly deployed node — treat it as a
// wire-format break, not a test to update casually. (It was updated once,
// on purpose: bare FNV-1a put shard0–shard3 all on node1, and this test
// pinned that. The second half is there so a golden can never again pin a
// ring that does not shard.)
func TestRingGoldenAssignment(t *testing.T) {
	r, err := NewRing([]string{"node0", "node1", "node2"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string]string{
		"shard0":  "node2",
		"shard1":  "node0",
		"shard2":  "node1",
		"shard3":  "node1",
		"members": "node2",
		"profs":   "node0",
	}
	for k, w := range expect {
		if got := r.Owner(k); got != w {
			t.Errorf("Owner(%q) = %s, want %s", k, got, w)
		}
	}
	if got, want := fmt.Sprint(r.Owners("shard0", 2)), "[node2 node0]"; got != want {
		t.Errorf("Owners(shard0, 2) = %s, want %s", got, want)
	}
	distinct := map[string]bool{}
	for i := 0; i < 8; i++ {
		distinct[r.Owner(fmt.Sprintf("shard%d", i))] = true
	}
	if len(distinct) < 2 {
		t.Errorf("shard0..shard7 all land on one owner %v: keys differing in their last byte must spread", distinct)
	}
}

// TestRingMinimalRemap is the consistent-hashing contract, stated
// exactly, not statistically: removing one node never changes the owner
// of a key the removed node did not own — and the keys it did own (an
// expected 1/N of them) scatter over the survivors.
func TestRingMinimalRemap(t *testing.T) {
	const n = 10
	var members []string
	for i := 0; i < n; i++ {
		members = append(members, fmt.Sprintf("node%d", i))
	}
	full, err := NewRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	removed := "node3"
	var rest []string
	for _, m := range members {
		if m != removed {
			rest = append(rest, m)
		}
	}
	shrunk, err := NewRing(rest, 64)
	if err != nil {
		t.Fatal(err)
	}

	corpus := keys(5000)
	moved := 0
	for _, k := range corpus {
		before, after := full.Owner(k), shrunk.Owner(k)
		if before != removed && before != after {
			t.Fatalf("key %s moved %s -> %s though %s was not its owner", k, before, after, removed)
		}
		if before == removed {
			moved++
			if after == removed {
				t.Fatalf("key %s still assigned to removed node", k)
			}
		}
	}
	// The removed node owned an expected 1/N of the keys; allow generous
	// smoothing noise (64 vnodes keeps the share within ~2x).
	frac := float64(moved) / float64(len(corpus))
	if frac == 0 || frac > 2.5/n {
		t.Errorf("removing 1 of %d nodes remapped %.1f%% of keys, want ~%.1f%%",
			n, 100*frac, 100.0/n)
	}
}

// TestRingOwnersDistinctAndClamped: Owners walks distinct nodes and
// clamps n to the membership.
func TestRingOwnersDistinctAndClamped(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(200) {
		owners := r.Owners(k, 5)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 5) = %v, want all 3 members", k, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q, 5) repeats %s: %v", k, o, owners)
			}
			seen[o] = true
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("Owners[0] %s != Owner %s", owners[0], r.Owner(k))
		}
	}
}

// TestRingStatsShares: per-node shares are positive, sum to ~1, and stay
// within a loose balance envelope at 64 vnodes.
func TestRingStatsShares(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c", "d", "e"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range r.Stats() {
		if s.Share <= 0 {
			t.Errorf("node %s share %f <= 0", s.Node, s.Share)
		}
		if s.Share < 0.2/3 || s.Share > 0.2*3 {
			t.Errorf("node %s share %.3f badly unbalanced (expected ~0.2)", s.Node, s.Share)
		}
		sum += s.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %f, want 1", sum)
	}
}

// TestNewRingErrors: empty membership and empty names are refused.
func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Error("empty membership must fail")
	}
	if _, err := NewRing([]string{"a", ""}, 8); err == nil {
		t.Error("empty node name must fail")
	}
}
