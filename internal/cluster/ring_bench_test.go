package cluster

import (
	"fmt"
	"testing"
)

// benchRing is the ring the benchmarks and their ratchet walk: ten members
// at DefaultVirtualNodes.
func benchRing(tb testing.TB) *Ring {
	var members []string
	for i := 0; i < 10; i++ {
		members = append(members, fmt.Sprintf("node%d", i))
	}
	r, err := NewRing(members, DefaultVirtualNodes)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkRingOwner is the ring's figure of merit: one view-to-owner
// lookup (hash + binary search over node*vnodes points). Every request
// for a non-local view pays this once; it must stay in the tens of
// nanoseconds.
func BenchmarkRingOwner(b *testing.B) {
	r, names := benchRing(b), keys(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(names[i%len(names)])
	}
}

// BenchmarkRingOwnersReplicated is the replicated-view variant: the
// clockwise walk collecting 3 distinct owners.
func BenchmarkRingOwnersReplicated(b *testing.B) {
	r, names := benchRing(b), keys(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owners(names[i%len(names)], 3)
	}
}

// TestRingLookupAllocs pins the allocations of one lookup of each benchmark
// above: the owner slice and nothing else (measured: 1 allocs/op for both
// benchmarks at -benchtime 2000x, go1.24 linux/amd64). There is no slack, so
// the walk cannot start allocating per point or per member.
func TestRingLookupAllocs(t *testing.T) {
	r, names := benchRing(t), keys(512)
	next := 0
	for _, c := range []struct {
		name     string
		lookup   func(key string)
		measured float64
	}{
		{"RingOwner", func(key string) { _ = r.Owner(key) }, 1},
		{"RingOwnersReplicated", func(key string) { _ = r.Owners(key, 3) }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(len(names), func() { c.lookup(names[next%len(names)]); next++ })
			if allocs > c.measured {
				t.Errorf("%.0f allocs a lookup, measured %.0f", allocs, c.measured)
			}
		})
	}
}
