// Package cluster shards mediator views across a fleet of mediator nodes:
// a deterministic consistent-hash ring assigns every view name to one (or,
// for replicated views, several) owner nodes, and a node asked for a view
// it does not own forwards to an owner by treating the peer mediator as
// just another source — the same HTTPSource transport (streaming DTD
// validation, bounded retries, retry budgets) and the same ReplicaSet
// machinery (health tracking, hedged reads, failover, stale serving) that
// already guard ordinary remote sources.
//
// The soundness argument is the paper's own: a lower-level mediator
// derives and provides its inferred view DTD to higher levels, so the
// forwarding node validates and reasons over the owner's *inferred* view
// DTD exactly as it would over any source DTD. Per-shard inference
// composes — every owner of a view infers the same DTD from the same
// definition, which is what lets the ring treat owners as interchangeable
// replicas (NewReplicaSet's DTD-equivalence check enforces it).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-node virtual-node count when the
// configuration does not set one. More virtual nodes smooth the ownership
// shares (stddev ~ 1/sqrt(vnodes)) at a small memory cost.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over named nodes. It is deterministic
// and seed-stable: the assignment depends only on the membership and the
// virtual-node count — never on insertion order, map iteration, process
// identity or any random seed — so every node of a cluster computes the
// identical ring from the identical configuration, and two processes
// never disagree about who owns a view.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	vnodes int
	nodes  []string // sorted member names
	points []point  // sorted by hash
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// NewRing builds the ring for the given members. Node names are
// deduplicated and sorted; vnodes <= 0 selects DefaultVirtualNodes.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	var members []string
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if !seen[n] {
			seen[n] = true
			members = append(members, n)
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sort.Strings(members)
	r := &Ring{vnodes: vnodes, nodes: members}
	r.points = make([]point, 0, len(members)*vnodes)
	for _, n := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between two nodes' virtual points is vanishingly
		// unlikely but must still order deterministically.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// ringHash is FNV-1a 64 passed through the murmur3 64-bit finalizer. Both
// halves are allocation-free and stable across processes and Go versions
// (unlike maphash, which is seeded per process — exactly what a
// distributed assignment must not be). The finalizer is what makes the ring
// shard: bare FNV-1a ends in one multiply by a 40-bit prime, so keys that
// differ only in their last byte ("shard0" … "shard9") land within ~2^44 of
// each other on a 2^64 ring — inside one virtual node's arc, hence on one
// owner. fmix64 spreads every input bit over the whole word.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	k := h.Sum64()
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Nodes returns the sorted member names.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// VirtualNodes returns the per-node virtual-node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Owner returns the node owning key: the first virtual node at or after
// the key's hash, walking the ring clockwise.
func (r *Ring) Owner(key string) string { return r.Owners(key, 1)[0] }

// Owners returns the n distinct nodes encountered walking clockwise from
// the key's hash — the owner set of a view replicated n ways. n is
// clamped to the member count, so a replication factor larger than the
// cluster degrades to "every node owns it" rather than failing.
func (r *Ring) Owners(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// NodeRingStats is one node's slice of a RingStats report.
type NodeRingStats struct {
	Node string `json:"node"`
	// VirtualNodes is the node's point count on the ring.
	VirtualNodes int `json:"virtual_nodes"`
	// Share is the fraction of the 64-bit hash space whose keys the node
	// owns (expected 1/len(nodes), smoothed by the virtual nodes).
	Share float64 `json:"share"`
}

// Stats reports the per-node ownership shares — the load-balance figure
// of merit exposed at /metrics and GET /cluster.
func (r *Ring) Stats() []NodeRingStats {
	arc := map[string]uint64{}
	for i, p := range r.points {
		// The arc owned by point i stretches from the previous point
		// (exclusive) to i (inclusive); the first point also owns the
		// wrap-around from the last point.
		var width uint64
		if i == 0 {
			width = r.points[0].hash + (^uint64(0) - r.points[len(r.points)-1].hash) + 1
		} else {
			width = p.hash - r.points[i-1].hash
		}
		arc[p.node] += width
	}
	out := make([]NodeRingStats, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, NodeRingStats{
			Node:         n,
			VirtualNodes: r.vnodes,
			Share:        float64(arc[n]) / float64(1<<63) / 2,
		})
	}
	return out
}
