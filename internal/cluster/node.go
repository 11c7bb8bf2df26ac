package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mediator"
)

// MaxForwardHops bounds the forwarding-path length a node accepts. A
// consistent ring resolves every view in exactly one hop, so any longer
// chain means the fleet's configurations disagree; the bound turns a
// pathological disagreement into a fast 421 instead of request
// amplification.
const MaxForwardHops = 4

// ErrForwardLoop reports a forwarding cycle or an over-long hop chain —
// only a stale or inconsistent ring configuration produces either. The
// serve layer maps it to 421 Misdirected Request: a 4xx, deliberately,
// so the peer's HTTPSource fails fast instead of retrying a path that
// will loop identically on every attempt.
var ErrForwardLoop = errors.New("cluster: forwarding loop")

// Config describes one node's complete, static view of the cluster.
// Every node of a fleet must be started with the same Nodes/VirtualNodes/
// Views/Pinned values — the ring is deterministic, so identical
// configuration is all it takes for the fleet to agree on ownership.
type Config struct {
	// Self is this node's name; must be a key of Nodes.
	Self string
	// Nodes maps every member's name to its base URL (scheme://host:port).
	Nodes map[string]string
	// VirtualNodes is the per-node virtual-node count (<=0 selects
	// DefaultVirtualNodes).
	VirtualNodes int
	// Views maps every cluster-sharded view to its replication factor
	// (<=1 means a single owner). A view absent from Views (and Pinned)
	// is unknown to the cluster: requests for it are served or 404ed
	// locally, never forwarded.
	Views map[string]int
	// Pinned overrides the ring for specific views: the listed nodes are
	// the owner set, verbatim. An operator escape hatch for manual
	// resharding — and the knob tests use to rig disagreeing topologies.
	Pinned map[string][]string
	// Client issues peer requests; nil gets a DefaultHTTPTimeout-bounded
	// client.
	Client *http.Client
	// Budget, when set, is shared by all forward transports: peer-fetch
	// retries and owner-failover hedges spend from the same bucket, so a
	// dead peer cannot amplify load against the survivors.
	Budget *mediator.RetryBudget
}

// Node is the cluster brain of one mediator process: it answers "who owns
// this view" from the ring and builds (and caches) the Forward transports
// used to reach owners of views this node does not serve locally. All
// methods are safe for concurrent use.
type Node struct {
	cfg    Config
	ring   *Ring
	client *http.Client

	mu    sync.Mutex
	slots map[string]*forwardSlot

	forwarded     atomic.Int64
	forwardErrors atomic.Int64
	loopRejected  atomic.Int64
}

// forwardSlot serializes construction of one view's Forward so a burst of
// first requests builds the peer transports once, not once per request.
// The built Forward publishes through an atomic pointer so metrics reads
// never block behind a slow in-flight build.
type forwardSlot struct {
	mu  sync.Mutex
	fwd atomic.Pointer[Forward]
}

// NewNode validates the configuration and builds the ring.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: config needs a Self node name")
	}
	if _, ok := cfg.Nodes[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self node %q is not a cluster member", cfg.Self)
	}
	members := make([]string, 0, len(cfg.Nodes))
	for name, url := range cfg.Nodes {
		if name != cfg.Self && strings.TrimSpace(url) == "" {
			return nil, fmt.Errorf("cluster: member %q has no base URL", name)
		}
		members = append(members, name)
	}
	for view, owners := range cfg.Pinned {
		if len(owners) == 0 {
			return nil, fmt.Errorf("cluster: view %q pinned to an empty owner list", view)
		}
		for _, o := range owners {
			if _, ok := cfg.Nodes[o]; !ok {
				return nil, fmt.Errorf("cluster: view %q pinned to unknown node %q", view, o)
			}
		}
	}
	ring, err := NewRing(members, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: mediator.DefaultHTTPTimeout}
	}
	return &Node{cfg: cfg, ring: ring, client: client, slots: map[string]*forwardSlot{}}, nil
}

// Self returns this node's name.
func (n *Node) Self() string { return n.cfg.Self }

// Ring returns the cluster's consistent-hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// Knows reports whether the cluster shards the named view (so a request
// for it may be forwarded rather than 404ed).
func (n *Node) Knows(view string) bool {
	if _, ok := n.cfg.Views[view]; ok {
		return true
	}
	_, ok := n.cfg.Pinned[view]
	return ok
}

// Replication returns the view's replication factor (at least 1).
func (n *Node) Replication(view string) int {
	if rf := n.cfg.Views[view]; rf > 1 {
		return rf
	}
	return 1
}

// Owners returns the view's owner set: the pin if one exists, otherwise
// the ring walk at the view's replication factor.
func (n *Node) Owners(view string) []string {
	if pinned, ok := n.cfg.Pinned[view]; ok {
		return append([]string(nil), pinned...)
	}
	return n.ring.Owners(view, n.Replication(view))
}

// Owns reports whether this node is an owner of the view.
func (n *Node) Owns(view string) bool {
	for _, o := range n.Owners(view) {
		if o == n.cfg.Self {
			return true
		}
	}
	return false
}

// Views returns the sorted names of every cluster-sharded view.
func (n *Node) Views() []string {
	seen := map[string]bool{}
	var out []string
	for v := range n.cfg.Views {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for v := range n.cfg.Pinned {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// OwnedViews returns the sorted cluster views this node owns — the views
// a cluster-mode process should define locally.
func (n *Node) OwnedViews() []string {
	var out []string
	for _, v := range n.Views() {
		if n.Owns(v) {
			out = append(out, v)
		}
	}
	return out
}

// CheckHops validates an incoming X-Mix-Forwarded header value and
// returns the hop path. A path containing this node, or one at
// MaxForwardHops or longer, fails with ErrForwardLoop (the error text
// names the offending path — the "clear error" the loop guard owes its
// operator).
func (n *Node) CheckHops(header string) ([]string, error) {
	var hops []string
	for _, h := range strings.Split(header, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hops = append(hops, h)
		}
	}
	for _, h := range hops {
		if h == n.cfg.Self {
			n.loopRejected.Add(1)
			return nil, fmt.Errorf("%w: path %s already contains this node (%s)",
				ErrForwardLoop, strings.Join(hops, " -> "), n.cfg.Self)
		}
	}
	if len(hops) >= MaxForwardHops {
		n.loopRejected.Add(1)
		return nil, fmt.Errorf("%w: path %s exceeds %d hops",
			ErrForwardLoop, strings.Join(hops, " -> "), MaxForwardHops)
	}
	return hops, nil
}

// Topology is the GET /cluster response: the node's static cluster view
// plus the live ring shares.
type Topology struct {
	Self         string            `json:"self"`
	Nodes        map[string]string `json:"nodes"`
	VirtualNodes int               `json:"virtual_nodes"`
	Views        []ViewAssignment  `json:"views"`
	Ring         []NodeRingStats   `json:"ring"`
}

// ViewAssignment is one view's ownership record in a Topology.
type ViewAssignment struct {
	View        string   `json:"view"`
	Replication int      `json:"replication"`
	Owners      []string `json:"owners"`
	// Pinned marks an operator override (the owner set ignores the ring).
	Pinned bool `json:"pinned,omitempty"`
	// Local marks views this node owns (and therefore serves itself).
	Local bool `json:"local"`
}

// Topology snapshots the node's cluster view.
func (n *Node) Topology() Topology {
	nodes := make(map[string]string, len(n.cfg.Nodes))
	for name, url := range n.cfg.Nodes {
		nodes[name] = url
	}
	t := Topology{
		Self:         n.cfg.Self,
		Nodes:        nodes,
		VirtualNodes: n.ring.VirtualNodes(),
		Ring:         n.ring.Stats(),
	}
	for _, v := range n.Views() {
		_, pinned := n.cfg.Pinned[v]
		t.Views = append(t.Views, ViewAssignment{
			View:        v,
			Replication: n.Replication(v),
			Owners:      n.Owners(v),
			Pinned:      pinned,
			Local:       n.Owns(v),
		})
	}
	return t
}

// Metrics is the cluster section of /metrics: the JSON as tagged, and the
// mix_cluster_* Prometheus series its metric/help tags declare (emitted by
// obs.MetricWriter.Struct under a node label; the ring shares are a
// labelled family internal/serve spells out).
type Metrics struct {
	Self          string          `json:"self"`
	Nodes         int             `json:"nodes" metric:"mix_cluster_nodes" help:"Mediator nodes in the cluster ring."`
	VirtualNodes  int             `json:"virtual_nodes" metric:"mix_cluster_virtual_nodes" help:"Virtual nodes per member on the consistent-hash ring."`
	OwnedViews    int             `json:"owned_views" metric:"mix_cluster_owned_views" help:"Cluster views this node owns (serves locally)."`
	ForwardViews  int             `json:"forward_views" metric:"mix_cluster_forward_views" help:"Cluster views with a built peer-forward transport."`
	Forwarded     int64           `json:"forwarded_requests" metric:"mix_cluster_forwarded_total" help:"Requests forwarded to peer mediator nodes."`
	NotModified   int64           `json:"forwarded_not_modified" metric:"mix_cluster_forwarded_not_modified_total" help:"Owner fetches of the built forward transports answered 304 Not Modified (the owner's document was unchanged and not shipped)."`
	ForwardErrors int64           `json:"forward_errors" metric:"mix_cluster_forward_errors_total" help:"Forwarded requests that failed (builds and fetches)."`
	LoopRejected  int64           `json:"loop_rejected" metric:"mix_cluster_loop_rejected_total" help:"Requests rejected by the forwarding loop guard (421)."`
	Ring          []NodeRingStats `json:"ring"`
}

// Metrics snapshots the node's forwarding counters and ring shares.
func (n *Node) Metrics() Metrics {
	var built []*Forward
	n.mu.Lock()
	for _, s := range n.slots {
		if f := s.fwd.Load(); f != nil {
			built = append(built, f)
		}
	}
	n.mu.Unlock()
	var rep mediator.SourceReport
	for _, f := range built {
		rep.Collect(f.wrapper)
	}
	return Metrics{
		Self:          n.cfg.Self,
		Nodes:         len(n.cfg.Nodes),
		VirtualNodes:  n.ring.VirtualNodes(),
		OwnedViews:    len(n.OwnedViews()),
		ForwardViews:  len(built),
		Forwarded:     n.forwarded.Load(),
		NotModified:   rep.NotModified,
		ForwardErrors: n.forwardErrors.Load(),
		LoopRejected:  n.loopRejected.Load(),
		Ring:          n.ring.Stats(),
	}
}
