package load

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/mediator"
	"repro/internal/serve"
	"repro/internal/xmlmodel"
)

// ClusterOptions configures a cluster smoke campaign (RunCluster): an
// in-process fleet of mediator nodes sharding synthesized views over a
// consistent-hash ring, checked against a single-node mediator serving
// the identical sources and views. The campaign asserts the distributed
// tier's contract: every response from every node is bit-identical to
// the single node's; sustained mixed traffic across the fleet sees zero
// errors, and its forwarders revalidate the owners' unchanged documents
// (304) instead of downloading them again; a source that changes under an
// owner-side invalidation shows its new version on every forwarder's very
// next read; and killing one node leaves views it does not own serving with
// zero errors, fails replicated views over to the surviving owner, and
// turns its unreplicated views into fast, clearly-attributed 502s — the
// error taxonomy, not hangs.
type ClusterOptions struct {
	// Seed fixes the synthesized views and corpora.
	Seed int64
	// Nodes is the fleet size (default 3).
	Nodes int
	// Views is the number of sharded views (default 4); each is a
	// single-part union view over its own synthesized source.
	Views int
	// Replicated is how many of the views are declared replicated with
	// factor 2 (default 1); the ring yields two owners and the forwarding
	// path wraps them in a ReplicaSet.
	Replicated int
	// VirtualNodes is the ring's per-node virtual-node count (default
	// cluster.DefaultVirtualNodes).
	VirtualNodes int
	// RPS is the open-loop request rate of the load phase (default 100).
	RPS float64
	// Phase is the duration of each load phase (default 2s).
	Phase time.Duration
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Views <= 0 {
		o.Views = 4
	}
	if o.Replicated < 0 {
		o.Replicated = 0
	} else if o.Replicated == 0 {
		o.Replicated = 1
	}
	if o.Replicated > o.Views {
		o.Replicated = o.Views
	}
	if o.RPS <= 0 {
		o.RPS = 100
	}
	if o.Phase <= 0 {
		o.Phase = 2 * time.Second
	}
	return o
}

// ClusterPhase is one load phase's client-observed outcome.
type ClusterPhase struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Forwarded counts responses carrying an X-Mix-Forwarded hop path —
	// answers that crossed at least one node boundary.
	Forwarded int64 `json:"forwarded"`
	// NotModified counts, over the phase, the owner fetches of the nodes'
	// forward transports that an owner answered 304: forwarded reads that
	// found the owner's document as the forwarder last saw it.
	NotModified int64 `json:"not_modified"`
	// shed counts the phase's requests the open loop dropped because every
	// in-flight slot was taken; the summary shows it, the archive's keys
	// stay as they are.
	shed int
}

// ClusterReport is one campaign's archived result (CLUSTER_report.json).
type ClusterReport struct {
	Seed         int64   `json:"seed"`
	Nodes        int     `json:"nodes"`
	Views        int     `json:"views"`
	Replicated   int     `json:"replicated"`
	VirtualNodes int     `json:"virtual_nodes"`
	TargetRPS    float64 `json:"target_rps"`
	PhaseSeconds float64 `json:"phase_seconds"`

	// Assignments maps each view to its owner nodes, for the record.
	Assignments map[string][]string `json:"assignments"`
	// Victim is the node killed in the failure phase.
	Victim string `json:"victim"`

	// EquivalenceChecks counts (node × view × endpoint) comparisons
	// against the single-node reference; Mismatches counts the failures
	// and FirstMismatch describes the first one.
	EquivalenceChecks int64  `json:"equivalence_checks"`
	Mismatches        int64  `json:"mismatches"`
	FirstMismatch     string `json:"first_mismatch,omitempty"`

	// Load is the whole-fleet phase; Survivors the post-kill phase over
	// the views the surviving nodes can still answer.
	Load      ClusterPhase `json:"load"`
	Survivors ClusterPhase `json:"survivors"`

	// RevalidationReads / StaleReads cover the moment between the two: every
	// source flips to its second version and is invalidated on every node,
	// then every non-owner is read, document and query. A read that is not
	// byte-for-byte the reference's answer over the new version is stale.
	RevalidationReads int64 `json:"revalidation_reads"`
	StaleReads        int64 `json:"stale_reads"`

	// OrphanProbes / OrphanBadStatus cover the victim's unreplicated
	// views after the kill: every probe must complete with 502 (a clear
	// forwarding error), never hang or 200.
	OrphanProbes    int64 `json:"orphan_probes"`
	OrphanBadStatus int64 `json:"orphan_bad_status"`

	Checks []SLOCheck `json:"checks"`
	Pass   bool       `json:"pass"`
}

// WriteFile archives the report (CLUSTER_report.json).
func (r *ClusterReport) WriteFile(path string) error { return writeFile(path, r) }

// Summary renders a short human-readable digest of the campaign.
func (r *ClusterReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  fleet: %d nodes, %d views (%d replicated), victim %s\n",
		r.Nodes, r.Views, r.Replicated, r.Victim)
	fmt.Fprintf(&b, "  equivalence: %d checks, %d mismatches\n", r.EquivalenceChecks, r.Mismatches)
	if r.FirstMismatch != "" {
		fmt.Fprintf(&b, "    first: %s\n", r.FirstMismatch)
	}
	fmt.Fprintf(&b, "  load:      n=%-5d err=%-3d shed=%-3d forwarded=%d not-modified=%d\n", r.Load.Requests, r.Load.Errors, r.Load.shed, r.Load.Forwarded, r.Load.NotModified)
	fmt.Fprintf(&b, "  revalidation: %d reads after a change of every source, %d stale\n", r.RevalidationReads, r.StaleReads)
	fmt.Fprintf(&b, "  survivors: n=%-5d err=%-3d shed=%-3d forwarded=%d not-modified=%d\n", r.Survivors.Requests, r.Survivors.Errors, r.Survivors.shed, r.Survivors.Forwarded, r.Survivors.NotModified)
	fmt.Fprintf(&b, "  orphans:   %d probes, %d with wrong status\n", r.OrphanProbes, r.OrphanBadStatus)
	return b.String() + trailer("cluster", r.Checks, r.Pass)
}

// clusterNodeFix is one fleet member: its cluster brain and the server in
// front of its mediator (owned views only).
type clusterNodeFix struct {
	name string
	node *cluster.Node
	srv  *httptest.Server
}

// clusterFixture owns the fleet, the single-node reference, and the
// synthesized views.
type clusterFixture struct {
	servers
	views   []string  // view names, index-aligned with sources
	sources []*Source // one synthesized source per view
	// seconds[i] is the second version of sources[i]: its entries (the
	// root's leading children; an idref-shaped root has its auctions after
	// them) last first — as valid under the DTD as the first.
	seconds []*xmlmodel.Document
	queries map[string][]string
	nodes   []*clusterNodeFix
	single  *httptest.Server // the reference mediator
	// second makes every mediator's copy of every source serve its second
	// version.
	second atomic.Bool
}

// twoVersions is a source with a second version behind a switch.
type twoVersions struct {
	mediator.Wrapper // the first version, and the name and schema of both
	alt              mediator.Wrapper
	second           *atomic.Bool
}

func (s twoVersions) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if s.second.Load() {
		return s.alt.Fetch(ctx)
	}
	return s.Wrapper.Fetch(ctx)
}

func newClusterFixture(o ClusterOptions) (_ *clusterFixture, err error) {
	f := &clusterFixture{queries: map[string][]string{}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	viewsCfg := map[string]int{} // view -> replication factor
	for i := 0; i < o.Views; i++ {
		view := fmt.Sprintf("shard%d", i)
		src, err := fleetSource(fmt.Sprintf("src%d", i), o.Seed, i)
		if err != nil {
			return nil, err
		}
		f.sources = append(f.sources, src)
		kids := slices.Clone(src.Doc.Root.Children)
		entries := 0
		for entries < len(kids) && kids[entries].Name == "entry" {
			entries++
		}
		slices.Reverse(kids[:entries])
		f.seconds = append(f.seconds, &xmlmodel.Document{DocType: src.Doc.DocType,
			Root: &xmlmodel.Element{Name: src.Doc.Root.Name, Children: kids}})
		f.views = append(f.views, view)
		viewsCfg[view] = 1
		if i < o.Replicated {
			viewsCfg[view] = 2
		}
		// Two probes per view: the identity pick, and a qualified pick
		// naming a child that really occurs in this view's entries, so
		// both the plain and the condition-bearing engine paths are
		// compared bit-for-bit across the fleet.
		f.queries[view] = []string{
			fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry/> </%s>`, view, view),
		}
		if kids := modelNames(src.DTD.Types["entry"].Model); len(kids) > 0 {
			f.queries[view] = append(f.queries[view],
				fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry><%s/></entry> </%s>`, view, kids[0], view))
		}
	}

	// The single-node reference: every source, every view, no cluster.
	single := mediator.New("single")
	if err := f.defineAll(single, nil); err != nil {
		return nil, err
	}
	f.single = httptest.NewServer(serve.New(single))
	f.servers = append(f.servers, f.single)

	// Fleet: bind every node's listener first (the ring configuration needs
	// all the URLs), then give each node the identical configuration, a
	// mediator with its owned views only and forwarding for the rest — and
	// only then start serving.
	urls := map[string]string{}
	for i := 0; i < o.Nodes; i++ {
		n := &clusterNodeFix{name: fmt.Sprintf("node%d", i), srv: httptest.NewUnstartedServer(nil)}
		f.nodes = append(f.nodes, n)
		f.servers = append(f.servers, n.srv)
		urls[n.name] = "http://" + n.srv.Listener.Addr().String()
	}
	for _, n := range f.nodes {
		n.node, err = cluster.NewNode(cluster.Config{
			Self:         n.name,
			Nodes:        urls,
			VirtualNodes: o.VirtualNodes,
			Views:        viewsCfg,
			Budget:       mediator.NewRetryBudget(mediator.RetryBudgetOptions{Capacity: 50, RefillPerSecond: 25}),
		})
		if err != nil {
			return nil, err
		}
		med := mediator.New(n.name)
		if err := f.defineAll(med, n.node); err != nil {
			return nil, err
		}
		n.srv.Config.Handler = serve.New(med, serve.WithCluster(n.node))
		n.srv.Start()
	}
	return f, nil
}

// defineAll adds every source to m and defines each view — all of them
// when node is nil (the single-node reference), only the owned ones in
// cluster mode.
func (f *clusterFixture) defineAll(m *mediator.Mediator, node *cluster.Node) error {
	for i, src := range f.sources {
		alt, err := mediator.NewStaticSource(src.Name, f.seconds[i], src.DTD)
		if err != nil {
			return err
		}
		part, err := addStatic(m, src, func(w mediator.Wrapper) mediator.Wrapper {
			return twoVersions{Wrapper: w, alt: alt, second: &f.second}
		})
		if err != nil {
			return err
		}
		if node != nil && !node.Owns(f.views[i]) {
			continue
		}
		if _, err := m.DefineUnionView(f.views[i], []mediator.ViewPart{part}); err != nil {
			return err
		}
	}
	return nil
}

// probes enumerates every endpoint whose answer must not depend on the
// node asked: each view's document, DTDs, outline and queries, and the
// merged view listing.
func (f *clusterFixture) probes() []Op {
	var out []Op
	for _, view := range f.views {
		for _, suffix := range []string{"", "/dtd", "/sdtd", "/outline"} {
			out = append(out, Op{Method: http.MethodGet, Path: "/views/" + view + suffix})
		}
		for _, q := range f.queries[view] {
			out = append(out, Op{Method: http.MethodPost, Path: "/views/" + view + "/query", Body: q})
		}
	}
	return append(out, Op{Method: http.MethodGet, Path: "/views"})
}

// equivalence asks every node for every probe and counts the answers that
// are not byte-for-byte the single-node reference's. It also eagerly builds
// every forward, so the kill phase exercises failover on warm transports,
// as a fleet that has been serving traffic would.
func (f *clusterFixture) equivalence(ctx context.Context, rep *ClusterReport) {
	mismatch := func(p Op, where, format string, args ...any) {
		rep.Mismatches++
		if rep.FirstMismatch == "" {
			rep.FirstMismatch = fmt.Sprintf("%s %s on %s: ", p.Method, p.Path, where) + fmt.Sprintf(format, args...)
		}
	}
	for _, p := range f.probes() {
		ref, err := send(ctx, p.Method, f.single.URL+p.Path, p.Body)
		if err != nil {
			mismatch(p, "the single-node reference", "%v", err)
			continue
		}
		for _, n := range f.nodes {
			rep.EquivalenceChecks++
			got, err := send(ctx, p.Method, n.srv.URL+p.Path, p.Body)
			switch {
			case err != nil:
				mismatch(p, n.name, "%v", err)
			case got.status != ref.status:
				mismatch(p, n.name, "status %d, reference %d", got.status, ref.status)
			case got.body != ref.body:
				mismatch(p, n.name, "body diverges from reference (%d vs %d bytes): %s",
					len(got.body), len(ref.body), firstDiff(got.body, ref.body))
			}
		}
	}
}

// traffic is a phase of open-loop mixed traffic: GETs and queries spread
// round-robin over the given nodes and views, read off into out.
func (f *clusterFixture) traffic(name string, enter func(), nodes []*clusterNodeFix, views []string, out *ClusterPhase) phase {
	var requests, failed, forwarded atomic.Int64
	var notModifiedBefore int64
	p := phase{
		name: name,
		enter: func() {
			if enter != nil {
				enter()
			}
			notModifiedBefore = notModified(nodes)
		},
		fire: func(ctx context.Context, i int) {
			view := views[i/2%len(views)]
			method, path, body := http.MethodGet, "/views/"+view, ""
			if i%2 == 0 {
				method, path, body = http.MethodPost, path+"/query", f.queries[view][0]
			}
			resp, err := send(ctx, method, nodes[i%len(nodes)].srv.URL+path, body)
			requests.Add(1)
			if err != nil || resp.status != http.StatusOK {
				failed.Add(1)
			}
			if resp.header.Get(mediator.ForwardHeader) != "" {
				forwarded.Add(1)
			}
		},
		exit: func(_ context.Context, shed int) {
			*out = ClusterPhase{Requests: requests.Load(), Errors: failed.Load(), Forwarded: forwarded.Load(),
				NotModified: notModified(nodes) - notModifiedBefore, shed: shed}
		},
	}
	if len(nodes) == 0 || len(views) == 0 {
		p.fire = nil // nobody left to ask, or nothing left to ask for
	}
	return p
}

// notModified sums the nodes' counts of owner fetches answered 304.
func notModified(nodes []*clusterNodeFix) (n int64) {
	for _, node := range nodes {
		n += node.node.Metrics().NotModified
	}
	return n
}

// revalidation changes every source under the fleet's feet and reads every
// view through every node that does not own it, at once: each source flips
// to its second version and is invalidated on every node (and on the
// reference), then each forwarder is asked for the document and for a query
// answer. The forwarders hold the owners' previous documents and the tags
// they came under; an answer that is not the reference's over the new
// version — or a reference that did not change — is a stale read.
func (f *clusterFixture) revalidation(ctx context.Context, rep *ClusterReport) {
	before := map[string]string{}
	for _, view := range f.views {
		if ref, err := send(ctx, http.MethodGet, f.single.URL+"/views/"+view, ""); err == nil {
			before[view] = ref.body
		}
	}
	f.second.Store(true)
	for i := range f.sources {
		body := fmt.Sprintf(`{"source": %q}`, f.sources[i].Name)
		for _, srv := range f.servers { // the reference and every node
			if resp, err := send(ctx, http.MethodPost, srv.URL+"/invalidate", body); err != nil || resp.status != http.StatusOK {
				rep.StaleReads++ // an invalidation that did not land leaves every read of it stale
			}
		}
	}
	for _, view := range f.views {
		for _, p := range []Op{
			{Method: http.MethodGet, Path: "/views/" + view},
			{Method: http.MethodPost, Path: "/views/" + view + "/query", Body: f.queries[view][0]},
		} {
			ref, err := send(ctx, p.Method, f.single.URL+p.Path, p.Body)
			if err != nil || ref.status != http.StatusOK || p.Method == http.MethodGet && ref.body == before[view] {
				rep.StaleReads++
				continue
			}
			for _, n := range f.nodes {
				if n.node.Owns(view) {
					continue
				}
				rep.RevalidationReads++
				got, err := send(ctx, p.Method, n.srv.URL+p.Path, p.Body)
				if err != nil || got.status != http.StatusOK || got.body != ref.body || got.header.Get(mediator.ForwardHeader) == "" {
					rep.StaleReads++
				}
			}
		}
	}
}

// pickVictim chooses the node to kill: among the owners of view 0 (the
// replicated one, when any view is), the first that is also the only owner
// of another view — killing it makes one view fail over to its surviving
// owner, orphans another, and leaves the rest untouched, all three outcomes
// in one run. Failing that, view 0's primary.
func pickVictim(views []string, owners map[string][]string) string {
	for _, candidate := range owners[views[0]] {
		for _, v := range views[1:] {
			if slices.Equal(owners[v], []string{candidate}) {
				return candidate
			}
		}
	}
	return owners[views[0]][0]
}

// RunCluster executes the cluster smoke campaign and evaluates its
// checks. Deterministic in fleet and corpora (Seed); the load phases are
// bounds, not exact counts.
func RunCluster(ctx context.Context, opts ClusterOptions) (*ClusterReport, error) {
	o := opts.withDefaults()
	f, err := newClusterFixture(o)
	if err != nil {
		return nil, err
	}
	defer f.close()

	rep := &ClusterReport{
		Seed:         o.Seed,
		Nodes:        o.Nodes,
		Views:        o.Views,
		Replicated:   o.Replicated,
		VirtualNodes: f.nodes[0].node.Ring().VirtualNodes(),
		TargetRPS:    o.RPS,
		PhaseSeconds: o.Phase.Seconds(),
		Assignments:  map[string][]string{},
	}
	primaries := map[string]bool{}
	for _, v := range f.views {
		rep.Assignments[v] = f.nodes[0].node.Owners(v)
		primaries[rep.Assignments[v][0]] = true
	}
	rep.Victim = pickVictim(f.views, rep.Assignments)

	// Who and what is left once the victim is gone. Views with a live owner
	// must keep answering with zero errors; the victim's unreplicated views
	// are probed separately for the error taxonomy.
	var victim *clusterNodeFix
	var survivors []*clusterNodeFix
	for _, n := range f.nodes {
		if n.name == rep.Victim {
			victim = n
		} else {
			survivors = append(survivors, n)
		}
	}
	var served, orphaned []string
	for _, v := range f.views {
		if slices.Equal(rep.Assignments[v], []string{rep.Victim}) {
			orphaned = append(orphaned, v)
		} else {
			served = append(served, v)
		}
	}

	err = runPhases(ctx, o.RPS, o.Phase, []phase{
		{name: "equivalence", exit: func(ctx context.Context, _ int) { f.equivalence(ctx, rep) }},
		f.traffic("load", nil, f.nodes, f.views, &rep.Load),
		{name: "revalidation", exit: func(ctx context.Context, _ int) { f.revalidation(ctx, rep) }},
		f.traffic("survivors", func() {
			victim.srv.CloseClientConnections()
			victim.srv.Close()
		}, survivors, served, &rep.Survivors),
		// A fast, clearly-attributed 502 from every survivor — the
		// forwarding error taxonomy, not a hang and not a bogus 200.
		{name: "orphans", exit: func(ctx context.Context, _ int) {
			for _, v := range orphaned {
				for _, n := range survivors {
					rep.OrphanProbes++
					resp, err := send(ctx, http.MethodGet, n.srv.URL+"/views/"+v, "")
					if err != nil || resp.status != http.StatusBadGateway || !strings.Contains(resp.body, "cluster: forwarding view") {
						rep.OrphanBadStatus++
					}
				}
			}
		}},
	})
	if err != nil {
		return rep, err
	}

	v := newVerdict(&rep.Checks, &rep.Pass)
	v.atLeast("assignments.distinct_primaries", float64(min(2, o.Nodes, o.Views)), float64(len(primaries)))
	v.atMost("equivalence.mismatches", 0, float64(rep.Mismatches))
	v.atLeast("equivalence.checks", float64(o.Nodes*o.Views), float64(rep.EquivalenceChecks))
	v.atMost("load.errors", 0, float64(rep.Load.Errors))
	v.atLeast("load.forwarded", 1, float64(rep.Load.Forwarded))
	v.atLeast("load.not_modified", 1, float64(rep.Load.NotModified))
	v.atMost("revalidation.stale_reads", 0, float64(rep.StaleReads))
	v.atMost("survivors.errors", 0, float64(rep.Survivors.Errors))
	v.atMost("orphans.bad_status", 0, float64(rep.OrphanBadStatus))
	return rep, nil
}

// firstDiff locates the first divergent byte of two strings, with a
// little context — enough to diagnose a mismatch from the report alone.
func firstDiff(a, b string) string {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			lo := max(i-20, 0)
			return fmt.Sprintf("at byte %d: %q vs %q", i, a[lo:min(i+20, len(a))], b[lo:min(i+20, len(b))])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
