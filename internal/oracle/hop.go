package oracle

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/mediator"
	"repro/internal/pipehttp"
	"repro/internal/serve"
	"repro/internal/xmas"
)

// owner and forwarder are a hop subject's members (HopSubjects): the hosts
// of their base URLs.
const owner, forwarder = "alpha", "beta"

// network is a hop subject's transport: a request to http://{member}/… is
// served by the handler behind that name over pipes (internal/pipehttp),
// under a context of the member's own that ends with the request's, as over
// a socket: the caller's trace spans stay the caller's. (What a fetch notes
// needs no such care: every fetch makes its own mediator.FetchNote.) A
// restarted member is another handler behind the name. network notes the
// status of every GET of a view document, and relays every revocation stream
// frame by frame, handing each frame to intercept, when it is set, to deliver
// when it will: it may hold one back and deliver later ones first.
type network struct {
	mu        sync.Mutex
	members   map[string]http.Handler
	statuses  []int
	intercept func(f cluster.Frame, deliver func())
}

func (n *network) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancel(context.Background())
	stop := context.AfterFunc(req.Context(), cancel)
	n.mu.Lock()
	h := n.members[req.URL.Host]
	n.mu.Unlock()
	served := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer cancel()
		defer stop()
		h.ServeHTTP(w, r)
	})
	if req.URL.Path == cluster.RevokePath && req.Body != nil {
		frames, relayed := io.Pipe()
		go n.relay(bufio.NewReader(req.Body), relayed)
		req = req.WithContext(req.Context())
		req.Body = frames
	}
	resp, err := pipehttp.Serve(ctx, served, req)
	if err != nil {
		return nil, err
	}
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/views/") && strings.Count(req.URL.Path, "/") == 2 {
		n.mu.Lock()
		n.statuses = append(n.statuses, resp.StatusCode)
		n.mu.Unlock()
	}
	return resp, nil
}

// relay carries a revocation stream's frames from the owner to the holder,
// each through intercept when it is set.
func (n *network) relay(from *bufio.Reader, to *io.PipeWriter) {
	var mu sync.Mutex
	for {
		f, err := cluster.ReadFrame(from)
		if err != nil {
			to.CloseWithError(err)
			return
		}
		deliver := func() {
			mu.Lock()
			defer mu.Unlock()
			_, _ = to.Write(cluster.AppendFrame(nil, &f))
		}
		n.mu.Lock()
		intercept := n.intercept
		n.mu.Unlock()
		if intercept != nil {
			intercept(f, deliver)
		} else {
			deliver()
		}
	}
}

// hop is what a hop subject adds to a subject: its network, the forwarder's
// node and its metrics after the last read checked, the owner's restart, and
// want, the fetch the forwarder's next read of the view must make — "" for a
// lease hit or a 304, when nothing changed since its last read; "renewed"
// after an invalidation whose revocation renewed the lease, for a hit on the
// changed parts the revocation brought (or a 304, should the renewed lease
// have run out); else "226", "200" or "restart" (a whole document under the
// restarted owner's nonce). refused says the last invalidation's revocation
// carried a renewal the forwarder refused. former is the owner a restart
// replaced while the forwarder still holds its document — a lease renewed
// before the restart outlives it — until the forwarder asks the new one,
// whose answer is then a whole document whatever want says.
type hop struct {
	net     *network
	node    *cluster.Node
	seen    cluster.Metrics
	restart func() error
	// ownerNode is the owner's node, closed when a restart replaces it.
	ownerNode *cluster.Node
	want      string
	refused   bool
	former    http.Handler
}

// HopSubjects are the funded subjects across the cluster hop, pruning on and
// off. Owner alpha is NewSubject's mediator behind a handler in cluster mode;
// forwarder beta is a mediator with no source or view, behind a handler that
// forwards the fleet's views, pinned to alpha. They reach each other through
// their network (cluster.Config.Client). Check asks beta and invalidates
// alpha.
func (o *Oracle) HopSubjects() ([]*Subject, error) {
	var subjects []*Subject
	for _, pruning := range []bool{true, false} {
		net := &network{members: map[string]http.Handler{}}
		cfg := cluster.Config{Self: forwarder, Pinned: map[string][]string{}, Client: &http.Client{Transport: net},
			Nodes: map[string]string{owner: "http://" + owner, forwarder: "http://" + forwarder}}
		for _, v := range o.fleet.Views {
			cfg.Pinned[v.Name] = []string{owner}
		}
		node, err := cluster.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		s := &Subject{Kind: KindTagged, Pruning: pruning, Mediator: mediator.New(forwarder), tags: map[string]string{}, hop: &hop{net: net, node: node, want: "200"}}
		s.Handler = serve.New(s.Mediator, serve.WithTracer(nil), serve.WithCluster(node))
		net.members[forwarder] = s.Handler
		// A restart is a new mediator, so another nonce in the owner's tags,
		// and a new node, which tells every member of every revocation for a
		// term.
		s.hop.restart = func() error {
			if s.hop.former == nil && s.owner != nil {
				s.hop.former = s.owner
			}
			alpha, err := o.NewSubject(pruning, false)
			if err != nil {
				return err
			}
			cfg.Self = owner
			node, err := cluster.NewNode(cfg)
			if err != nil {
				return err
			}
			if s.hop.ownerNode != nil {
				s.hop.ownerNode.Close() // its streams die with it
			}
			s.hop.ownerNode = node
			s.owner, s.sources = serve.New(alpha.Mediator, serve.WithTracer(nil), serve.WithCluster(node)), alpha.sources
			net.mu.Lock()
			net.members[owner] = s.owner
			net.mu.Unlock()
			return nil
		}
		if err := s.hop.restart(); err != nil {
			return nil, err
		}
		subjects = append(subjects, s)
	}
	return subjects, nil
}

// check asserts what a forwarded read adds to do's checks: the hop path;
// the owner's ETag (or the former owner's, while the forwarder holds its
// document); exactly one fetch, the one the view's history calls for; and,
// for a query, how the forwarder found its plan and its answer.
func (h *hop) check(st *Step, owner http.Handler, tally Tally) error {
	if via := st.Header.Get(mediator.ForwardHeader); via != forwarder {
		return fmt.Errorf("%s is %q", mediator.ForwardHeader, via)
	}
	owns := func(o http.Handler) bool {
		return o != nil && send(o, http.MethodGet, "/views/"+st.View, "", st.Tag).Code == http.StatusNotModified
	}
	if st.Tag != "" && !owns(owner) && !owns(h.former) {
		return fmt.Errorf("the ETag %s is not the owner's: a conditional GET of the owner with it is not a 304", st.Tag)
	}
	h.net.mu.Lock()
	statuses := h.net.statuses
	h.net.statuses = nil
	h.net.mu.Unlock()
	before, after := h.seen, h.node.Metrics()
	h.seen = after
	fetch := fmt.Sprint(statuses, after.LeaseHits-before.LeaseHits, after.NotModified-before.NotModified, after.Deltas-before.Deltas)
	got := map[string]string{"[] 1 0 0": "lease", "[304] 0 1 0": "304", "[226] 0 0 1": "226",
		"[200] 0 0 0": "200"}[fetch]
	switch {
	case got == "200" && h.former != nil:
		got, h.former = "restart", nil
	case h.want == "" && (got == "lease" || got == "304"), got != "" && got == h.want:
	case h.want == "renewed" && got == "lease":
		got = h.want
	case h.want == "renewed" && got == "304":
	default:
		return fmt.Errorf("the owner's answers, lease hits, 304s and 226s spliced are %s: not the fetch %q calls for", fetch, h.want)
	}
	tally["hop="+got]++
	if h.refused && got == "226" {
		tally["renewals refused"]++
	}
	h.want, h.refused = "", false
	if st.Query == "" {
		return nil
	}
	hits, misses := st.After.PlanTextHits-st.Before.PlanTextHits, st.After.PlanMisses-st.Before.PlanMisses
	if want := map[string][2]int64{PlanMiss: {0, 1}, PlanKey: {0, 0}, PlanText: {1, 0}}[st.Plan]; [2]int64{hits, misses} != want {
		return fmt.Errorf("plan found by its text +%d, missed +%d; want %v", hits, misses, want)
	}
	// A plan answered run by run is walked on the first read over a document
	// and found on every later one; any other plan is walked on every read.
	walk := st.Read == ReadFirst || !byRuns(st.Query)
	if evaluated, reused := after.AnswersEvaluated-before.AnswersEvaluated, after.AnswersReused-before.AnswersReused; evaluated+reused != 1 || (evaluated == 1) != walk {
		return fmt.Errorf("answers walked +%d, found +%d; want the document walked: %v", evaluated, reused, walk)
	}
	return nil
}

// byRuns reports whether text's picks are a root child's — one condition
// under the root, neither recursive nor the pick: a forwarder answers its
// plan run by run, from the memos of the document it holds.
func byRuns(text string) bool {
	q, err := xmas.Parse(text)
	return err == nil && !q.Root.Recursive && len(q.Root.Children) == 1 && q.Root.Var != q.PickVar
}
