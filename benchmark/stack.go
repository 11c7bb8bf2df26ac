package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/automata"
	"repro/internal/cluster"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/serve"
	"repro/internal/xmas"
)

// server is a loopback HTTP server whose handler can be installed after
// the listener exists — the cluster configuration needs every node's URL
// before any node's handler can be built.
type server struct {
	url     string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := s.handler.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "benchmark: handler not installed yet", http.StatusServiceUnavailable)
	})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) install(h http.Handler) { s.handler.Store(&h) }

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// leaf serves the sources as a lower mediator would: GET /views/{s} is the
// current version's bytes, GET /views/{s}/dtd the schema. The bytes are
// static, so whatever a fetch costs is the mediator's cost.
type leaf struct {
	*server
	bodies  map[string][]string
	dtds    map[string]string
	version map[string]*atomic.Int32
	hits    atomic.Int64 // document GETs (not DTD GETs)
}

func startLeaf(fx *fixtures) (*leaf, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	l := &leaf{server: srv, bodies: map[string][]string{}, dtds: map[string]string{}, version: map[string]*atomic.Int32{}}
	for _, s := range fx.sources {
		l.bodies[s.name] = s.bodies
		l.dtds[s.name] = s.dtd.String() + "\n"
		l.version[s.name] = new(atomic.Int32)
	}
	l.install(http.HandlerFunc(l.serve))
	return l, nil
}

func (l *leaf) serve(w http.ResponseWriter, r *http.Request) {
	name, isDTD := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/views/"), "/dtd")
	bodies, ok := l.bodies[name]
	if !ok || r.Method != http.MethodGet {
		http.NotFound(w, r)
		return
	}
	if isDTD {
		_, _ = w.Write([]byte(l.dtds[name]))
		return
	}
	l.hits.Add(1)
	_, _ = w.Write([]byte(bodies[l.version[name].Load()]))
}

// node is one serving mediator: the product's own mediator, cluster brain
// and HTTP handler behind a loopback listener.
type node struct {
	name    string
	med     *mediator.Mediator
	cluster *cluster.Node // nil on a single-node stack
	handler *serve.Handler
	srv     *server
}

// stack is everything one run serves from.
type stack struct {
	fx    *fixtures
	leaf  *leaf
	nodes []*node
	// owners[view] lists the nodes that define the view.
	owners [][]int
	// sourceClient carries mediator→leaf and node→node traffic. Its idle
	// pool is sized for the widest fan-out (one connection per part plus
	// peers), a deployment setting: the default of 2 would re-dial on
	// every parallel part fetch.
	sourceClient *http.Client
	// defineViewNs is the time spent in DefineUnionView during set-up.
	defineViewNs int64
}

// sourceName is the name a source is registered under: HTTPSource names a
// source by its view URL, which is also what POST /invalidate must say.
func (st *stack) sourceName(s *source) string { return st.leaf.url + "/views/" + s.name }

// buildStack registers the sources, defines the views (running view DTD
// inference) and starts the nodes. extraNodes adds nodes that own nothing
// and forward everything; the traced run uses one to price the hop on
// workloads that have no cluster of their own.
func buildStack(fx *fixtures, lf *leaf, extraNodes int) (*stack, error) {
	w := fx.w
	st := &stack{fx: fx, leaf: lf}
	st.sourceClient = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
	}
	total := w.nodes + extraNodes
	urls := map[string]string{}
	for i := 0; i < total; i++ {
		srv, err := startServer()
		if err != nil {
			st.close()
			return nil, err
		}
		n := &node{name: fmt.Sprintf("node%d", i), srv: srv}
		st.nodes = append(st.nodes, n)
		urls[n.name] = srv.url
	}
	pinned := map[string][]string{}
	for vi, v := range fx.views {
		owners := []int{0}
		if w.owners != nil {
			owners = w.owners[vi]
		}
		st.owners = append(st.owners, owners)
		for _, o := range owners {
			pinned[v.name] = append(pinned[v.name], st.nodes[o].name)
		}
	}
	for _, n := range st.nodes {
		n.med = mediator.New(n.name)
		var opts []serve.Option
		if total > 1 {
			cn, err := cluster.NewNode(cluster.Config{Self: n.name, Nodes: urls, Pinned: pinned, Client: st.sourceClient})
			if err != nil {
				st.close()
				return nil, err
			}
			n.cluster = cn
			opts = append(opts, serve.WithCluster(cn))
		}
		n.handler = serve.New(n.med, opts...)
	}
	for vi, v := range fx.views {
		for _, o := range st.owners[vi] {
			n := st.nodes[o]
			var parts []mediator.ViewPart
			for _, s := range v.sources {
				src, err := mediator.NewHTTPSource(st.sourceClient, lf.url, s.name)
				if err != nil {
					st.close()
					return nil, err
				}
				if err := n.med.AddSource(src); err != nil {
					st.close()
					return nil, err
				}
				parts = append(parts, mediator.ViewPart{Source: src.Name(), Query: xmas.MustParse(partQuery(s.name))})
			}
			start := time.Now()
			_, err := n.med.DefineUnionView(v.name, parts)
			st.defineViewNs += int64(time.Since(start))
			if err != nil {
				st.close()
				return nil, err
			}
		}
	}
	for _, n := range st.nodes {
		n.srv.install(n.handler)
	}
	return st, nil
}

func (st *stack) close() {
	for _, n := range st.nodes {
		n.srv.close()
	}
	if st.sourceClient != nil {
		st.sourceClient.CloseIdleConnections()
	}
}

// purgeProcessCaches empties the process-wide automata and verdict caches
// so that every set-up in a run starts as cold as the first.
func purgeProcessCaches() {
	automata.PurgeCache()
	infer.PurgeSatisfiabilityCache()
}

// isOwner reports whether node n defines view vi.
func (st *stack) isOwner(vi, n int) bool {
	for _, o := range st.owners[vi] {
		if o == n {
			return true
		}
	}
	return false
}

// viewOf returns the index of the view a source belongs to.
func (st *stack) viewOf(source int) int { return source / st.fx.w.sourcesPerView }

var background = context.Background()
