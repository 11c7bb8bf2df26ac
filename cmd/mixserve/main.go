// Command mixserve runs a MIX mediator as an HTTP service: sources are
// XML files carrying their DTDs as DOCTYPE internal subsets, views are
// XMAS files, and every view gets a URL — exactly the deployment the paper
// sketches ("a mediated view is assigned a URL thru which it will be
// accessed by queries").
//
// Usage:
//
//	mixserve -addr :8080 \
//	   -source cs=dept.xml -source bio=lab.xml \
//	   -view cs:withJournals.xmas -view bio:prolific.xmas
//
// Endpoints: see internal/serve; serving counters are at /metrics (JSON
// by default, Prometheus text with ?format=prometheus), recent request
// traces at /debug/trace, and process expvars at /debug/vars. The view
// DTDs are inferred at startup; registration fails fast on invalid
// sources or non-inferable views.
//
// The server is hardened for production use: read-header/read/write/idle
// timeouts bound slow clients, and SIGINT/SIGTERM trigger a graceful
// drain before exit. Observability knobs: -log-level and -log-format
// control the structured (slog) access/lifecycle logs, -trace-buffer
// sizes the /debug/trace ring, and -pprof opt-in mounts the
// net/http/pprof profiling endpoints under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	mix "repro"
	"repro/internal/budgetflag"
	"repro/internal/cluster"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/serve"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

// hedgeDelayName renders the hedge-delay flag for the startup log.
func hedgeDelayName(d time.Duration) string {
	switch {
	case d < 0:
		return "off"
	case d == 0:
		return "p95"
	}
	return d.String()
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	name := flag.String("name", "mix", "mediator name")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain deadline on SIGINT/SIGTERM")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	traceBuffer := flag.Int("trace-buffer", serve.DefaultTraceCapacity, "number of recent request traces kept for /debug/trace")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
	noPrune := flag.Bool("no-prune", false, "disable query-time per-part satisfiability pruning (sources are always fetched)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "replica hedge delay (0 derives it from the fetch-latency p95, negative disables hedging)")
	retryBudgetCap := flag.Float64("retry-budget", 10, "retry-budget token capacity per replicated source (hedges, failovers and retries share it)")
	retryRefill := flag.Float64("retry-refill", 1, "retry-budget refill rate, tokens per second")
	noStaleServe := flag.Bool("no-stale-serve", false, "disable last-known-good stale serving when every replica of a source is down")
	ejectCooldown := flag.Duration("eject-cooldown", 5*time.Second, "how long an ejected replica is skipped before a recovery probe")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "active replica health-check interval (0 disables active checks)")
	clusterSelf := flag.String("cluster-self", "", "this node's name in the cluster ring (enables cluster mode)")
	virtualNodes := flag.Int("virtual-nodes", cluster.DefaultVirtualNodes, "virtual nodes per member on the consistent-hash ring")
	var sources, views, clusterPeers, replicate repeated
	flag.Var(&sources, "source", "source as name=file.xml or name=a.xml,b.xml,... (repeatable); several comma-separated files form a replica set (the files' DTDs must be equivalent)")
	flag.Var(&views, "view", "view as source:file.xmas (repeatable); in cluster mode, every node is given the full view set and defines only the views it owns")
	flag.Var(&clusterPeers, "cluster-peers", "cluster members as name=http://host:port (repeatable or comma-separated); must include -cluster-self and be identical on every node")
	flag.Var(&replicate, "replicate", "replication factor for a hot view as view=N (repeatable); the ring yields N owners and non-owners fail over between them")
	limitsOf := budgetflag.Register(flag.CommandLine)
	flag.Parse()

	level := obs.ParseLevel(*logLevel)
	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = obs.NewLogger(os.Stderr, level)
	case "text":
		logger = obs.NewTextLogger(os.Stderr, level)
	default:
		fmt.Fprintf(os.Stderr, "mixserve: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	if len(sources) == 0 {
		fmt.Fprintln(os.Stderr, "mixserve: at least one -source is required")
		flag.Usage()
		os.Exit(1)
	}

	m := mix.NewMediator(*name)
	if *noPrune {
		m.SetPruning(false)
		log.Printf("query-time satisfiability pruning disabled")
	}
	if limits := limitsOf(); !limits.Unlimited() {
		// Applies to every subsequent view definition and to POST /infer:
		// inference that exhausts the budget degrades to a sound-but-looser
		// view DTD instead of stalling startup or a request.
		m.SetInferenceBudget(limits)
		log.Printf("inference budget: deadline=%s states=%d classes=%d refine=%d",
			limits.Deadline, limits.MaxStates, limits.MaxClasses, limits.MaxRefineSteps)
	}
	var replicaSets []*mix.ReplicaSet
	for _, s := range sources {
		nm, spec, ok := strings.Cut(s, "=")
		if !ok {
			log.Fatalf("mixserve: -source %q must be name=file.xml[,file2.xml,...]", s)
		}
		files := strings.Split(spec, ",")
		replicas := make([]mix.Wrapper, 0, len(files))
		for i, file := range files {
			text, err := os.ReadFile(file)
			if err != nil {
				log.Fatal(err)
			}
			doc, d, err := mix.ParseDocument(string(text))
			if err != nil {
				log.Fatalf("mixserve: %s: %v", file, err)
			}
			if d == nil {
				log.Fatalf("mixserve: %s has no DOCTYPE internal subset; the mediator needs the source DTD", file)
			}
			replicaName := nm
			if len(files) > 1 {
				replicaName = fmt.Sprintf("%s/replica-%d", nm, i)
			}
			src, err := mix.NewStaticSource(replicaName, doc, d)
			if err != nil {
				log.Fatal(err)
			}
			replicas = append(replicas, src)
			log.Printf("source %s: %s (%d elements)", replicaName, file, doc.Root.Size())
		}
		var src mix.Wrapper = replicas[0]
		if len(replicas) > 1 {
			rs, err := mix.NewReplicaSet(nm, replicas, mix.ReplicaSetOptions{
				Health:            mix.HealthOptions{EjectCooldown: *ejectCooldown},
				HedgeDelay:        *hedgeDelay,
				Budget:            mix.NewRetryBudget(mix.RetryBudgetOptions{Capacity: *retryBudgetCap, RefillPerSecond: *retryRefill}),
				DisableStaleServe: *noStaleServe,
			})
			if err != nil {
				log.Fatal(err)
			}
			replicaSets = append(replicaSets, rs)
			src = rs
			log.Printf("source %s: replica set of %d (hedge-delay=%s, budget=%.0f+%.1f/s, stale-serve=%v)",
				nm, len(replicas), hedgeDelayName(*hedgeDelay), *retryBudgetCap, *retryRefill, !*noStaleServe)
		}
		if err := m.AddSource(src); err != nil {
			log.Fatal(err)
		}
	}
	// Parse every view definition before defining any: in cluster mode the
	// full view set (names and replication factors) seeds the ring, and
	// only then does this node know which views it owns and must define.
	type viewDef struct {
		srcName string
		q       *mix.Query
	}
	var defs []viewDef
	for _, v := range views {
		srcName, file, ok := strings.Cut(v, ":")
		if !ok {
			log.Fatalf("mixserve: -view %q must be source:file.xmas", v)
		}
		text, err := os.ReadFile(file)
		if err != nil {
			log.Fatal(err)
		}
		q, err := mix.ParseQuery(string(text))
		if err != nil {
			log.Fatalf("mixserve: %s: %v", file, err)
		}
		defs = append(defs, viewDef{srcName: srcName, q: q})
	}

	var clusterNode *cluster.Node
	if *clusterSelf != "" {
		cfg := cluster.Config{
			Self:         *clusterSelf,
			Nodes:        map[string]string{},
			VirtualNodes: *virtualNodes,
			Views:        map[string]int{},
			Budget:       mix.NewRetryBudget(mix.RetryBudgetOptions{Capacity: *retryBudgetCap, RefillPerSecond: *retryRefill}),
		}
		for _, p := range clusterPeers {
			for _, pair := range strings.Split(p, ",") {
				nm, url, ok := strings.Cut(pair, "=")
				if !ok {
					log.Fatalf("mixserve: -cluster-peers entry %q must be name=http://host:port", pair)
				}
				cfg.Nodes[nm] = url
			}
		}
		for _, d := range defs {
			cfg.Views[d.q.Name] = 1
		}
		for _, r := range replicate {
			nm, nStr, ok := strings.Cut(r, "=")
			if !ok {
				log.Fatalf("mixserve: -replicate %q must be view=N", r)
			}
			n, err := strconv.Atoi(nStr)
			if err != nil || n < 1 {
				log.Fatalf("mixserve: -replicate %q: factor must be a positive integer", r)
			}
			if _, known := cfg.Views[nm]; !known {
				log.Fatalf("mixserve: -replicate names unknown view %q (no matching -view)", nm)
			}
			cfg.Views[nm] = n
		}
		var err error
		clusterNode, err = cluster.NewNode(cfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("cluster: node %s of %d (vnodes=%d), owns %s",
			*clusterSelf, len(cfg.Nodes), clusterNode.Ring().VirtualNodes(),
			strings.Join(clusterNode.OwnedViews(), ","))
	} else if len(clusterPeers) > 0 || len(replicate) > 0 {
		log.Fatalf("mixserve: -cluster-peers/-replicate require -cluster-self")
	}

	for _, d := range defs {
		if clusterNode != nil && !clusterNode.Owns(d.q.Name) {
			log.Printf("view %s: owned by %s, served here by forwarding",
				d.q.Name, strings.Join(clusterNode.Owners(d.q.Name), ","))
			continue
		}
		view, err := m.DefineView(d.srcName, d.q)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("view %s over %s: class %s, non-tight merge: %v",
			view.Name, d.srcName, view.Class, view.NonTight)
		if view.Degraded {
			log.Printf("view %s: DEGRADED (sound but not tightest): %s",
				view.Name, view.DegradedReason)
		}
	}

	var med *mediator.Mediator = m
	// The serving counters double as process expvars (GET /debug/vars),
	// next to the JSON snapshot at GET /metrics.
	expvar.Publish("mediator", expvar.Func(func() any { return med.Stats() }))
	tracer := obs.NewTracer(*traceBuffer)
	mux := http.NewServeMux()
	serveOpts := []serve.Option{serve.WithTracer(tracer), serve.WithLogger(logger)}
	if clusterNode != nil {
		serveOpts = append(serveOpts, serve.WithCluster(clusterNode))
	}
	mux.Handle("/", serve.New(med, serveOpts...))
	mux.Handle("GET /debug/vars", expvar.Handler())
	if *pprofOn {
		// Opt-in: pprof exposes internals (heap contents, goroutine dumps)
		// that an internet-facing mediator should not serve by default.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	if clusterNode != nil {
		// A revocation stream lasts as long as its owner does: a draining
		// server ends the ones it serves, and closes the ones it holds.
		srv.RegisterOnShutdown(clusterNode.Close)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *healthInterval > 0 {
		// One active health-check loop per replica set: ejected replicas are
		// probed on a cadence, so recovery (and /readyz flipping back to 200)
		// does not wait for query traffic.
		for _, rs := range replicaSets {
			go rs.RunHealthChecks(ctx, *healthInterval, *healthInterval)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("mediator %s listening on %s (%d views)", *name, *addr, len(m.Views()))

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("mixserve: signal received, draining (up to %s)", *shutdownTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("mixserve: shutdown: %v", err)
			os.Exit(1)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("mixserve: serve: %v", err)
		}
		log.Printf("mixserve: drained, bye")
	}
}
