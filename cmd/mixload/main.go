// Command mixload is the sustained-load harness: it synthesizes an
// XMark-class fleet of sources (recursive mixed content, deep optional
// chains, wide disjunctions, IDREF cross-links), stands up an in-process
// mediator over them — or attaches to a remote mixserve via -target —
// and drives an open-loop mixed operation stream (plain and qualified
// queries, materializations, inferences, cache invalidations) at a
// target request rate from a deterministic seed. After the run it
// scrapes /metrics, asserts the latency/error/degradation SLOs, and
// writes the whole report as JSON to the -out path.
//
// Usage:
//
//	mixload -seed 1 -rps 100 -duration 10s -sources 6 -out load.json
//	mixload -target http://localhost:8080 -view published -rps 50 -duration 30s
//	mixload -faults 0.2 -breakers -slo-error-rate -1 -duration 5s
//	mixload -chaos -replicas 3 -chaos-phase 2s -out CHAOS_report.json
//
// With -chaos the harness instead runs the replica chaos campaign (see
// internal/load.RunChaos): each source becomes a replica set of leaf
// servers driven through baseline, flapping-replica, full-blackout and
// recovery phases, asserting zero errors under flapping, marked DTD-valid
// stale serving under blackout, a retry-budget-bounded upstream load
// amplification, and automatic recovery.
//
// Exit status: 0 when the run passed its SLOs, 1 on SLO failure, 2 on
// harness error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/load"
)

func main() {
	seed := flag.Int64("seed", 1, "seed fixing the fleet, corpora and operation stream")
	rps := flag.Float64("rps", 100, "open-loop target request rate")
	duration := flag.Duration("duration", 5*time.Second, "stream length")
	sources := flag.Int("sources", 6, "number of synthesized sources (in-process mode)")
	familiesFlag := flag.String("families", "", "comma-separated schema family rotation (default: all of "+familyNames()+")")
	depth := flag.Int("depth", 0, "schema depth parameter (optional chains); 0 = default")
	width := flag.Int("width", 0, "schema width parameter (disjunctions, markup names); 0 = default")
	docDepth := flag.Int("doc-depth", 0, "corpus document depth budget; 0 = default")
	docBias := flag.Float64("doc-length-bias", 0, "corpus length bias in (0,1]; lower = larger documents; 0 = default")
	mixFlag := flag.String("mix", "", "operation mix as kind=weight,... (kinds: query, qualified, materialize, infer, invalidate, invalidate-source)")
	target := flag.String("target", "", "drive a remote mixserve at this base URL instead of the in-process harness")
	view := flag.String("view", "", "view to drive (default: the in-process union view 'load')")
	maxInFlight := flag.Int("max-inflight", 0, "bound on concurrent in-flight requests; 0 = default")
	faults := flag.Float64("faults", 0, "fault-injection campaign: per-fetch failure probability (in-process only)")
	faultDelay := flag.Duration("fault-delay", 0, "max injected per-fetch delay for the fault campaign")
	breakers := flag.Bool("breakers", false, "wrap sources in circuit breakers (degraded serving instead of 500s)")
	noPrune := flag.Bool("no-prune", false, "disable query-time satisfiability pruning (comparison runs)")
	pruneCompare := flag.Bool("prune-compare", false, "after the run, verify the served answers are bit-identical to a naive mediator's (no -faults)")
	sloP95 := flag.Duration("slo-p95", 0, "per-op p95 latency ceiling; 0 = default (250ms), -1 = unchecked")
	sloP99 := flag.Duration("slo-p99", 0, "per-op p99 latency ceiling; 0 = default (1s), -1 = unchecked")
	sloErrRate := flag.Float64("slo-error-rate", 0, "error-rate ceiling; default 0 (strict), -1 = unchecked")
	sloShedRate := flag.Float64("slo-shed-rate", 0, "shed-rate ceiling; 0 = default (0.01), -1 = unchecked")
	out := flag.String("out", "", "write the report as JSON to this path (e.g. load.json)")
	quiet := flag.Bool("quiet", false, "suppress the human-readable summary")
	chaos := flag.Bool("chaos", false, "run the replica chaos campaign (baseline / flap / blackout / recovery) instead of the load stream")
	replicas := flag.Int("replicas", 3, "replicas per source for the chaos campaign")
	chaosPhase := flag.Duration("chaos-phase", 2*time.Second, "duration of each chaos campaign phase")
	clusterMode := flag.Bool("cluster", false, "run the cluster smoke campaign (3-node fleet, bit-equivalence with each view's owner, kill-one-node) instead of the load stream")
	clusterNodes := flag.Int("cluster-nodes", 3, "fleet size for the cluster campaign")
	clusterViews := flag.Int("cluster-views", 4, "sharded views for the cluster campaign")
	clusterReplicated := flag.Int("cluster-replicated", 1, "how many cluster views are replicated (factor 2)")
	clusterPhase := flag.Duration("cluster-phase", 2*time.Second, "duration of each cluster load phase")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Each mode runs its campaign; what follows the switch is shared.
	var (
		rep  report
		pass bool
		err  error
	)
	switch {
	case *clusterMode:
		var r *load.ClusterReport
		r, err = load.RunCluster(ctx, load.ClusterOptions{
			Seed:       *seed,
			Nodes:      *clusterNodes,
			Views:      *clusterViews,
			Replicated: *clusterReplicated,
			RPS:        *rps,
			Phase:      *clusterPhase,
		})
		rep, pass = r, err == nil && r.Pass
	case *chaos:
		var r *load.ChaosReport
		r, err = load.RunChaos(ctx, load.ChaosOptions{
			Seed:     *seed,
			Sources:  *sources,
			Replicas: *replicas,
			RPS:      *rps,
			Phase:    *chaosPhase,
		})
		rep, pass = r, err == nil && r.Pass
	default:
		opts := load.Options{
			Seed:          *seed,
			Sources:       *sources,
			Depth:         *depth,
			Width:         *width,
			DocMaxDepth:   *docDepth,
			DocLengthBias: *docBias,
			RPS:           *rps,
			Duration:      *duration,
			MaxInFlight:   *maxInFlight,
			Target:        *target,
			View:          *view,
			FaultRate:     *faults,
			FaultMaxDelay: *faultDelay,
			Breakers:      *breakers,
			NoPrune:       *noPrune,
			PruneCompare:  *pruneCompare,
			SLO: load.SLO{
				P95:          *sloP95,
				P99:          *sloP99,
				MaxErrorRate: *sloErrRate,
				MaxShedRate:  *sloShedRate,
				ExpectFaults: *faults > 0,
			},
		}
		if *familiesFlag != "" {
			for _, name := range strings.Split(*familiesFlag, ",") {
				f, err := load.ParseFamily(strings.TrimSpace(name))
				if err != nil {
					fatal(err)
				}
				opts.Families = append(opts.Families, f)
			}
		}
		if *mixFlag != "" {
			mix, err := load.ParseMix(*mixFlag)
			if err != nil {
				fatal(err)
			}
			opts.Mix = mix
		}
		h, herr := load.NewHarness(opts)
		if herr != nil {
			fatal(herr)
		}
		defer h.Close()
		var r *load.Report
		r, err = h.Run(ctx)
		rep, pass = r, err == nil && r.Pass
	}
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fatal(err)
		}
	}
	if !*quiet {
		fmt.Println(rep.Summary())
	}
	if !pass {
		os.Exit(1)
	}
}

// report is what every campaign hands back: something to archive and
// something to print.
type report interface {
	WriteFile(path string) error
	Summary() string
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mixload:", err)
	os.Exit(2)
}

func familyNames() string {
	names := make([]string, 0, len(load.Families()))
	for _, f := range load.Families() {
		names = append(names, string(f))
	}
	return strings.Join(names, ",")
}
