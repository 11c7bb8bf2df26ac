// Command mixinfer runs view DTD inference: given a source DTD and a
// pick-element XMAS view definition, it prints the inferred specialized
// view DTD, the merged plain view DTD, the query classification, and any
// non-tightness signals — the output the MIX mediator's View DTD Inference
// module hands to the DTD-based query interface and to stacked mediators.
//
// Usage:
//
//	mixinfer -dtd source.dtd -query view.xmas [-naive] [-plain-only|-sdtd-only]
//
// Exit status 2 flags an unsatisfiable (always-empty) view.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	mix "repro"
	"repro/internal/automata"
	"repro/internal/budgetflag"
	"repro/internal/obs"
)

func main() {
	dtdPath := flag.String("dtd", "", "path to the source DTD (<!DOCTYPE ...>)")
	queryPath := flag.String("query", "", "path to the XMAS view definition")
	naive := flag.Bool("naive", false, "also print the naive (Example 3.1) baseline DTD")
	plainOnly := flag.Bool("plain-only", false, "print only the merged plain view DTD")
	sdtdOnly := flag.Bool("sdtd-only", false, "print only the specialized view DTD")
	stats := flag.Bool("stats", false, "print compiled-automata cache counters to stderr on exit")
	traceRun := flag.Bool("trace", false, "dump the inference span tree (with budget counters) to stderr")
	limitsOf := budgetflag.Register(flag.CommandLine)
	flag.Parse()
	if *dtdPath == "" || *queryPath == "" {
		fmt.Fprintln(os.Stderr, "mixinfer: -dtd and -query are required")
		flag.Usage()
		os.Exit(1)
	}
	src, err := readDTD(*dtdPath)
	if err != nil {
		fatal(err)
	}
	qText, err := os.ReadFile(*queryPath)
	if err != nil {
		fatal(err)
	}
	q, err := mix.ParseQuery(string(qText))
	if err != nil {
		fatal(err)
	}
	ctx := mix.BudgetContext(context.Background(), limitsOf().Budget())
	var tracer *obs.Tracer
	var root *obs.Span
	if *traceRun {
		tracer = obs.NewTracer(1)
		ctx, root = tracer.StartRequest(ctx, new(obs.RequestContext), "mixinfer", "")
	}
	res, err := mix.InferContext(ctx, q, src)
	if root != nil {
		root.End()
		for _, ts := range tracer.Traces(1) {
			obs.WriteTrace(os.Stderr, ts)
		}
	}
	if err != nil {
		fatal(err)
	}
	if !*plainOnly {
		fmt.Println("-- specialized view DTD (tight; Section 3.3)")
		fmt.Println(res.SDTD)
	}
	if !*sdtdOnly {
		fmt.Println("-- plain view DTD (merged; Section 4.3)")
		fmt.Println(res.DTD)
	}
	fmt.Printf("-- classification: %s\n", res.Class)
	if res.Degraded {
		fmt.Printf("-- degraded: %s (sound but not tightest; loose elements: %s)\n",
			res.DegradedReason, strings.Join(res.DegradedNames, ", "))
	}
	for _, ev := range res.Merges {
		if ev.Distinct {
			fmt.Printf("-- warning: %s\n", ev)
		}
	}
	if *naive {
		nd, err := mix.NaiveInfer(q, src)
		if err != nil {
			fatal(err)
		}
		fmt.Println("-- naive baseline DTD (Example 3.1)")
		fmt.Println(nd)
	}
	if *stats {
		printCacheStats()
	}
	if res.Class == mix.Unsatisfiable {
		os.Exit(2)
	}
}

// printCacheStats dumps the compiled-automata cache counters to stderr, so
// scripts can observe how much of the inference run was answered from
// cache without parsing the primary output.
func printCacheStats() {
	b, _ := json.Marshal(automata.CacheStats())
	fmt.Fprintf(os.Stderr, "automata_cache: %s\n", b)
}

func readDTD(path string) (*mix.DTD, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return mix.ParseDTD(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mixinfer:", err)
	os.Exit(1)
}
