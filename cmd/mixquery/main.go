// Command mixquery evaluates a pick-element XMAS query against an XML
// document and prints the view document. When the document carries a
// DOCTYPE internal subset (or -dtd supplies one), the query is first
// simplified against the DTD — the MIX query-processor path; -no-simplify
// disables that and evaluates the raw query, the TSIMMIS-style baseline.
//
// Usage:
//
//	mixquery -query view.xmas [-doc data.xml] [-dtd source.dtd]
//	         [-no-simplify] [-indent N] [-validate] [-sat]
//
// With no -doc the document is read from standard input. -validate also
// infers the view DTD and checks the result against it (soundness in
// action); it requires a DTD. -sat skips evaluation entirely: it decides
// the query's satisfiability against the -dtd DTD, prints the verdict and
// the DTD's tractable class, and exits 0 (satisfiable), 2 (unsatisfiable)
// or 3 (unknown).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	mix "repro"
	"repro/internal/obs"
)

func main() {
	queryPath := flag.String("query", "", "path to the XMAS query")
	docPath := flag.String("doc", "", "path to the XML document (default: stdin)")
	dtdPath := flag.String("dtd", "", "path to a DTD overriding the document's DOCTYPE")
	noSimplify := flag.Bool("no-simplify", false, "skip DTD-based query simplification")
	satOnly := flag.Bool("sat", false, "only decide satisfiability against the DTD: print the verdict and DTD class, exit 0=satisfiable 2=unsatisfiable 3=unknown")
	indent := flag.Int("indent", 2, "output indentation (negative = compact)")
	validate := flag.Bool("validate", false, "infer the view DTD and validate the result against it")
	explain := flag.Bool("explain", false, "print the DTD-aware explain plan to stderr before evaluating")
	traceRun := flag.Bool("trace", false, "dump the run's span tree to stderr")
	flag.Parse()
	if *queryPath == "" {
		fmt.Fprintln(os.Stderr, "mixquery: -query is required")
		flag.Usage()
		os.Exit(1)
	}
	qText, err := os.ReadFile(*queryPath)
	if err != nil {
		fatal(err)
	}
	q, err := mix.ParseQuery(string(qText))
	if err != nil {
		fatal(err)
	}
	if *satOnly {
		// Satisfiability needs no document: decide against the DTD alone
		// and encode the three-valued verdict in the exit status.
		if *dtdPath == "" {
			fatal(fmt.Errorf("-sat requires -dtd"))
		}
		b, err := os.ReadFile(*dtdPath)
		if err != nil {
			fatal(err)
		}
		d, err := mix.ParseDTD(string(b))
		if err != nil {
			fatal(err)
		}
		verdict := mix.Satisfiability(context.Background(), q, d)
		fmt.Printf("verdict: %s\ndtd class: %s\n", verdict, mix.ClassifyDTD(d))
		switch verdict {
		case mix.VerdictUnsatisfiable:
			os.Exit(2)
		case mix.VerdictUnknown:
			os.Exit(3)
		}
		return
	}
	var docText []byte
	if *docPath == "" {
		docText, err = io.ReadAll(os.Stdin)
	} else {
		docText, err = os.ReadFile(*docPath)
	}
	if err != nil {
		fatal(err)
	}
	doc, srcDTD, err := mix.ParseDocument(string(docText))
	if err != nil {
		fatal(err)
	}
	if *dtdPath != "" {
		b, err := os.ReadFile(*dtdPath)
		if err != nil {
			fatal(err)
		}
		srcDTD, err = mix.ParseDTD(string(b))
		if err != nil {
			fatal(err)
		}
	}
	if srcDTD != nil {
		if err := srcDTD.Validate(doc); err != nil {
			fatal(fmt.Errorf("input document is not valid: %v", err))
		}
	}

	if *explain {
		if srcDTD == nil {
			fatal(fmt.Errorf("-explain requires a DTD (DOCTYPE subset or -dtd)"))
		}
		plan, err := mix.ExplainQuery(q, srcDTD)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, plan)
	}

	ctx := context.Background()
	var tracer *obs.Tracer
	var root *obs.Span
	if *traceRun {
		tracer = obs.NewTracer(1)
		ctx, root = tracer.StartRequest(ctx, new(obs.RequestContext), "mixquery", "")
	}
	defer func() {
		if root == nil {
			return
		}
		root.End()
		for _, ts := range tracer.Traces(1) {
			obs.WriteTrace(os.Stderr, ts)
		}
	}()

	run := q
	if srcDTD != nil && !*noSimplify {
		_, sspan := obs.StartSpan(ctx, "simplify")
		sq, rep, err := mix.SimplifyQuery(q, srcDTD)
		sspan.SetAttr(obs.Int("pruned", int64(rep.PrunedConditions)), obs.Int("dropped", int64(rep.DroppedNames)))
		sspan.End()
		if err != nil {
			fatal(err)
		}
		if rep.Class == mix.Unsatisfiable {
			fmt.Fprintln(os.Stderr, "mixquery: query is unsatisfiable under the DTD; result is empty")
			fmt.Println(mix.MarshalDocument(mix.EmptyResult(q), nil, *indent))
			return
		}
		if rep.PrunedConditions > 0 || rep.DroppedNames > 0 {
			fmt.Fprintf(os.Stderr, "mixquery: simplifier pruned %d condition(s), dropped %d name(s)\n",
				rep.PrunedConditions, rep.DroppedNames)
		}
		run = sq
	}
	_, espan := obs.StartSpan(ctx, "eval")
	view, err := mix.Eval(run, doc)
	espan.End()
	if err != nil {
		fatal(err)
	}
	if *validate {
		if srcDTD == nil {
			fatal(fmt.Errorf("-validate requires a DTD (DOCTYPE subset or -dtd)"))
		}
		res, err := mix.InferContext(ctx, q, srcDTD)
		if err != nil {
			fatal(err)
		}
		if err := res.DTD.Validate(view); err != nil {
			fatal(fmt.Errorf("SOUNDNESS VIOLATION (this is a bug): %v", err))
		}
		if err := res.SDTD.Satisfies(view); err != nil {
			fatal(fmt.Errorf("SOUNDNESS VIOLATION against s-DTD (this is a bug): %v", err))
		}
		fmt.Fprintln(os.Stderr, "mixquery: result satisfies the inferred view DTD and s-DTD")
	}
	fmt.Print(mix.MarshalDocument(view, nil, *indent))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mixquery:", err)
	os.Exit(1)
}
