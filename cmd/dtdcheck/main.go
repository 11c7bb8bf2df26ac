// Command dtdcheck validates XML documents against DTDs and compares DTDs
// under the paper's tightness order (Definition 3.2).
//
// Validate a document (DTD from its DOCTYPE subset, or -dtd):
//
//	dtdcheck -doc data.xml [-dtd schema.dtd]
//
// Compare two DTDs:
//
//	dtdcheck -tighter a.dtd b.dtd     # is L(a) ⊆ L(b)?
//
// Exit status 1 reports invalidity / non-tightness, with an explanation on
// standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	mix "repro"
	"repro/internal/automata"
	"repro/internal/budgetflag"
	"repro/internal/obs"
)

func main() {
	docPath := flag.String("doc", "", "path to the XML document (default: stdin)")
	dtdPath := flag.String("dtd", "", "path to a DTD overriding the document's DOCTYPE")
	tighter := flag.Bool("tighter", false, "compare two DTD files given as arguments")
	outline := flag.Bool("outline", false, "print the DTD (from -dtd) as an annotated structure tree and exit")
	stats := flag.Bool("stats", false, "print compiled-automata cache counters to stderr on exit")
	traceRun := flag.Bool("trace", false, "with -tighter: dump a span tree of the comparison (budget counters) to stderr")
	limitsOf := budgetflag.Register(flag.CommandLine)
	flag.Parse()
	if *stats {
		exit = func(code int) { printCacheStats(); os.Exit(code) }
		defer printCacheStats()
	}

	if *outline {
		if *dtdPath == "" {
			fmt.Fprintln(os.Stderr, "dtdcheck: -outline requires -dtd")
			os.Exit(1)
		}
		d, err := readDTD(*dtdPath)
		if err != nil {
			fatal(err)
		}
		fmt.Print(mix.OutlineDTD(d))
		return
	}

	if *tighter {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dtdcheck: -tighter needs exactly two DTD files")
			os.Exit(1)
		}
		a, err := readDTD(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readDTD(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		// One budget (nil without -budget-* flags) covers the whole
		// comparison, both directions: tightness is a decision and cannot
		// soundly degrade, so exhaustion is reported as "undecided" with a
		// distinct exit status rather than a wrong answer.
		bud := limitsOf().Budget()
		if *traceRun {
			// The comparison runs through budget charge sites, not through
			// a context, so the root span observes the budget directly; an
			// unlimited run gets a zero-limits budget that only counts.
			if bud == nil {
				bud = mix.NewBudget(mix.BudgetLimits{})
			}
			tracer := obs.NewTracer(1)
			_, root := tracer.StartRequest(context.Background(), new(obs.RequestContext), "dtdcheck.tighter", "")
			bud.SetObserver(root)
			dump := func() {
				root.End()
				for _, ts := range tracer.Traces(1) {
					obs.WriteTrace(os.Stderr, ts)
				}
			}
			defer dump()
			prev := exit
			exit = func(code int) { dump(); prev(code) }
		}
		ab, wab, err := mix.TighterBudget(a, b, bud)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtdcheck: undecided within budget:", err)
			exit(3)
		}
		ba, _, err := mix.TighterBudget(b, a, bud)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtdcheck: undecided within budget:", err)
			exit(3)
		}
		switch {
		case ab && ba:
			fmt.Println("equivalent: the DTDs describe the same documents")
		case ab:
			fmt.Printf("%s is strictly tighter than %s\n", flag.Arg(0), flag.Arg(1))
		case ba:
			fmt.Printf("%s is strictly tighter than %s\n", flag.Arg(1), flag.Arg(0))
		default:
			fmt.Println("incomparable")
		}
		if !ab && wab != nil {
			fmt.Printf("witness against %s ⊆ %s: %s\n", flag.Arg(0), flag.Arg(1), wab)
			if doc, err := mix.WitnessDocument(a, b); err == nil && doc != nil {
				fmt.Println("counterexample document (valid under the first, invalid under the second):")
				fmt.Print(mix.MarshalDocument(doc, nil, 2))
			}
		}
		if !ab {
			exit(1)
		}
		return
	}

	var text []byte
	var err error
	if *docPath == "" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(*docPath)
	}
	if err != nil {
		fatal(err)
	}
	doc, d, err := mix.ParseDocument(string(text))
	if err != nil {
		fatal(err)
	}
	if *dtdPath != "" {
		d, err = readDTD(*dtdPath)
		if err != nil {
			fatal(err)
		}
	}
	if d == nil {
		fatal(fmt.Errorf("no DTD: the document has no DOCTYPE internal subset and -dtd was not given"))
	}
	if errs := d.Check(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "dtdcheck: DTD problem:", e)
		}
		exit(1)
	}
	if err := d.Validate(doc); err != nil {
		fmt.Fprintln(os.Stderr, "dtdcheck: INVALID:", err)
		exit(1)
	}
	fmt.Println("valid")
}

func readDTD(path string) (*mix.DTD, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return mix.ParseDTD(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtdcheck:", err)
	os.Exit(1)
}

// exit terminates with the given status; -stats rebinds it so the cache
// counters are printed even on the failure exits, which bypass defers.
var exit = os.Exit

// printCacheStats dumps the compiled-automata cache counters to stderr
// (see -stats): one line of JSON, separate from the primary output.
func printCacheStats() {
	b, _ := json.Marshal(automata.CacheStats())
	fmt.Fprintf(os.Stderr, "automata_cache: %s\n", b)
}
