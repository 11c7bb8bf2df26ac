// Command benchmark is the repository's one benchmark: four named
// workloads against the real serve.Handler over loopback HTTP, every
// answer checked against the naive path, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	go run ./benchmark --workload warm-read --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload refresh --seed 1 --seconds 20 --trace 1
//	go run ./benchmark --repeat 10 --seed 1 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: warm-read, refresh, infer or cluster-forward (with --repeat: empty for all)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 20, "length of the measured phases in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		smoke   = flag.Bool("smoke", false, "scale every phase to about a second (for tests; the numbers mean nothing)")
		repeat  = flag.Int("repeat", 0, "run N sets, all on --seed, and print medians, quartiles and spread against BENCHMARK.json's bounds")
		digests = flag.Bool("digests", false, "print the input digests of seeds 1 and 2 in the format of testdata/digests.json and exit")
		quiet   = flag.Bool("quiet", false, "print only the result line")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace is 0 or 1, not %d", *trace))
	}
	// The workloads are sized for the two cores the benchmark is specified
	// on; more would change what "2 workers" saturate.
	runtime.GOMAXPROCS(2)

	if *digests {
		if err := printDigests(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	setupSpan := defaultSetupSpan
	if *smoke {
		*seconds, setupSpan = 1, 0
	}
	if *repeat > 0 {
		ok, err := repeatRuns(*name, *seed, *seconds, *repeat, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	var out io.Writer = os.Stdout
	if *quiet {
		out = io.Discard
	}
	res, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, out: out,
		traceDir: filepath.Join("benchmark", "out"), setupSpan: setupSpan})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printDigests writes the digests of every workload for seeds 1 and 2.
func printDigests(out io.Writer) error {
	all := map[string]map[string]string{}
	for _, w := range workloads {
		all[w.name] = map[string]string{}
		for _, seed := range []int64{1, 2} {
			fx, err := buildFixtures(w, seed)
			if err != nil {
				return err
			}
			all[w.name][fmt.Sprint(seed)] = fx.digest()
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(all)
}
