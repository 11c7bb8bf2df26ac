package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json --repeat needs: each
// end-to-end metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs n sets of --trace 0 runs, every one on the same seed, each
// run in a process of its own (the automata and verdict caches are
// process-wide, so a second run in one process would start warm). The
// inputs being identical, what spreads is the measurement. It prints, per
// workload and end-to-end metric, median, quartiles and the spread against
// the bound in BENCHMARK.json — quartiles as the driver computes them —
// and reports whether every spread, setup_s included, stayed within its
// bound. The seed must be one with a committed input digest: only those
// are guaranteed to mean the same inputs on two commits.
func repeatRuns(name string, seed int64, seconds float64, n int, out io.Writer) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("--repeat needs at least 2 sets to have a spread")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("--repeat reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return false, err
		}
		selected = []*workload{w}
	}
	for _, w := range selected {
		if _, ok := committedDigest(w.name, seed); !ok {
			return false, fmt.Errorf("--repeat: seed %d has no committed input digest for %s (testdata/digests.json has seeds 1 and 2)", seed, w.name)
		}
	}

	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for i := 0; i < n; i++ {
		for _, w := range selected {
			res, err := runChild(self, w.name, seed, seconds)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if !res.Correct {
				return false, fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed, res.Failed, res.Attempted)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[w.name][m] = append(values[w.name][m], v.Value)
			}
			fmt.Fprintf(out, "set %d/%d  %-16s seed %-4d ok (%d ops)\n", i+1, n, w.name, seed, res.Attempted)
		}
	}

	ok := true
	fmt.Fprintf(out, "\n%-16s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range selected {
		for _, m := range spec.EndToEnd {
			v := values[w.name][m.Name]
			if len(v) != n {
				return false, fmt.Errorf("%s: metric %s of BENCHMARK.json was not reported", w.name, m.Name)
			}
			q1, q3 := quartiles(v)
			sp := spread(v)
			verdict := ""
			if sp > m.Bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Fprintf(out, "%-16s %-18s %12.4f %12.4f %12.4f %8.3f %6.2f%s\n", w.name, m.Name, median(v), q1, q3, sp, m.Bound, verdict)
		}
	}
	return ok, nil
}

// runChild runs one workload once in a child process and parses the
// result line.
func runChild(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0", "--quiet")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
