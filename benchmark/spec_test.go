package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code's metric
// and workload lists in step: a metric declared but not printed (or the
// reverse) would make the driver refuse every run.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []declared, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestCommittedDigests recomputes the input digests of seeds 1 and 2: a
// refactor of internal/load or internal/gen that changes the generated
// inputs fails here, before it makes two commits incomparable.
func TestCommittedDigests(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			if _, ok := committedDigest(w.name, seed); !ok {
				t.Errorf("testdata/digests.json has no digest for %s seed %d", w.name, seed)
				continue
			}
			fx, err := buildFixtures(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDigest(fx); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestPlanIsAFunctionOfSeedAndIndex(t *testing.T) {
	w, _ := findWorkload("infer")
	a, err := buildFixtures(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildFixtures(w, 7)
	c, _ := buildFixtures(w, 8)
	if a.digest() != b.digest() {
		t.Error("the same seed gave different inputs")
	}
	if a.digest() == c.digest() {
		t.Error("different seeds gave the same inputs")
	}
	seen := map[string]bool{}
	for i := int64(0); i < 200; i++ {
		o := a.opAt(i)
		if o.payload != b.opAt(i).payload {
			t.Fatalf("op %d differs between two builds of seed 7", i)
		}
		if o.kind == opInferUnique {
			if seen[o.payload] {
				t.Fatalf("unique payload of op %d repeats", i)
			}
			seen[o.payload] = true
		}
	}
}
