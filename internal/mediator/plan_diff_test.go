package mediator_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/xmas"
)

// The differential test of the query-plan memo. That a query answered from a
// kept plan gets the answer it got when the plan was made is the oracle's
// check; here, that it gets the QueryStats too — the X-Mix-* headers they are
// sent as — whether the repeat finds the plan by its text or, spelled
// otherwise, by its canonical key, and that only the first ask analyses
// (unless the plan was not kept). The queries are the oracle's generator's:
// satisfiable often, pruned often (each family has children the others
// lack), and using every field of the query tree the key has to tell apart.

// provenance is the QueryStats of an answer as the handler sends them.
func provenance(h http.Header) http.Header {
	out := http.Header{}
	for k, v := range h {
		if strings.HasPrefix(k, "X-Mix-") {
			out[k] = v
		}
	}
	return out
}

func TestPlanHitEqualsMissEqualsColdMemo(t *testing.T) {
	o, _ := newOracle(t)
	s := subject(t, o, true)
	var features oracle.Coverage
	texts, err := o.Queries(rand.New(rand.NewSource(18)), fleetView, 400, &features)
	if err != nil {
		t.Fatal(err)
	}
	var cov struct{ kept, notKept, pruned, skipped, simplified, nonEmpty, neq int }
	var first http.Header
	err = o.Check([]*oracle.Subject{s}, fleetView, texts, oracle.Tally{}, func(st *oracle.Step) error {
		if st.Inval != oracle.InvalNone {
			return nil
		}
		hits, misses := st.After.PlanHits-st.Before.PlanHits, st.After.PlanMisses-st.Before.PlanMisses
		if st.Plan == oracle.PlanMiss {
			if misses != 1 || hits != 0 {
				return fmt.Errorf("a query never asked before was not analysed: misses +%d, hits +%d\n%s", misses, hits, st.Query)
			}
			first = provenance(st.Header)
			if first.Get("X-Mix-Pruned-Sources") != "" {
				cov.pruned++
			}
			if first.Get("X-Mix-Skipped") == "true" {
				cov.skipped++
			}
			if first.Get("X-Mix-Pruned") != "" || first.Get("X-Mix-Dropped-Names") != "" {
				cov.simplified++
			}
			if childBytes(st.Want, "v") > 0 {
				cov.nonEmpty++
			}
			if len(xmas.MustParse(st.Query).Neq) > 0 {
				cov.neq++
			}
			return nil
		}
		switch {
		case hits == 1 && misses == 0:
			if st.Read == oracle.ReadFoundOnce {
				cov.kept++
			}
		case hits == 0 && misses == 1:
			if st.Read == oracle.ReadFoundOnce {
				cov.notKept++ // an Unknown verdict: recursive probes get no other
			}
		default:
			return fmt.Errorf("a repeat was neither a plan hit nor a second analysis: hits +%d, misses +%d\n%s", hits, misses, st.Query)
		}
		if got := provenance(st.Header); !reflect.DeepEqual(got, first) {
			return fmt.Errorf("a repeat reports different QueryStats\nquery:\n%s\nfirst: %v\nrepeat: %v", st.Query, first, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for what, n := range map[string]int{
		"plans kept": cov.kept, "plans not kept": cov.notKept, "queries that pruned a source": cov.pruned,
		"queries skipped as unsatisfiable": cov.skipped, "queries the simplifier rewrote": cov.simplified,
		"non-empty answers": cov.nonEmpty, "queries with !=": cov.neq,
	} {
		if n < 5 {
			t.Errorf("vacuous: only %d %s among %d queries (%+v)", n, what, len(texts), cov)
		}
	}
}
