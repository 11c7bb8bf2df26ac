package mediator_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/oracle"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The fleet the differential tests of this package run over: one source per
// internal/load schema family, each serving two documents, under one union
// view of their entries. internal/oracle serves the sources, so a subject
// mediator reads them over HTTP, and its reference — a fresh naive mediator
// per vector of versions — says what every answer must be; these tests add
// what the counters must say.
const fleetView = "fleet"

func newOracle(t *testing.T) (*oracle.Oracle, *oracle.Fleet) {
	t.Helper()
	opts := gen.Options{AssignIDs: true, MaxDepth: 6, LengthBias: 0.5, TextPool: []string{"x", "y"}}
	var sources []*load.Source
	for i, f := range load.Families() {
		src, err := load.BuildSource(string(f), load.SourceOptions{
			Schema: load.SchemaOptions{Seed: int64(i + 1), Family: f, Depth: 3, Width: 3}, Gen: opts})
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, src)
	}
	fleet := load.OracleFleet(fleetView, sources)
	for i := range fleet.Sources { // and a second document of each, drawn from its DTD
		opts.Seed = int64(100 + i)
		g, err := gen.New(sources[i].DTD, opts)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Sources[i].Docs = append(fleet.Sources[i].Docs, xmlmodel.MarshalElement(g.Document().Root, -1))
	}
	o := oracle.New(fleet)
	t.Cleanup(o.Close)
	return o, fleet
}

// subject is a funded subject of the oracle.
func subject(t *testing.T, o *oracle.Oracle, pruning bool) *oracle.Subject {
	t.Helper()
	s, err := o.NewSubject(pruning, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The differential test of answers kept per part: whatever the slots
// remember, the answer is the oracle's reference's, on a repeat, after an
// invalidation that changed nothing and after each single source changed;
// and a repeat or a read after a no-op invalidation evaluates no part, while
// the four reads after one source changed evaluate at most its one part. The
// queries are the oracle's generator's, over both versions of the view, with
// the shapes that must fall back — a second root child condition, a
// recursive root step, a pick bound at the root — among them.
func TestAnswersByPartEqualTheNaiveEvaluation(t *testing.T) {
	o, _ := newOracle(t)
	subjects := []*oracle.Subject{subject(t, o, true), subject(t, o, false)}
	var features oracle.Coverage
	texts, err := o.Queries(rand.New(rand.NewSource(26)), fleetView, 250, &features)
	if err != nil {
		t.Fatal(err)
	}
	var cov struct{ byPart, twoRootChildren, recursiveRoot, rootPick, nonEmpty, neq, pruned int }
	for _, text := range texts {
		switch q := xmas.MustParse(text); {
		case q.Root.Recursive:
			cov.recursiveRoot++
		case q.Root.Var == q.PickVar:
			cov.rootPick++
		case len(q.Root.Children) != 1:
			cov.twoRootChildren++
		default:
			cov.byPart++
		}
		if len(xmas.MustParse(text).Neq) > 0 {
			cov.neq++
		}
	}
	var total int64
	sinceChange := map[*oracle.Subject]int64{}
	err = o.Check(subjects, fleetView, texts, oracle.Tally{}, func(s *oracle.Step) error {
		evaluated := s.After.AnswerPartsEvaluated - s.Before.AnswerPartsEvaluated
		total += evaluated
		switch {
		case s.Inval == oracle.InvalReal:
			if s.Read == oracle.ReadFirst {
				sinceChange[s.Subject] = 0
			}
			if sinceChange[s.Subject] += evaluated; sinceChange[s.Subject] > 1 {
				return fmt.Errorf("%s: after source %d alone changed, %d parts were evaluated\nquery:\n%s", s.Subject, s.Changed, sinceChange[s.Subject], s.Query)
			}
		case s.Read > oracle.ReadFirst && evaluated != 0:
			return fmt.Errorf("%s: a repeat, or a read after a no-op invalidation, evaluated %d parts\nquery:\n%s", s.Subject, evaluated, s.Query)
		}
		if s.Plan == oracle.PlanMiss && s.Subject.Pruning {
			if s.Header.Get("X-Mix-Pruned-Sources") != "" {
				cov.pruned++
			}
			if childBytes(s.Want, "v") > 0 {
				cov.nonEmpty++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for what, n := range map[string]int{
		"queries answered part by part": cov.byPart, "root conditions with several children": cov.twoRootChildren,
		"recursive root steps": cov.recursiveRoot, "picks bound at the root": cov.rootPick,
		"non-empty answers": cov.nonEmpty, "queries with !=": cov.neq, "answers with a pruned source": cov.pruned,
	} {
		if n < 5 {
			t.Errorf("vacuous: only %d %s (%+v)", n, what, cov)
		}
	}
	if total == 0 {
		t.Error("vacuous: no part was ever evaluated for an answer")
	}
}

// raceReaders has four readers send the texts to read in turn while a writer
// makes source 2 alternate between its two documents, invalidating it — every
// seventh time, everything — changes times, each once the readers have read
// pace more times. Every answer must be the reference's over one of the two
// versions, whatever the memos held when it was put together, and once nothing
// moves any more, over the version now served. It returns how many reads ran.
func raceReaders(t *testing.T, o *oracle.Oracle, s *oracle.Subject, texts []string, changes, pace int, read func(text string) string) int64 {
	const changing = 2
	answer := func(versions []int, text string) string {
		t.Helper()
		prologue, body, err := o.Reference().Answer(versions, fleetView, text)
		if err != nil {
			t.Fatal(err)
		}
		return prologue + body
	}
	admissible := make([]map[string]bool, len(texts))
	for i, text := range texts {
		admissible[i] = map[string]bool{}
		for version := 0; version < 2; version++ {
			versions := o.Versions()
			versions[changing] = version
			admissible[i][answer(versions, text)] = true
		}
		if len(admissible[i]) != 2 {
			t.Fatalf("vacuous: read %d answers the same over both versions", i)
		}
	}

	var wg sync.WaitGroup
	var reads atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < changes; i++ {
			for seen := reads.Load(); reads.Load() < seen+int64(pace) && !t.Failed(); {
				runtime.Gosched()
			}
			o.Serve(changing, i%2)
			if i%7 == 0 {
				s.Mediator.Invalidate()
			} else if _, err := s.Mediator.InvalidateSource(s.Source(changing)); err != nil {
				t.Error(err)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				which := (r + i) % len(texts)
				if got := read(texts[which]); !admissible[which][got] {
					t.Errorf("reader %d, read %d: the answer to read %d is neither version's", r, i, which)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	wg.Wait()
	for i, text := range texts {
		if got := read(text); got != answer(o.Versions(), text) {
			t.Errorf("read %d after the last invalidation: not the answer over the documents now served", i)
		}
	}
	return reads.Load()
}

// Readers of one plan race invalidations of a source that alternates between
// its two documents. (Run under -race: the memos are written by whichever
// reader evaluates first.)
func TestConcurrentReadersGetOneOfTheTwoVersions(t *testing.T) {
	o, _ := newOracle(t)
	s := subject(t, o, true)
	reads := raceReaders(t, o, s, []string{
		`r = SELECT X WHERE <fleet> X:<entry/> </fleet>`,
		`r = SELECT N WHERE <fleet> <entry> N:<name/> </entry> </fleet>`,
	}, 300, 2, func(text string) string { // let a read or two see every version
		got, _, err := s.Mediator.Query(context.Background(), fleetView, xmas.MustParse(text))
		if err != nil {
			t.Error(err)
			return ""
		}
		return xmlmodel.MarshalElement(got.Root, 2)
	})
	if st := s.Mediator.Stats(); st.AnswerPartsEvaluated < 50 || st.AnswerPartsReused < 50 {
		t.Errorf("vacuous: %d reads, %d parts evaluated, %d reused", reads, st.AnswerPartsEvaluated, st.AnswerPartsReused)
	}
}
