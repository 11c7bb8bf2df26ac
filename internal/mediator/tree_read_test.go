package mediator_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/oracle"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// switchedSource serves one of the fleet documents of a source, parsed once,
// or fails every fetch while it is down.
type switchedSource struct {
	name    string
	schema  *dtd.DTD
	docs    []*xmlmodel.Document
	version atomic.Int32
	down    atomic.Bool
}

func (s *switchedSource) Name() string     { return s.name }
func (s *switchedSource) Schema() *dtd.DTD { return s.schema }
func (s *switchedSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if s.down.Load() {
		return nil, errors.New("replica down")
	}
	return s.docs[s.version.Load()], nil
}

// openableSource refuses every fetch as an open breaker does while open is
// set; the ReplicaSet below it then goes unasked.
type openableSource struct {
	mediator.Wrapper
	open atomic.Bool
}

func (s *openableSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if s.open.Load() {
		return nil, mediator.ErrBreakerOpen
	}
	return s.Wrapper.Fetch(ctx)
}

// A tree read is the sent read: on one mediator over the five-family fleet,
// a view document or a query answer read as a tree (MaterializeInfo, Query,
// AsSource's Fetch) is the document whose serialization Read's Answer.Write
// sends, reported by the same QueryStats — whichever state the part slots'
// memos are in when the tree is read (nothing kept yet, picks found once,
// bytes rendered, bytes copied), after a source changed, for a 304, an
// unsatisfiable query, one whose every part is pruned, and a read that is
// degraded or stale — and reading the tree renders and copies nothing.
func TestTreeReadIsTheSentRead(t *testing.T) {
	o, fleet := newOracle(t)
	m := mediator.New("tree")
	var replicas []*switchedSource
	var gates []*openableSource
	for _, src := range fleet.Sources {
		r := &switchedSource{name: src.Name + "-r0", schema: src.DTD}
		for _, text := range src.Docs {
			doc, _, err := xmlmodel.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			r.docs = append(r.docs, doc)
		}
		rs, err := mediator.NewReplicaSet(src.Name, []mediator.Wrapper{r}, mediator.ReplicaSetOptions{
			HedgeDelay: -1, Health: mediator.HealthOptions{EjectAfter: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		g := &openableSource{Wrapper: rs}
		if err := m.AddSource(g); err != nil {
			t.Fatal(err)
		}
		replicas, gates = append(replicas, r), append(gates, g)
	}
	if _, err := m.DefineUnionView(fleetView, fleet.Views[0].Parts); err != nil {
		t.Fatal(err)
	}
	var features oracle.Coverage
	texts, err := o.Queries(rand.New(rand.NewSource(41)), fleetView, 40, &features)
	if err != nil {
		t.Fatal(err)
	}
	const unsatisfiable = `r = SELECT X WHERE <fleet> X:<nowhere/> </fleet>`
	texts = append(texts, unsatisfiable, `r = SELECT X WHERE <fleet> X:<entry/> </fleet>`)
	ctx := context.Background()

	var cov struct{ nonEmpty, skipped, allPruned, degraded, stale int }
	// both reads req as a tree, then as the answer sent, and compares them.
	both := func(req mediator.Request) (mediator.Answer, mediator.QueryStats) {
		t.Helper()
		before := m.Stats()
		var doc *xmlmodel.Document
		var treeStats *mediator.QueryStats
		if req.Text == nil {
			doc, treeStats, err = m.MaterializeInfo(ctx, req.View)
		} else {
			doc, treeStats, err = m.Query(ctx, req.View, xmas.MustParse(string(req.Text)))
		}
		if err != nil {
			t.Fatal(err)
		}
		if after := m.Stats(); after.AnswerBytesRendered != before.AnswerBytesRendered || after.AnswerBytesCopied != before.AnswerBytesCopied {
			t.Fatalf("%s: a tree read rendered %d and copied %d bytes", req.Text, after.AnswerBytesRendered-before.AnswerBytesRendered,
				after.AnswerBytesCopied-before.AnswerBytesCopied)
		}
		a, sentStats, err := m.Read(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var sent strings.Builder
		if err := a.Write(&sent); err != nil {
			t.Fatal(err)
		}
		if tree := xmlmodel.MarshalElement(doc.Root, 2); tree != sent.String() {
			t.Fatalf("%s (pruning %v): the tree read\n%s\nthe sent read\n%s", req.Text, m.PruningEnabled(), tree, sent.String())
		}
		if !reflect.DeepEqual(*treeStats, sentStats) {
			t.Fatalf("%s: the tree read reports %+v, the sent read %+v", req.Text, *treeStats, sentStats)
		}
		if len(doc.Root.Children) > 0 {
			cov.nonEmpty++
		}
		if sentStats.SkippedUnsatisfiable {
			cov.skipped++
		}
		if len(sentStats.PrunedSources) == len(fleet.Sources) {
			cov.allPruned++
		}
		return a, sentStats
	}
	// repeat reads req as a tree before each of five sends: the parts' memos
	// have nothing, picks, picks found once, bytes and bytes copied.
	repeat := func(req mediator.Request) mediator.QueryStats {
		t.Helper()
		var stats mediator.QueryStats
		for i := 0; i < 5; i++ {
			_, stats = both(req)
		}
		return stats
	}
	request := func(text string) mediator.Request {
		if text == "" {
			return mediator.Request{View: fleetView}
		}
		return mediator.Request{View: fleetView, Text: []byte(text)}
	}

	for _, pruning := range []bool{true, false} {
		m.SetPruning(pruning)
		for i, text := range append([]string{""}, texts...) {
			repeat(request(text))
			// One source moves to its other document: its part is evaluated
			// again, the others' memos hold what they held.
			r := replicas[i%len(replicas)]
			r.version.Store(1 - r.version.Load())
			if _, err := m.InvalidateSource(fleet.Sources[i%len(replicas)].Name); err != nil {
				t.Fatal(err)
			}
			repeat(request(text))
		}
	}

	// A query whose every part is pruned: the view DTD, where the profile1 of
	// the optional family and the mixed one's are merged into one, admits it;
	// no part's DTD does.
	m.SetPruning(true)
	const allPruned = `r = SELECT X WHERE <fleet> X:<entry> <profile0> <profile1> <profile2/> </profile1> </profile0> <description/> </entry> </fleet>`
	if stats := repeat(request(allPruned)); len(stats.PrunedSources) != len(fleet.Sources) || stats.SkippedUnsatisfiable {
		t.Errorf("vacuous: %s: %+v, want every source pruned", allPruned, stats)
	}

	// A 304: no tree, nothing sent. AsSource's fetch is the tree read under
	// If-None-Match: the document it handed out the first time, again.
	_, stats := both(request(""))
	a, notModified, err := m.Read(ctx, mediator.Request{View: fleetView, IfNoneMatch: stats.Tag})
	var sent strings.Builder
	if err == nil {
		err = a.Write(&sent)
	}
	if err != nil || !notModified.NotModified || notModified.Tag != stats.Tag || a.Document() != nil || sent.Len() != 0 {
		t.Errorf("If-None-Match with the view's tag: %+v, %v, a document %v, %d bytes sent", notModified, err, a.Document() != nil, sent.Len())
	}
	src, err := m.AsSource(fleetView)
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	again, err := src.Fetch(ctx)
	if after := m.Stats(); err != nil || again != first || after.CacheHits != before.CacheHits+1 ||
		after.AnswerBytesRendered != before.AnswerBytesRendered || after.AnswerBytesCopied != before.AnswerBytesCopied {
		t.Errorf("a stacked fetch of an unchanged view: the same document %v, %v, hits %d → %d", again == first, err, before.CacheHits, after.CacheHits)
	}
	a, _ = both(request(""))
	sent.Reset()
	if err := a.Write(&sent); err != nil || xmlmodel.MarshalElement(first.Root, 2) != sent.String() {
		t.Errorf("a stacked fetch is not the document sent (%v)", err)
	}

	// Degraded, then stale: the first source's breaker is open, then its
	// only replica is down and its ReplicaSet serves the last document it
	// fetched. Neither result is kept, so every read asks again.
	for _, mode := range []string{"degraded", "stale"} {
		if mode == "degraded" {
			gates[0].open.Store(true)
		} else {
			replicas[0].down.Store(true)
		}
		if _, err := m.InvalidateSource(fleet.Sources[0].Name); err != nil {
			t.Fatal(err)
		}
		for _, text := range append([]string{""}, texts[:10]...) {
			for _, pruning := range []bool{true, false} {
				m.SetPruning(pruning)
				stats := repeat(request(text))
				switch {
				case stats.Degraded && mode == "degraded":
					cov.degraded++
				case len(stats.StaleSources) > 0 && mode == "stale":
					cov.stale++
				}
				if text == "" && stats.Tag != "" {
					t.Errorf("a %s view document carries the tag %s", mode, stats.Tag)
				}
			}
		}
		gates[0].open.Store(false)
		replicas[0].down.Store(false)
		if _, err := m.InvalidateSource(fleet.Sources[0].Name); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.AnswerBytesRendered == 0 || st.AnswerBytesCopied == 0 {
		t.Errorf("vacuous: the sent reads rendered %d and copied %d bytes", st.AnswerBytesRendered, st.AnswerBytesCopied)
	}
	for what, n := range map[string]int{
		"non-empty answers": cov.nonEmpty, "degraded reads": cov.degraded, "stale reads": cov.stale,
		"reads with every part pruned": cov.allPruned, "unsatisfiable reads": cov.skipped,
	} {
		if n < 5 {
			t.Errorf("vacuous: only %d %s (%+v)", n, what, cov)
		}
	}
}
