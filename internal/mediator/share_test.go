package mediator

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// newWideMediator builds a union view "wide" of parts static D1
// departments, each contributing profs professor entries.
func newWideMediator(t testing.TB, parts, profs int) *Mediator {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	text := func(name, format string, args ...any) *xmlmodel.Element {
		return xmlmodel.NewText(name, fmt.Sprintf(format, args...))
	}
	person := func(name, id string) *xmlmodel.Element {
		e := xmlmodel.NewElement(name, text("firstName", "F %s", id), text("lastName", "L & <%s>", id),
			xmlmodel.NewElement("publication", text("title", "t"), text("author", "a"), text("journal", "J")))
		e.ID = id
		return e
	}
	m := New("wide")
	var defs []ViewPart
	for s := 0; s < parts; s++ {
		dept := xmlmodel.NewElement("department", text("name", "dept%d", s))
		for p := 0; p < profs; p++ {
			prof := person("professor", fmt.Sprintf("s%dp%d", s, p))
			prof.Children = append(prof.Children, text("teaches", "c%d", p))
			dept.Children = append(dept.Children, prof)
		}
		dept.Children = append(dept.Children, person("gradStudent", fmt.Sprintf("s%dg", s)))
		name := fmt.Sprintf("s%d", s)
		src, err := NewStaticSource(name, &xmlmodel.Document{DocType: "department", Root: dept}, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSource(src); err != nil {
			t.Fatal(err)
		}
		defs = append(defs, ViewPart{
			Source: name,
			Query:  xmas.MustParse(`v = SELECT X WHERE <department> X:<professor/> </department>`),
		})
	}
	if _, err := m.DefineUnionView("wide", defs); err != nil {
		t.Fatal(err)
	}
	return m
}

// A warm Query hands out the cached elements it picked, so what it
// allocates does not grow with the answer: picking every entry of the view
// must cost fewer objects than there are picks (one copy per pick, as
// engine.Eval makes, already fails this), and eight times the picks must
// cost next to nothing more.
func TestWarmQueryAllocatesLessThanItPicks(t *testing.T) {
	ctx := context.Background()
	q := xmas.MustParse(`all = SELECT X WHERE <wide> X:<professor/> </wide>`)
	measure := func(parts, profs int) (picks int, allocs float64) {
		m := newWideMediator(t, parts, profs)
		allocs = testing.AllocsPerRun(3, func() {
			res, _, err := m.Query(ctx, "wide", q)
			if err != nil {
				t.Fatal(err)
			}
			picks = len(res.Root.Children)
		})
		if picks != parts*profs {
			t.Fatalf("query picked %d entries, want %d", picks, parts*profs)
		}
		return picks, allocs
	}
	fewPicks, few := measure(6, 50)
	manyPicks, many := measure(6, 400)
	if many >= float64(manyPicks) {
		t.Errorf("a warm query returning %d picks allocated %.0f objects; it must share the cached elements, not copy them", manyPicks, many)
	}
	if grown := many - few; grown > float64(manyPicks-fewPicks)/10 {
		t.Errorf("%d more picks cost %.0f more allocations (%.0f → %.0f); the cost of a warm query must not follow the size of its answer",
			manyPicks-fewPicks, grown, few, many)
	}
}

// Query results and materializations share the cached part elements, so
// readers on many goroutines — serializing while a source is invalidated
// and its part recomputed under them — must all see the same bytes, and
// the cache must be as it was afterwards.
func TestSharedResultsAreSafeToReadConcurrently(t *testing.T) {
	m := newWideMediator(t, 6, 20)
	ctx := context.Background()
	q := xmas.MustParse(`some = SELECT X WHERE <wide> X:<professor><teaches>c7</teaches></professor> </wide>`)

	query := func() ([]byte, error) {
		res, _, err := m.Query(ctx, "wide", q)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		err = xmlmodel.WriteElement(&b, res.Root, 2)
		return b.Bytes(), err
	}
	materialize := func() ([]byte, error) {
		doc, err := m.Materialize(ctx, "wide")
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		err = xmlmodel.WriteElement(&b, doc.Root, 2)
		return b.Bytes(), err
	}
	wantQuery, err := query()
	if err != nil {
		t.Fatal(err)
	}
	wantView, err := materialize()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(wantQuery, []byte("<professor")) != 6 || bytes.Count(wantView, []byte("<professor")) != 120 {
		t.Fatalf("reference answers have the wrong shape:\n%s", wantQuery)
	}

	const readers, rounds = 8, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	invalidated := make(chan struct{})
	go func() {
		defer close(invalidated)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.InvalidateSource(fmt.Sprintf("s%d", i%6)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		read, want := query, wantQuery
		if r%2 == 1 {
			read, want = materialize, wantView
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := read()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("a concurrent answer of %d bytes is not the reference's %d", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-invalidated

	for name, c := range map[string]struct {
		read func() ([]byte, error)
		want []byte
	}{"query": {query, wantQuery}, "materialize": {materialize, wantView}} {
		if got, err := c.read(); err != nil || !bytes.Equal(got, c.want) {
			t.Errorf("%s after the concurrent reads: err %v, answer changed: %v", name, err, !bytes.Equal(got, c.want))
		}
	}
}
