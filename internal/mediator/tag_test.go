package mediator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

func TestTagListed(t *testing.T) {
	const tag = `"0123456789abcdef-members-3.0"`
	for _, c := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{tag, true},
		{"W/" + tag, true},
		{`"other", ` + tag, true},
		{`"other" ,W/` + tag + ` , "third"`, true},
		{"*", true},
		{`"0123456789abcdef-members-3.1"`, false},
		{strings.Trim(tag, `"`), false}, // an entity tag is quoted
		{`"other", "third"`, false},
	} {
		if got := TagListed(c.header, tag); got != c.want {
			t.Errorf("TagListed(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// readDocument reads the view's document as a tree under If-None-Match, as
// viewSource.Fetch does: nil for a read that comes back NotModified.
func readDocument(ctx context.Context, m *Mediator, view, ifNoneMatch string) (*xmlmodel.Document, *QueryStats, error) {
	a, stats, err := m.read(ctx, Request{View: view, IfNoneMatch: ifNoneMatch}, false)
	return a.Document(), &stats, err
}

// A tag follows the generations of what was evaluated, not of what was
// asked: it holds while nothing is invalidated, a caller that names it gets
// no document (and is counted as the cache hit it is), an invalidation of a
// source that changed moves it to that invalidation's generation, an
// invalidation — of one source or of all — that finds every source unchanged
// leaves it where it was and the caller that names it is still told "not
// modified", and a query never makes one.
func TestTagFollowsGenerations(t *testing.T) {
	ctx := context.Background()
	m, faults := newDeltaMediator(t, 3, "u")
	doc, info, err := m.MaterializeInfo(ctx, "u")
	if err != nil || doc == nil || info.Tag == "" || info.NotModified {
		t.Fatalf("first materialization: doc %v, info %+v, err %v", doc != nil, info, err)
	}
	first := info.Tag
	if !strings.HasPrefix(first, `"`+m.nonce+"-u-") || !strings.HasSuffix(first, `0.0.0"`) {
		t.Errorf("tag %s: want the nonce, the view and three generations", first)
	}
	if _, again, _ := m.MaterializeInfo(ctx, "u"); again.Tag != first {
		t.Errorf("an unchanged view changed its tag: %s then %s", first, again.Tag)
	}

	before := m.Stats()
	doc, info, err = readDocument(ctx, m, "u", `"stale", W/`+first)
	if err != nil || doc != nil || !info.NotModified || info.Tag != first {
		t.Fatalf("a caller holding the tag: doc %v, info %+v, err %v", doc != nil, info, err)
	}
	if after := m.Stats(); after.CacheHits != before.CacheHits+1 || after.CacheMisses != before.CacheMisses {
		t.Errorf("not modified is a cache hit: hits %d → %d, misses %d → %d",
			before.CacheHits, after.CacheHits, before.CacheMisses, after.CacheMisses)
	}

	// s1 changes: its part is refetched, evaluated, and the tag says so.
	setDeltaDoc(t, faults, 1, 7)
	if _, err := m.InvalidateSource("s1"); err != nil {
		t.Fatal(err)
	}
	fetched := fetchCounts(faults)
	doc, info, err = readDocument(ctx, m, "u", first)
	if err != nil || doc == nil || info.NotModified || !strings.HasSuffix(info.Tag, `0.1.0"`) {
		t.Fatalf("after InvalidateSource(s1): doc %v, info %+v, err %v", doc != nil, info, err)
	}
	if now := fetchCounts(faults); now[0] != fetched[0] || now[1] != fetched[1]+1 || now[2] != fetched[2] {
		t.Errorf("fetches %v → %v, want only s1 refetched", fetched, now)
	}
	for i := range faults {
		setDeltaDoc(t, faults, i, 10+i)
	}
	m.Invalidate()
	if _, info, _ = readDocument(ctx, m, "u", info.Tag); info.NotModified || !strings.HasSuffix(info.Tag, `1.2.1"`) {
		t.Errorf("after Invalidate over changed sources: %+v", info)
	}

	// The other direction: nothing changed, so every refetch finds the
	// document its slot holds, nothing is evaluated and the tag stays — the
	// misses are misses, and their answer is still "not modified".
	held, before := info.Tag, m.Stats()
	fetched = fetchCounts(faults)
	if _, err := m.InvalidateSource("s2"); err != nil {
		t.Fatal(err)
	}
	doc, info, err = readDocument(ctx, m, "u", held)
	if err != nil || doc != nil || !info.NotModified || info.Tag != held {
		t.Errorf("after a no-op InvalidateSource(s2): doc %v, info %+v, err %v", doc != nil, info, err)
	}
	m.Invalidate()
	doc, info, err = m.MaterializeInfo(ctx, "u")
	if err != nil || doc == nil || info.NotModified || info.Tag != held {
		t.Errorf("after a no-op Invalidate: doc %v, info %+v, err %v; want a document under %s", doc != nil, info, err, held)
	}
	if _, info, _ = readDocument(ctx, m, "u", held); !info.NotModified {
		t.Errorf("the tag a no-op Invalidate left alone is not honoured: %+v", info)
	}
	if now := fetchCounts(faults); now[0] != fetched[0]+1 || now[1] != fetched[1]+1 || now[2] != fetched[2]+2 {
		t.Errorf("fetches %v → %v: an invalidation is answered by a fetch, changed or not", fetched, now)
	}
	after := m.Stats()
	if got := after.PartsRevalidated - before.PartsRevalidated; got != 4 {
		t.Errorf("PartsRevalidated advanced by %d, want 4 (s2, then all three)", got)
	}
	if recomputed := after.PartsRecomputed - before.PartsRecomputed; recomputed != 4 || after.CacheMisses != before.CacheMisses+2 {
		t.Errorf("PartsRecomputed advanced by %d and misses by %d, want 4 and 2: a revalidated part is a recomputed one",
			recomputed, after.CacheMisses-before.CacheMisses)
	}

	// A query's materialization, even one that keeps every part, has no tag
	// and honours none.
	v, _ := m.View("u")
	if parts, masked, err := m.resolveMasked(ctx, v, keepAll(v), nil, held); err != nil || len(parts) != 3 || masked.Tag != "" || masked.NotModified {
		t.Errorf("a query's materialization: %d parts, info %+v, err %v", len(parts), masked, err)
	}

	other, _ := newDeltaMediator(t, 3, "u")
	if _, theirs, _ := other.MaterializeInfo(ctx, "u"); theirs.Tag == "" || theirs.Tag == first {
		t.Errorf("a second mediator over the same view: tag %q, ours %q", theirs.Tag, first)
	}
	if _, info, _ := readDocument(ctx, other, "u", first); info.NotModified {
		t.Error("a second mediator honoured the first one's tag")
	}
}

// A view name reaches the tag escaped: whatever it holds, the tag stays one
// quoted entity tag without a comma.
func TestTagEscapesTheViewName(t *testing.T) {
	prefix := tagPrefixFor("00ff", `a "b", c-1`)
	if strings.ContainsAny(prefix[1:], "\", ") {
		t.Errorf("prefix %s holds a quote, a comma or a blank", prefix)
	}
	if tagPrefixFor("00ff", "a-1") == tagPrefixFor("00ff", "a") {
		t.Error("two view names share a prefix")
	}
}

// The generation in a tag is that of the calc the result came from. A
// follower planned on a calc of generation 0, whose leader gave up after the
// source was invalidated, ends on its own calc of generation 1 — and must
// say so: its document is the one every later reader is served under the
// generation-1 tag.
func TestTagNamesTheCalcTheJoinerEndedOn(t *testing.T) {
	m, src := newGatedMediator(t)
	lctx, lcancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := m.Materialize(lctx, "members")
		leaderDone <- err
	}()
	<-src.entered
	type result struct {
		info *QueryStats
		err  error
	}
	followerDone := make(chan result, 1)
	go func() {
		_, info, err := m.MaterializeInfo(context.Background(), "members")
		followerDone <- result{info, err}
	}()
	waitJoined(t, m, 1)

	m.Invalidate()
	lcancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v", err)
	}
	close(src.gate)
	got := <-followerDone
	if got.err != nil {
		t.Fatal(got.err)
	}
	_, later, err := m.MaterializeInfo(context.Background(), "members")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(later.Tag, `-1"`) || got.info.Tag != later.Tag {
		t.Errorf("the follower's tag is %s, the tag of the calc it ran is %s", got.info.Tag, later.Tag)
	}
}

// heldGatedSource is a static source whose first Fetch waits at a gate.
type heldGatedSource struct {
	*StaticSource
	entered, gate chan struct{}
	fetches       atomic.Int64
}

func (s *heldGatedSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if s.fetches.Add(1) == 1 {
		close(s.entered)
		<-s.gate
	}
	return s.StaticSource.Fetch(ctx)
}

// A complete result that raced an invalidation answers the callers waiting
// on it and stays in its slot as predecessor material only. It is never a
// hit — the next read fetches — but when that fetch brings back the document
// the raced result was evaluated from, its picks, its version and its answers
// are carried over: nothing is evaluated twice, and the tag says the
// generation that did evaluate.
func TestRacedResultStaysAsPredecessor(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDocN(0))
	if err != nil {
		t.Fatal(err)
	}
	static, err := NewStaticSource("held", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	src := &heldGatedSource{StaticSource: static, entered: make(chan struct{}), gate: make(chan struct{})}
	m := New("m")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("held", xmas.MustParse(`v = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := xmas.MustParse(`r = SELECT P WHERE <v> P:<professor/> </v>`)
	type answer struct {
		doc *xmlmodel.Document
		err error
	}
	raced := make(chan answer, 1)
	go func() {
		res, _, err := m.Query(ctx, "v", q)
		raced <- answer{res, err}
	}()
	<-src.entered
	m.Invalidate() // the fetch under way now predates an invalidation
	close(src.gate)
	first := <-raced
	if first.err != nil || len(first.doc.Root.Children) != 1 {
		t.Fatalf("the read that raced: %+v", first)
	}
	m.mu.Lock()
	kept := m.slots["v"][0]
	gen := m.srcGen["held"]
	m.mu.Unlock()
	landed := false
	if kept != nil {
		_, landed = kept.Landed()
	}
	if st := m.Stats(); st.StaleDiscards != 1 || kept == nil || !landed || kept.gen == gen {
		t.Fatalf("%d stale discards, slot %+v at source generation %d; want 1, and the raced calc of generation 0 in its slot", st.StaleDiscards, kept, gen)
	}

	again, _, err := m.Query(ctx, "v", q)
	if err != nil || !slices.Equal(again.Root.Children, first.doc.Root.Children) {
		t.Fatalf("the read after it: %v, %v; want the very picks of the raced read", again, err)
	}
	st := m.Stats()
	if src.fetches.Load() != 2 || st.CacheHits != 0 {
		t.Errorf("%d fetches, %d cache hits; want 2 and 0: a raced result is never served again", src.fetches.Load(), st.CacheHits)
	}
	if st.PartsRevalidated != 1 || st.AnswerPartsEvaluated != 1 || st.AnswerPartsReused != 1 {
		t.Errorf("%d parts revalidated, %d answers evaluated, %d reused; want 1, 1, 1: the refetch found the raced result's document",
			st.PartsRevalidated, st.AnswerPartsEvaluated, st.AnswerPartsReused)
	}
	if _, info, err := m.MaterializeInfo(ctx, "v"); err != nil || !strings.HasSuffix(info.Tag, `-0"`) {
		t.Errorf("tag %v (%v): want the generation the picks were evaluated at, 0", info, err)
	}
}

// stallingSource is a static source whose fetch, while stall is set, says it
// has begun on entered and then waits for its context to end.
type stallingSource struct {
	*StaticSource
	stall   atomic.Bool
	entered chan struct{}
}

func (s *stallingSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if s.stall.Load() {
		s.entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.StaticSource.Fetch(ctx)
}

// A read that leads a part's refetch and is cancelled mid-fetch keeps no
// result, but it leaves the predecessor the refetch was to be compared with:
// the next read, after a no-op invalidation or none, fetches the very
// document the part was evaluated from, carries it over, and the view's tag
// does not move.
func TestCancelledRefetchKeepsThePredecessor(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(deptDocN(0))
	if err != nil {
		t.Fatal(err)
	}
	static, err := NewStaticSource("held", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	src := &stallingSource{StaticSource: static, entered: make(chan struct{})}
	m := New("m")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("held", xmas.MustParse(`v = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
		t.Fatal(err)
	}
	read := func() string {
		t.Helper()
		_, stats, err := m.Read(context.Background(), Request{View: "v"})
		if err != nil || stats.Tag == "" {
			t.Fatalf("read: tag %q, %v", stats.Tag, err)
		}
		return stats.Tag
	}
	tag := read()
	for i := 0; i < 2; i++ {
		m.Invalidate() // nothing changed
		src.stall.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		go func() { <-src.entered; cancel() }()
		if _, _, err := m.Read(ctx, Request{View: "v"}); !errors.Is(err, context.Canceled) {
			t.Fatalf("the cancelled refetch: %v", err)
		}
		src.stall.Store(false)
		if i == 1 {
			m.Invalidate() // and nothing changed again
		}
		if got := read(); got != tag {
			t.Fatalf("round %d: the tag moved from %s to %s with no source changed", i, tag, got)
		}
	}
	if st := m.Stats(); st.PartsRevalidated != 2 {
		t.Errorf("%d parts revalidated; want 2: each refetch carried the part over", st.PartsRevalidated)
	}
}

// versionedSource serves a department whose every text says which version
// of the source it is.
type versionedSource struct {
	name    string
	dtd     *dtd.DTD
	version *atomic.Int64
}

func (s *versionedSource) Name() string     { return s.name }
func (s *versionedSource) Schema() *dtd.DTD { return s.dtd }
func (s *versionedSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := s.version.Load()
	doc, _, err := xmlmodel.Parse(fmt.Sprintf(`<department><name>%[1]s</name>
  <professor id="p"><firstName>%[1]s-v%[2]d</firstName><lastName>L</lastName>
    <publication id="x"><title>t</title><author>a</author><journal>J</journal></publication><teaches>c</teaches></professor>
  <gradStudent id="g"><firstName>G</firstName><lastName>M</lastName>
    <publication id="y"><title>t</title><author>a</author><conference>C</conference></publication></gradStudent>
</department>`, s.name, v))
	return doc, err
}

// tagLedger is everything one mediator's readers saw.
type tagLedger struct {
	mu     sync.Mutex
	bodies map[string]string
	// before[tag] is the least number of invalidations that had begun when a
	// read returned a document under tag: the tag's generations predate
	// every invalidation numbered above it.
	before map[string]int64
	// issued[tag] is the most invalidations that had returned when a read
	// that returned a document under tag began, and fresh the most issued[tag]
	// of a tag a conditional read was told is not modified: the mutator starts
	// invalidation k+1 only once every mediator's fresh has reached k.
	issued                                map[string]int64
	fresh                                 int64
	tagged, notModified, degraded, staled int
}

// The tag is sound. Readers, some cancelled mid-read, race a mutator that
// changes sources and then invalidates them, by source and wholesale, over a
// view whose parts fail (FaultSource), are dropped (BreakerSource) and come
// back stale (ReplicaSet): equal tags mean equal bytes; a degraded or stale
// document has no tag; a read begun after an invalidation returned is never
// told "not modified" about a tag from before it; and two mediators over the
// same view, fed the same history, never share a tag. Between two
// invalidations each mediator answers at least one conditional read "not
// modified" about a tag it issued after the first of them: the mutator waits
// for it, so that case is reached by construction, not by the scheduler.
func TestTagIsSound(t *testing.T) {
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected")
	var totals tagLedger
	for seed := int64(1); seed <= 6; seed++ {
		var clock atomic.Int64 // nanoseconds; the mutator advances it
		now := func() time.Time { return time.Unix(0, clock.Load()) }
		versions := map[string]*atomic.Int64{"plain": {}, "guarded": {}, "replicated": {}}
		faulty := func(name string, salt int64, p float64) Wrapper {
			return NewFaultSource(&versionedSource{name: name, dtd: d, version: versions[name]},
				RandomFaults(seed*100+salt, 4000, p, 150*time.Microsecond, boom)...)
		}
		build := func(name string, salt int64) *Mediator {
			m := New(name)
			replicas, err := NewReplicaSet("replicated", []Wrapper{faulty("replicated", salt+1, 0.3), faulty("replicated", salt+2, 0.3)},
				ReplicaSetOptions{HedgeDelay: -1, Clock: now, Health: HealthOptions{EjectAfter: 3, EjectCooldown: 2 * time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			var parts []ViewPart
			for _, w := range []Wrapper{
				faulty("plain", salt+3, 0.03),
				NewBreakerSource(faulty("guarded", salt+4, 0.1), BreakerOptions{Threshold: 1, Cooldown: 2 * time.Millisecond, Clock: now}),
				replicas,
			} {
				if err := m.AddSource(w); err != nil {
					t.Fatal(err)
				}
				parts = append(parts, ViewPart{Source: w.Name(),
					Query: xmas.MustParse(`u = SELECT X WHERE <department> X:<professor/> </department>`)})
			}
			if _, err := m.DefineUnionView("u", parts); err != nil {
				t.Fatal(err)
			}
			return m
		}
		meds := []*Mediator{build("one", 10), build("two", 20)}
		ledgers := []*tagLedger{
			{bodies: map[string]string{}, before: map[string]int64{}, issued: map[string]int64{}, fresh: -1},
			{bodies: map[string]string{}, before: map[string]int64{}, issued: map[string]int64{}, fresh: -1},
		}
		var invStarted, invDone atomic.Int64
		freshened := make(chan struct{}, 1) // a reader raised a ledger's fresh
		allFresh := func(k int64) bool {
			for _, led := range ledgers {
				led.mu.Lock()
				fresh := led.fresh
				led.mu.Unlock()
				if fresh < k {
					return false
				}
			}
			return true
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // the mutator: the only one that invalidates
			defer wg.Done()
			defer close(stop)
			rng := rand.New(rand.NewSource(seed))
			names := []string{"plain", "guarded", "replicated"}
			for i := 0; i < 80; i++ {
				for idle := 0; !allFresh(int64(i)); {
					select {
					case <-freshened:
					case <-time.After(time.Millisecond):
						// A breaker that opened or replicas that were ejected
						// since the last invalidation come back only as the
						// clock moves on.
						clock.Add(int64(time.Millisecond))
						if idle++; idle == 30000 {
							t.Errorf("seed %d: 30 s after invalidation %d, not both mediators have answered \"not modified\" since", seed, i)
							return
						}
					}
				}
				clock.Add(int64(time.Millisecond))
				invStarted.Add(1)
				if rng.Intn(5) == 0 {
					for _, v := range versions {
						v.Add(1)
					}
					for _, m := range meds {
						m.Invalidate()
					}
				} else {
					name := names[rng.Intn(len(names))]
					versions[name].Add(1)
					for _, m := range meds {
						if _, err := m.InvalidateSource(name); err != nil {
							t.Error(err)
						}
					}
				}
				invDone.Add(1)
			}
		}()
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
				held := []string{"", ""}
				for {
					select {
					case <-stop:
						return
					default:
					}
					// A warm read never blocks: at -cpu=1 the mutator, woken
					// by a reader, would otherwise wait out the time slice.
					runtime.Gosched()
					which := rng.Intn(2)
					m, led := meds[which], ledgers[which]
					ctx, cancel := context.WithCancel(context.Background())
					if rng.Intn(6) == 0 { // a reader that leaves mid-read
						time.AfterFunc(time.Duration(rng.Intn(120))*time.Microsecond, cancel)
					}
					ask := ""
					if rng.Intn(2) == 0 {
						ask = held[which]
					}
					begun := invDone.Load()
					doc, info, err := readDocument(ctx, m, "u", ask)
					ended := invStarted.Load()
					cancel()
					if err != nil {
						continue // an injected fault, or the reader's own cancellation
					}
					led.mu.Lock()
					switch {
					case info.NotModified:
						led.notModified++
						if doc != nil || info.Tag != ask || info.Degraded || len(info.StaleSources) > 0 {
							t.Errorf("seed %d: not modified with doc %v, info %+v, asked %s", seed, doc != nil, info, ask)
						}
						if limit, known := led.before[ask]; !known {
							t.Errorf("seed %d: not modified for a tag %s this mediator never sent", seed, ask)
						} else if begun > limit {
							t.Errorf("seed %d: a read begun after invalidation %d was told %s, a tag from before invalidation %d, still holds",
								seed, begun, ask, limit+1)
						}
						if issued := led.issued[ask]; issued > led.fresh {
							led.fresh = issued
							select {
							case freshened <- struct{}{}:
							default:
							}
						}
					case info.Degraded || len(info.StaleSources) > 0:
						if info.Degraded {
							led.degraded++
						} else {
							led.staled++
						}
						if info.Tag != "" {
							t.Errorf("seed %d: a degraded or stale document has the tag %s: %+v", seed, info.Tag, info)
						}
					case info.Tag == "":
						t.Errorf("seed %d: a complete, live document has no tag", seed)
					default:
						led.tagged++
						body := xmlmodel.Marshal(doc, 0)
						if was, seen := led.bodies[info.Tag]; seen && was != body {
							t.Errorf("seed %d: tag %s names two documents:\n%s\n%s", seed, info.Tag, was, body)
						}
						led.bodies[info.Tag] = body
						if limit, known := led.before[info.Tag]; !known || ended < limit {
							led.before[info.Tag] = ended
						}
						led.issued[info.Tag] = max(led.issued[info.Tag], begun)
						held[which] = info.Tag
					}
					led.mu.Unlock()
				}
			}(r)
		}
		wg.Wait()
		for tag := range ledgers[0].bodies {
			if _, shared := ledgers[1].bodies[tag]; shared {
				t.Errorf("seed %d: two mediators share the tag %s", seed, tag)
			}
		}
		for _, led := range ledgers {
			totals.tagged += led.tagged
			totals.notModified += led.notModified
			totals.degraded += led.degraded
			totals.staled += led.staled
		}
	}
	t.Logf("%d tagged documents, %d not modified, %d degraded, %d stale", totals.tagged, totals.notModified, totals.degraded, totals.staled)
	if totals.tagged == 0 || totals.notModified == 0 || totals.degraded == 0 || totals.staled == 0 {
		t.Error("the interleavings missed a case: every count above must be positive")
	}
}
