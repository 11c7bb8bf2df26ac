package mediator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
