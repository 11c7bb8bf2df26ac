package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Invalidated is not changed: an invalidation makes every part ask its source
// again, and only an answer that differs is evaluated, re-tagged and shipped.
// The tests here hold that to the one thing that matters — every answer is
// the answer a mediator built from scratch gives — over the three ways a
// source says "unchanged": the same bytes from an untagged remote, a 304 from
// a lower mediator, and the same *Document from an in-memory wrapper.

// handlerTransport answers a client's requests from a handler, in memory.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	resp := rec.Result()
	resp.Request = r
	return resp, nil
}

// versionedDept is department i at version ver; the version shows in the
// professor's name, so no two versions serialize alike.
func versionedDept(i int, ver int64) string {
	return fmt.Sprintf(`<department><name>d%[1]d</name>
  <professor id="p%[1]d"><firstName>P%[1]d-v%[2]d</firstName><lastName>L</lastName>
    <publication id="x%[1]d"><title>t</title><author>a</author><journal>J</journal></publication><teaches>c%[1]d</teaches></professor>
  <gradStudent id="g%[1]d"><firstName>G</firstName><lastName>M</lastName>
    <publication id="y%[1]d"><title>t</title><author>a</author><conference>C</conference></publication></gradStudent>
</department>`, i, ver)
}

const unchangedSources = 3

// unchangedFixture is a node serving view "u" over three departments, and
// everything under it. levels are the handlers an invalidation is posted to,
// lowest first (the node itself last), with the names its sources go by at
// each; set puts source i at a version — the caller then invalidates, and
// runs no read meanwhile.
type unchangedFixture struct {
	upper  *mediator.Mediator
	levels []http.Handler
	names  [][]string
	set    func(i int, ver int64)
	// tick advances the clock the breaker and the replica set read.
	tick func()
}

func (f *unchangedFixture) node() http.Handler { return f.levels[len(f.levels)-1] }

// invalidate posts the invalidation to every level, lowest first: of the
// sources listed, or of everything when global.
func (f *unchangedFixture) invalidate(t *testing.T, global bool, sources []int) {
	t.Helper()
	for l, h := range f.levels {
		bodies := []string{""}
		if !global {
			bodies = bodies[:0]
			for _, i := range sources {
				bodies = append(bodies, fmt.Sprintf(`{"source": %q}`, f.names[l][i]))
			}
		}
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate", strings.NewReader(body)))
			if rec.Code != http.StatusNoContent && rec.Code != http.StatusOK {
				t.Fatalf("POST /invalidate %s at level %d: %d %s", body, l, rec.Code, rec.Body)
			}
		}
	}
}

func mustDefine(t testing.TB, m *mediator.Mediator, view string, sources []string, part func(i int) string) {
	t.Helper()
	var parts []mediator.ViewPart
	for i, s := range sources {
		parts = append(parts, mediator.ViewPart{Source: s, Query: xmas.MustParse(part(i))})
	}
	if _, err := m.DefineUnionView(view, parts); err != nil {
		t.Fatal(err)
	}
}

func professorsOf(root string) string {
	return fmt.Sprintf(`u = SELECT X WHERE <%s> X:<professor/> </%s>`, root, root)
}

// staticDepartments are three StaticSources whose Doc set replaces.
func staticDepartments(t testing.TB) ([]*mediator.StaticSource, func(i int, ver int64)) {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(i int, ver int64) *xmlmodel.Document {
		doc, _, err := xmlmodel.Parse(versionedDept(i, ver))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	var srcs []*mediator.StaticSource
	for i := 0; i < unchangedSources; i++ {
		src, err := mediator.NewStaticSource(fmt.Sprintf("s%d", i), parse(i, 0), d)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	return srcs, func(i int, ver int64) { srcs[i].Doc = parse(i, ver) }
}

// remoteSources registers, on m, one HTTPSource per view of the remote h
// serves, and returns their names.
func remoteSources(t *testing.T, m *mediator.Mediator, h http.Handler, views []string) []string {
	t.Helper()
	client := &http.Client{Transport: handlerTransport{h}}
	var names []string
	for _, v := range views {
		src, err := mediator.NewHTTPSource(client, "http://below", v, mediator.WithRetries(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSource(src); err != nil {
			t.Fatal(err)
		}
		names = append(names, src.Name())
	}
	return names
}

// newUntaggedFixture: the node's sources are HTTPSources on a remote that
// sends documents and no ETag, as the benchmark's leaf and most wrappers do.
func newUntaggedFixture(t *testing.T, _ int64) *unchangedFixture {
	var vers [unchangedSources]atomic.Int64
	leaf := http.NewServeMux()
	var views []string
	for i := 0; i < unchangedSources; i++ {
		i, view := i, fmt.Sprintf("s%d", i)
		views = append(views, view)
		leaf.HandleFunc("GET /views/"+view+"/dtd", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, d1Text) })
		leaf.HandleFunc("GET /views/"+view, func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, d1Text+"\n"+versionedDept(i, vers[i].Load()))
		})
	}
	m := mediator.New("node")
	names := remoteSources(t, m, leaf, views)
	mustDefine(t, m, "u", names, func(int) string { return professorsOf("department") })
	return &unchangedFixture{upper: m, levels: []http.Handler{New(m)}, names: [][]string{names},
		set: func(i int, ver int64) { vers[i].Store(ver) }, tick: func() {}}
}

// newStackFixture: a two-level HTTP stack. The lower mediator serves one view
// per department; the node's sources are HTTPSources on those views, which
// come under the lower mediator's ETags.
func newStackFixture(t *testing.T, _ int64) *unchangedFixture {
	srcs, set := staticDepartments(t)
	low := mediator.New("low")
	var lowNames, views []string
	for i, src := range srcs {
		if err := low.AddSource(src); err != nil {
			t.Fatal(err)
		}
		lowNames = append(lowNames, src.Name())
		views = append(views, fmt.Sprintf("d%d", i))
		if _, err := low.DefineView(src.Name(), xmas.MustParse(
			views[i]+` = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
			t.Fatal(err)
		}
	}
	lower := New(low)
	m := mediator.New("node")
	names := remoteSources(t, m, lower, views)
	mustDefine(t, m, "u", names, func(i int) string { return professorsOf(views[i]) })
	return &unchangedFixture{upper: m, levels: []http.Handler{lower, New(m)}, names: [][]string{lowNames, names},
		set: set, tick: func() {}}
}

// newStaticFixture: in-memory sources, one plain, one behind a breaker and
// one replicated, the last two over wrappers that fail now and then (seed 0:
// never) — so that parts are also dropped and served stale while sources
// change and do not.
func newStaticFixture(t *testing.T, seed int64) *unchangedFixture {
	srcs, set := staticDepartments(t)
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	faulty := func(i int, salt int64, p float64) mediator.Wrapper {
		if seed == 0 {
			return srcs[i]
		}
		return mediator.NewFaultSource(srcs[i], mediator.RandomFaults(seed*100+salt, 4000, p, 0, errors.New("injected"))...)
	}
	replicas, err := mediator.NewReplicaSet("s2", []mediator.Wrapper{faulty(2, 1, 0.3), faulty(2, 2, 0.3)},
		mediator.ReplicaSetOptions{HedgeDelay: -1, Clock: now,
			Health: mediator.HealthOptions{EjectAfter: 3, EjectCooldown: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	m := mediator.New("node")
	var names []string
	for _, w := range []mediator.Wrapper{
		srcs[0],
		mediator.NewBreakerSource(faulty(1, 3, 0.1), mediator.BreakerOptions{Threshold: 1, Cooldown: 2 * time.Millisecond, Clock: now}),
		replicas,
	} {
		if err := m.AddSource(w); err != nil {
			t.Fatal(err)
		}
		names = append(names, w.Name())
	}
	mustDefine(t, m, "u", names, func(int) string { return professorsOf("department") })
	return &unchangedFixture{upper: m, levels: []http.Handler{New(m)}, names: [][]string{names},
		set: set, tick: func() { clock.Add(int64(time.Millisecond)) }}
}

// answer is what one request to a node brought back.
type answer struct {
	status       int
	body, tag    string
	partial      bool // a part was dropped or served stale: not the reference's answer, and untagged
	asked, query string
}

var unchangedQueries = []string{
	`all = SELECT X WHERE <u> X:<professor/> </u>`,
	`one = SELECT X WHERE <u> X:<professor><teaches>c1</teaches></professor> </u>`,
}

// ask sends one read to the node: a query when query is set, GET /views/u
// otherwise, conditional when ifNoneMatch is set.
func ask(ctx context.Context, h http.Handler, query, ifNoneMatch string) answer {
	r := httptest.NewRequest(http.MethodGet, "/views/u", nil)
	if query != "" {
		r = httptest.NewRequest(http.MethodPost, "/views/u/query", strings.NewReader(query))
	}
	if ifNoneMatch != "" {
		r.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r.WithContext(ctx))
	hd := rec.Header()
	return answer{status: rec.Code, body: rec.Body.String(), tag: hd.Get("ETag"), asked: ifNoneMatch, query: query,
		partial: hd.Get("X-Mix-Degraded") != "" || hd.Get("X-Mix-Stale-Sources") != ""}
}

// The differential. Seeded sequences of {flip a source's version | leave it},
// {InvalidateSource | Invalidate}, then concurrent readers — GETs, conditional
// GETs and queries, some of them leaving mid-read — against each kind of
// fixture; before the readers start, a fixture of the same kind is built from
// scratch at the current versions, and every complete answer must be its
// answer, byte for byte. On top of that, TestTagIsSound's property: equal tags
// mean equal bytes; a dropped or stale part means no tag; a 304 is only ever
// given to a tag whose bytes are still the answer, so a flipped source means a
// different tag once its invalidation returned. And the point of it all must
// have happened: invalidations that found nothing changed left the tag alone.
func TestAnswersAcrossNoOpAndRealInvalidations(t *testing.T) {
	for _, kind := range []struct {
		name  string
		build func(t *testing.T, seed int64) *unchangedFixture
	}{
		{"untagged remote", newUntaggedFixture},
		{"two-level stack", newStackFixture},
		{"static, breaker and replicas", newStaticFixture},
	} {
		var reads, notModified, partial, keptTag, noOps int
		var revalidated int64
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fx := kind.build(t, seed)
			vers := make([]int64, unchangedSources)
			ledger := map[string]string{} // tag → the body served under it
			lastTag := ""
			for step := 0; step < 20; step++ {
				fx.tick()
				var flipped []int
				for i := range vers {
					if rng.Intn(4) == 0 {
						vers[i]++
						fx.set(i, vers[i])
						flipped = append(flipped, i)
					}
				}
				global := rng.Intn(2) == 0
				fx.invalidate(t, global, append(flipped, rng.Intn(unchangedSources)))

				ref := kind.build(t, 0)
				for i, v := range vers {
					ref.set(i, v)
				}
				want := map[string]string{"": ask(context.Background(), ref.node(), "", "").body}
				for _, q := range unchangedQueries {
					want[q] = ask(context.Background(), ref.node(), q, "").body
				}

				held := make([]string, 0, len(ledger))
				for tag := range ledger {
					held = append(held, tag)
				}
				var mu sync.Mutex
				var got []answer
				var wg sync.WaitGroup
				for r := 0; r < 4; r++ {
					wg.Add(1)
					go func(rng *rand.Rand) {
						defer wg.Done()
						for n := 0; n < 2; n++ {
							ctx, cancel := context.WithCancel(context.Background())
							if rng.Intn(5) == 0 { // a reader that leaves mid-read
								time.AfterFunc(time.Duration(rng.Intn(150))*time.Microsecond, cancel)
							}
							query, cond := "", ""
							switch op := rng.Intn(4); {
							case op < 2:
								query = unchangedQueries[op]
							case op == 2 && len(held) > 0:
								cond = held[rng.Intn(len(held))]
							}
							a := ask(ctx, fx.node(), query, cond)
							cancel()
							mu.Lock()
							got = append(got, a)
							mu.Unlock()
						}
					}(rand.New(rand.NewSource(seed*1000 + int64(step*10+r))))
				}
				wg.Wait()

				stepTag := ""
				for _, a := range got {
					reads++
					switch {
					case a.status == http.StatusNotModified:
						notModified++
						if a.tag != a.asked || ledger[a.asked] != want[""] {
							t.Errorf("%s, seed %d, step %d (flipped %v): 304 under %s to a reader holding %s, whose bytes are not the answer any more",
								kind.name, seed, step, flipped, a.tag, a.asked)
						}
						stepTag = a.tag
					case a.status != http.StatusOK:
						continue // the reader left, or a fault was injected
					case a.partial:
						partial++
						if a.tag != "" {
							t.Errorf("%s, seed %d, step %d: an answer with a dropped or stale part has the tag %s", kind.name, seed, step, a.tag)
						}
					case a.body != want[a.query]:
						t.Errorf("%s, seed %d, step %d (flipped %v, global %v): %q answered\n%s\na mediator built from scratch answers\n%s",
							kind.name, seed, step, flipped, global, a.query, a.body, want[a.query])
					case a.query != "":
						if a.tag != "" {
							t.Errorf("%s: a query answer has the tag %s", kind.name, a.tag)
						}
					case a.tag == "":
						t.Errorf("%s, seed %d, step %d: a complete, live document has no tag", kind.name, seed, step)
					default:
						if was, seen := ledger[a.tag]; seen && was != a.body {
							t.Errorf("%s, seed %d, step %d: tag %s names two documents", kind.name, seed, step, a.tag)
						}
						ledger[a.tag] = a.body
						stepTag = a.tag
					}
				}
				if len(flipped) == 0 {
					noOps++
					if stepTag != "" && stepTag == lastTag {
						keptTag++
					}
				}
				if stepTag != "" {
					lastTag = stepTag
				}
			}
			revalidated += fx.upper.Stats().PartsRevalidated
		}
		t.Logf("%s: %d reads, %d not modified, %d partial; %d of %d no-op invalidations left the tag alone; %d parts revalidated",
			kind.name, reads, notModified, partial, keptTag, noOps, revalidated)
		if notModified == 0 || keptTag == 0 || revalidated == 0 {
			t.Errorf("%s: the sequences missed a case: 304s, tags that outlived a no-op invalidation and revalidated parts must all be positive", kind.name)
		}
		if kind.name == "static, breaker and replicas" && partial == 0 {
			t.Errorf("%s: no part was ever dropped or served stale", kind.name)
		}
	}
}

// In a stack, an invalidation that changed nothing stops at the first level:
// the lower node refetches its sources and finds them unchanged, so its tags
// hold, so the upper node's refetches are answered 304, so nothing is
// evaluated there and its own tag holds — and whoever reads the upper node
// gets a 304 too. A source that did change costs exactly its own part.
func TestNoOpInvalidationAcrossTheStack(t *testing.T) {
	ctx := context.Background()
	fx := newStackFixture(t, 0)
	evaluated := func(s mediator.Stats) int64 { return s.PartsRecomputed - s.PartsRevalidated }

	first := ask(ctx, fx.node(), "", "")
	if first.status != http.StatusOK || first.tag == "" {
		t.Fatalf("first read: %d, tag %q", first.status, first.tag)
	}
	for _, global := range []bool{true, false} {
		before := fx.upper.Stats()
		fx.invalidate(t, global, []int{0, 1, 2})
		again := ask(ctx, fx.node(), "", first.tag)
		if again.status != http.StatusNotModified || again.tag != first.tag {
			t.Fatalf("global %v: after a no-op invalidation the holder of %s got %d under %s", global, first.tag, again.status, again.tag)
		}
		after := fx.upper.Stats()
		if got := after.NotModified - before.NotModified; got != unchangedSources {
			t.Errorf("global %v: the upper node's refetches met %d 304s, want one per source", global, got)
		}
		if got := evaluated(after) - evaluated(before); got != 0 {
			t.Errorf("global %v: the upper node evaluated %d parts over unchanged documents", global, got)
		}
		if got := after.PartsRevalidated - before.PartsRevalidated; got != unchangedSources {
			t.Errorf("global %v: %d parts revalidated, want %d", global, got, unchangedSources)
		}
		if after.UnchangedBodies != before.UnchangedBodies || after.StreamValidation.Documents != before.StreamValidation.Documents {
			t.Errorf("global %v: a body crossed the hop: %d unchanged bodies, %d documents validated",
				global, after.UnchangedBodies-before.UnchangedBodies, after.StreamValidation.Documents-before.StreamValidation.Documents)
		}
	}

	// One department changes: one body crosses, one part is evaluated.
	before := fx.upper.Stats()
	fx.set(1, 1)
	fx.invalidate(t, true, nil)
	changed := ask(ctx, fx.node(), "", first.tag)
	if changed.status != http.StatusOK || changed.tag == first.tag || !strings.Contains(changed.body, "P1-v1") {
		t.Fatalf("after a real change: %d under %s (was %s)\n%s", changed.status, changed.tag, first.tag, changed.body)
	}
	after := fx.upper.Stats()
	if nm, ev := after.NotModified-before.NotModified, evaluated(after)-evaluated(before); nm != unchangedSources-1 || ev != 1 {
		t.Errorf("one changed source: %d 304s and %d parts evaluated, want %d and 1", nm, ev, unchangedSources-1)
	}
}
