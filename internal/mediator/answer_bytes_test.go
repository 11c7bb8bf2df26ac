package mediator_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mediator"
	"repro/internal/serve"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The differential test of answers sent as bytes: whatever a request's text
// finds in the plan memo and whatever bytes the part slots hold, the body
// internal/serve sends is byte for byte xmlmodel.MarshalElement of what
// QueryUnsimplified — no plan, no memo, no kept byte — answers on a mediator
// that is never asked a query; and the three counters say that the bytes are
// made once per document and part, and copied after. The fleet, the two
// versions of every source and the queries are answer_diff_test.go's.

// sent is one response of a handler, and what the mediator behind it counted
// while it was made.
type sent struct {
	status                    int
	body, tag, pruned         string
	rendered, copied          int64 // answer bytes serialized into a slot / sent from one
	reused, textHits, entries int64 // parts found in their memo, plans found by text, memo entries added
	analyses                  int64
}

func send(t *testing.T, m *mediator.Mediator, h http.Handler, method, path, body, ifNoneMatch string) sent {
	t.Helper()
	before := m.Stats()
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	if ifNoneMatch != "" {
		r.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	after := m.Stats()
	return sent{
		status: rec.Code, body: rec.Body.String(), tag: rec.Header().Get("ETag"), pruned: rec.Header().Get("X-Mix-Pruned-Sources"),
		rendered: after.AnswerBytesRendered - before.AnswerBytesRendered, copied: after.AnswerBytesCopied - before.AnswerBytesCopied,
		reused: after.AnswerPartsReused - before.AnswerPartsReused, textHits: after.PlanTextHits - before.PlanTextHits,
		entries: after.PlanCacheSize - before.PlanCacheSize, analyses: after.PlanMisses - before.PlanMisses,
	}
}

// childBytes is how many bytes of a document serialized at indent 2 are its
// root's children: all but the two tags, the line break after the first and
// the one that ends the document — and none of an empty root, `<r></r>`.
func childBytes(doc string, root string) int64 {
	if n := len(doc) - 2*len(root) - len("<>\n</>\n"); n > 0 {
		return int64(n)
	}
	return 0
}

// bytesSubject is one mediator under test and the handler in front of it.
type bytesSubject struct {
	name string
	m    *mediator.Mediator
	h    http.Handler
}

func bytesSubjects(t *testing.T, sources []*swapSource) []bytesSubject {
	var out []bytesSubject
	for _, pruning := range []bool{true, false} {
		m := fleetOver(t, sources, pruning)
		name := "pruning"
		if !pruning {
			name = "no pruning"
		}
		out = append(out, bytesSubject{name, m, serve.New(m, serve.WithTracer(nil))})
	}
	return out
}

func TestAnswerBytesEqualTheNaiveSerialization(t *testing.T) {
	ctx := context.Background()
	sources := swapFleet(t)
	ref := fleetOver(t, sources, false) // never asked a query: no plan, no memo, no bytes
	// One more reference per source, over that source alone: what the part
	// contributes to an answer is what it answers by itself.
	alone := make([]*mediator.Mediator, len(sources))
	for i := range sources {
		alone[i] = fleetOver(t, sources[i:i+1], false)
	}
	var views []*xmlmodel.Document
	for version := int32(0); version < 2; version++ {
		for _, s := range sources {
			s.cur.Store(version)
		}
		ref.Invalidate()
		view, err := ref.Materialize(ctx, fleetView)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, view)
	}
	subjects := bytesSubjects(t, sources)
	naive := func(on *mediator.Mediator, q *xmas.Query) string {
		t.Helper()
		on.Invalidate()
		doc, err := on.QueryUnsimplified(ctx, fleetView, q.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return xmlmodel.MarshalElement(doc.Root, 2)
	}

	var cov struct{ asked, byPart, fallback, notKept, nonEmpty, pruned, rendered, copied, partial int }
	for _, q := range fleetQueries(t, rand.New(rand.NewSource(27)), views, 160) {
		text := q.String()
		if back, err := xmas.Parse(text); err != nil { // a step of any name has no concrete syntax
			continue
		} else if !bytes.Equal(back.AppendKey(nil), q.AppendKey(nil)) {
			t.Fatalf("the generator's query does not survive its own text:\n%s", text)
		}
		cov.asked++
		want := naive(ref, q)
		kids := childBytes(want, q.Name)
		if kids > 0 {
			cov.nonEmpty++
		}
		for _, s := range subjects {
			post := func(when, body string) sent {
				t.Helper()
				got := send(t, s.m, s.h, http.MethodPost, "/views/"+fleetView+"/query", body, "")
				if got.status != http.StatusOK || got.body != want {
					t.Fatalf("%s, %s: status %d, the body differs from the naive serialization\nquery:\n%s\n got %q\nwant %q", s.name, when, got.status, text, got.body, want)
				}
				return got
			}
			first := post("the evaluating read", text)
			if first.textHits != 0 || first.analyses != 1 || first.rendered+first.copied != 0 {
				t.Fatalf("%s: a text never seen: %+v", s.name, first)
			}
			if first.pruned != "" {
				cov.pruned++
			}
			second := post("the first repeat (found once: streamed)", text)
			third := post("the second repeat (found twice: rendered)", text)
			fourth := post("the third repeat (copied)", text)
			kept, byPart := second.analyses == 0, second.reused > 0
			switch {
			case !kept: // one budget's opinion: no plan, no alias, no memo entry, no bytes
				cov.notKept++
				if first.entries != 0 || second.textHits+third.textHits+fourth.textHits != 0 || byPart {
					t.Fatalf("%s: a plan that is not kept left something behind: %+v then %+v\n%s", s.name, first, second, text)
				}
			case first.entries != 2 || second.textHits != 1 || third.textHits != 1 || fourth.textHits != 1:
				t.Fatalf("%s: a kept plan is one entry and its text another, found by the text from then on: %+v, %+v, %+v, %+v", s.name, first, second, third, fourth)
			case byPart:
				cov.byPart++
			default:
				cov.fallback++
			}
			// Everything the parts contribute is rendered exactly once, by the
			// second read that found it, and copied whole by the next.
			wantBytes := kids
			if !byPart {
				wantBytes = 0
			}
			if second.rendered+second.copied != 0 || third.rendered != wantBytes || third.copied != 0 || fourth.rendered != 0 || fourth.copied != wantBytes {
				t.Fatalf("%s: %d bytes of children (answered part by part: %v): second %+v, third %+v, fourth %+v\n%s", s.name, kids, byPart, second, third, fourth, text)
			}
			if wantBytes > 0 {
				cov.rendered++
			}

			// Another spelling of the query: parsed once, the same plan — no
			// analysis, the same memo entries, so the same bytes — and one more
			// name for it.
			other := "  " + strings.ReplaceAll(text, "\n", " \n ") + "\n"
			if spelled := post("another spelling", other); kept && (spelled.analyses != 0 || spelled.textHits != 0 || spelled.entries != 1 || spelled.copied != wantBytes || spelled.rendered != 0) {
				t.Fatalf("%s: another spelling of a kept query: %+v\n%s", s.name, spelled, other)
			}
			if again := post("the other spelling again", other); kept && (again.textHits != 1 || again.entries != 0 || again.copied != wantBytes) {
				t.Fatalf("%s: the other spelling again: %+v", s.name, again)
			}

			// An invalidation that changes nothing: nothing is rendered again.
			if s.name == "pruning" {
				if _, err := s.m.InvalidateSource(sources[cov.byPart%len(sources)].name); err != nil {
					t.Fatal(err)
				}
			} else {
				s.m.Invalidate()
			}
			if same := post("after an invalidation that changed nothing", text); same.rendered != 0 || same.copied != wantBytes {
				t.Fatalf("%s: after a no-op invalidation: %+v, want nothing rendered and %d bytes copied", s.name, same, wantBytes)
			}
		}
		// Each single part changes in turn, and stays changed: its bytes, and
		// no other part's, are made again — by the second read that finds them.
		for i, src := range sources {
			src.cur.Store(1 - src.cur.Load())
			want = naive(ref, q)
			kids, part := childBytes(want, q.Name), childBytes(naive(alone[i], q), q.Name)
			for _, s := range subjects {
				if _, err := s.m.InvalidateSource(src.name); err != nil {
					t.Fatal(err)
				}
				var reads [4]sent
				for j := range reads {
					reads[j] = send(t, s.m, s.h, http.MethodPost, "/views/"+fleetView+"/query", text, "")
					if reads[j].body != want {
						t.Fatalf("%s, read %d after %s changed: the body differs from the naive serialization\nquery:\n%s\n got %q\nwant %q", s.name, j, src.name, text, reads[j].body, want)
					}
				}
				if reads[0].reused == 0 && reads[1].reused == 0 {
					continue // not answered part by part: no bytes
				}
				if reads[0].pruned != "" && strings.Contains(","+reads[0].pruned+",", ","+src.name+",") {
					part = 0 // its part is not asked: whatever it holds, it contributes nothing
				}
				if reads[0].rendered+reads[1].rendered != 0 || reads[2].rendered != part || reads[3].rendered != 0 ||
					reads[0].copied != kids-part || reads[2].copied != kids-part || reads[3].copied != kids {
					t.Fatalf("%s: after %s alone changed (%d of %d bytes of children are its part's): %+v\n%s", s.name, src.name, part, kids, reads, text)
				}
				if part > 0 && part < kids {
					cov.partial++
				}
				if reads[3].copied > 0 {
					cov.copied++
				}
			}
		}
	}
	for what, n := range map[string]int{
		"queries answered part by part": cov.byPart, "kept plans answered over the whole view": cov.fallback, "plans not kept": cov.notKept,
		"non-empty answers": cov.nonEmpty, "answers with a pruned source": cov.pruned, "answers whose bytes were rendered": cov.rendered,
		"answers copied after a part changed": cov.copied, "changes that re-rendered one part among several": cov.partial,
		"queries asked at all": cov.asked - 95,
	} {
		if n < 5 {
			t.Errorf("vacuous: only %d %s (%+v)", n, what, cov)
		}
	}

	// Everything the slots hold goes when every document does.
	for _, src := range sources {
		src.cur.Store(1 - src.cur.Load())
	}
	for _, s := range subjects {
		if held := s.m.Stats().AnswerBytesHeld; held == 0 {
			t.Errorf("%s: vacuous: the slots hold no bytes", s.name)
		}
		s.m.Invalidate()
		send(t, s.m, s.h, http.MethodGet, "/views/"+fleetView, "", "")
		if held := s.m.Stats().AnswerBytesHeld; held != 0 {
			t.Errorf("%s: the slots hold %d bytes of documents no source serves any more", s.name, held)
		}
	}
}

// The same for GET /views/{name}: DTD prologue, document and ETag, over
// repeats, a no-op invalidation and a change of each single source.
func TestViewBytesEqualTheNaiveSerialization(t *testing.T) {
	ctx := context.Background()
	sources := swapFleet(t)
	ref := fleetOver(t, sources, false)
	alone := make([]*mediator.Mediator, len(sources))
	for i := range sources {
		alone[i] = fleetOver(t, sources[i:i+1], false)
	}
	document := func(on *mediator.Mediator) string {
		t.Helper()
		on.Invalidate()
		doc, err := on.Materialize(ctx, fleetView)
		if err != nil {
			t.Fatal(err)
		}
		return xmlmodel.MarshalElement(doc.Root, 2)
	}
	for _, s := range bytesSubjects(t, sources) {
		v, err := s.m.View(fleetView)
		if err != nil {
			t.Fatal(err)
		}
		want := document(ref)
		kids := childBytes(want, fleetView)
		get := func(when, ifNoneMatch string) sent {
			t.Helper()
			got := send(t, s.m, s.h, http.MethodGet, "/views/"+fleetView, "", ifNoneMatch)
			if ifNoneMatch == "" && (got.status != http.StatusOK || got.body != v.DTDText+want || got.tag == "") {
				t.Fatalf("%s, %s: status %d, tag %q, the body differs from the DTD and the naive serialization", s.name, when, got.status, got.tag)
			}
			return got
		}
		first, second, third, fourth := get("the evaluating read", ""), get("the first repeat", ""), get("the second repeat", ""), get("the third repeat", "")
		if first.rendered+first.copied+second.rendered+second.copied != 0 || third.rendered != kids || third.copied != 0 || fourth.rendered != 0 || fourth.copied != kids {
			t.Fatalf("%s: %d bytes of children: %+v, %+v, %+v, %+v", s.name, kids, first, second, third, fourth)
		}
		if second.tag != first.tag || third.tag != first.tag || fourth.tag != first.tag {
			t.Fatalf("%s: the tag moved over repeats: %q %q %q %q", s.name, first.tag, second.tag, third.tag, fourth.tag)
		}
		if nm := get("a conditional read", first.tag); nm.status != http.StatusNotModified || nm.body != "" || nm.copied+nm.rendered != 0 {
			t.Fatalf("%s: If-None-Match with the current tag: %+v", s.name, nm)
		}
		s.m.Invalidate()
		if same := get("after an invalidation that changed nothing", ""); same.tag != first.tag || same.rendered != 0 || same.copied != kids {
			t.Fatalf("%s: after a no-op invalidation: %+v, want the tag %q, nothing rendered and %d bytes copied", s.name, same, first.tag, kids)
		}
		tag := first.tag
		for i, src := range sources {
			src.cur.Store(1 - src.cur.Load())
			if _, err := s.m.InvalidateSource(src.name); err != nil {
				t.Fatal(err)
			}
			want = document(ref)
			kids, part := childBytes(want, fleetView), childBytes(document(alone[i]), fleetView)
			var reads [4]sent
			for j := range reads {
				reads[j] = get("after "+src.name+" changed", "")
			}
			if reads[0].tag == tag || reads[3].tag != reads[0].tag {
				t.Fatalf("%s: after %s changed the tag went %q -> %q -> %q", s.name, src.name, tag, reads[0].tag, reads[3].tag)
			}
			tag = reads[0].tag
			if reads[0].rendered+reads[1].rendered != 0 || reads[2].rendered != part || reads[3].rendered != 0 ||
				reads[0].copied != kids-part || reads[2].copied != kids-part || reads[3].copied != kids {
				t.Fatalf("%s: after %s alone changed (%d of %d bytes of children are its part's): %+v", s.name, src.name, part, kids, reads)
			}
		}
	}
}

// A text is a name for a plan made under one pruning setting: the same text
// under the other setting is another plan's.
func TestPlanTextIsKeyedByThePruningSetting(t *testing.T) {
	sources := swapFleet(t)
	m := fleetOver(t, sources, true)
	h := serve.New(m, serve.WithTracer(nil))
	path := "/views/" + fleetView + "/query"
	var text string
	for _, s := range sources { // a child only one family's entries have prunes the others
		for _, entry := range s.docs[1].Root.Children {
			for _, k := range entry.Children {
				candidate := `r = SELECT N WHERE <fleet> <entry> N:<` + k.Name + `/> </entry> </fleet>`
				if on := send(t, m, h, http.MethodPost, path, candidate, ""); text == "" && on.status == http.StatusOK && on.pruned != "" {
					text = candidate
				}
			}
		}
	}
	if text == "" {
		t.Fatal("vacuous: with pruning on no query prunes a source")
	}
	if again := send(t, m, h, http.MethodPost, path, text, ""); again.textHits != 1 || again.pruned == "" {
		t.Fatalf("the repeat: %+v", again)
	}
	m.SetPruning(false)
	if off := send(t, m, h, http.MethodPost, path, text, ""); off.status != http.StatusOK || off.pruned != "" || off.textHits != 0 || off.analyses != 1 {
		t.Errorf("the same text with pruning off was answered from the plan made with pruning on: %+v", off)
	}
}

// Readers of two queries and of the view itself, through the handler, race
// paced invalidations of a source that alternates between its two documents:
// every body is the naive serialization over one of the two versions,
// whatever bytes the slots held when it was put together, and once nothing
// moves any more it is the current version's. (Run under -race: the bytes are
// stored by whichever reader renders last.)
func TestConcurrentReadersGetBytesOfOneOfTheTwoVersions(t *testing.T) {
	ctx := context.Background()
	sources := swapFleet(t)
	m := fleetOver(t, sources, true)
	h := serve.New(m, serve.WithTracer(nil))
	v, err := m.View(fleetView)
	if err != nil {
		t.Fatal(err)
	}
	changing := sources[2]
	queries := []string{
		`r = SELECT X WHERE <fleet> X:<entry/> </fleet>`,
		`r = SELECT N WHERE <fleet> <entry> N:<name/> </entry> </fleet>`,
		"", // GET /views/fleet
	}
	current := func(i int) string {
		t.Helper()
		ref := fleetOver(t, sources, false)
		if queries[i] == "" {
			doc, err := ref.Materialize(ctx, fleetView)
			if err != nil {
				t.Fatal(err)
			}
			return v.DTDText + xmlmodel.MarshalElement(doc.Root, 2)
		}
		doc, err := ref.QueryUnsimplified(ctx, fleetView, xmas.MustParse(queries[i]))
		if err != nil {
			t.Fatal(err)
		}
		return xmlmodel.MarshalElement(doc.Root, 2)
	}
	read := func(i int) string {
		method, path := http.MethodPost, "/views/"+fleetView+"/query"
		if queries[i] == "" {
			method, path = http.MethodGet, "/views/"+fleetView
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(queries[i])))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	admissible := make([]map[string]bool, len(queries))
	for i := range queries {
		admissible[i] = map[string]bool{}
		for version := int32(0); version < 2; version++ {
			changing.cur.Store(version)
			admissible[i][current(i)] = true
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
		for i := 0; i < 80; i++ {
			// Paced: a version lives long enough for its bytes to be rendered
			// (the third read of a kind) and copied (the fourth).
			for seen := reads.Load(); reads.Load() < seen+int64(5*len(queries)) && !t.Failed(); {
				runtime.Gosched()
			}
			changing.cur.Store(int32(i % 2))
			if i%7 == 0 {
				m.Invalidate()
			} else if _, err := m.InvalidateSource(changing.name); err != nil {
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
				which := (r + i) % len(queries)
				if got := read(which); !admissible[which][got] {
					t.Errorf("reader %d, read %d: the body of read %d is neither version's", r, i, which)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	wg.Wait()
	for i := range queries {
		if got := read(i); got != current(i) {
			t.Errorf("read %d after the last invalidation: not the bytes of the documents now served", i)
		}
	}
	if st := m.Stats(); st.AnswerBytesRendered == 0 || st.AnswerBytesCopied == 0 || st.PlanTextHits == 0 {
		t.Errorf("vacuous: %d reads, %d bytes rendered, %d copied, %d plans found by text", reads.Load(), st.AnswerBytesRendered, st.AnswerBytesCopied, st.PlanTextHits)
	}
}

// A slot's memo forgets its oldest entry for a plan it has not seen, bytes
// and all: the plan that takes the place starts over — streamed, found once,
// rendered — and never sends what its predecessor's picks serialized to.
func TestReplacedMemoEntryLosesItsBytes(t *testing.T) {
	ctx := context.Background()
	sources := swapFleet(t)
	m, ref := fleetOver(t, sources, false), fleetOver(t, sources, false)
	h := serve.New(m, serve.WithTracer(nil))
	path := "/views/" + fleetView + "/query"
	ask := func(text string) sent {
		t.Helper()
		naive, err := ref.QueryUnsimplified(ctx, fleetView, xmas.MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		got := send(t, m, h, http.MethodPost, path, text, "")
		if want := xmlmodel.MarshalElement(naive.Root, 2); got.status != http.StatusOK || got.body != want {
			t.Fatalf("%s: status %d\n got %q\nwant %q", text, got.status, got.body, want)
		}
		return got
	}
	const entries = `r = SELECT X WHERE <fleet> X:<entry/> </fleet>`
	var last sent
	for i := 0; i < 4; i++ {
		last = ask(entries)
	}
	if last.copied == 0 {
		t.Fatal("vacuous: the first plan's bytes are not kept")
	}
	// 32 plans, as many as a memo remembers: the last of them takes the
	// place of the plan above, the oldest.
	names := func(i int) string {
		return "r" + strconv.Itoa(i) + ` = SELECT N WHERE <fleet> <entry> N:<name/> </entry> </fleet>`
	}
	for i := 0; i < 32; i++ {
		ask(names(i))
	}
	for i, want := range []struct{ rendered, copied bool }{{false, false}, {true, false}, {false, true}} {
		if got := ask(names(31)); (got.rendered > 0) != want.rendered || (got.copied > 0) != want.copied || got.reused == 0 {
			t.Errorf("repeat %d of the plan that took the oldest entry: %+v", i, got)
		}
	}
	if again := ask(entries); again.reused != 0 || again.copied+again.rendered != 0 {
		t.Errorf("the forgotten plan was not evaluated again: %+v", again)
	}
}
