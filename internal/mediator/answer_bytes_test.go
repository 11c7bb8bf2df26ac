package mediator_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mediator"
	"repro/internal/oracle"
	"repro/internal/xmlmodel"
)

// The counters of answers sent as bytes: rendered once per document and part,
// copied after. The fleet and its oracle are answer_diff_test.go's.

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
	return sentFrom(rec.Code, rec.Body.String(), rec.Header(), before, m.Stats())
}

// sentOf is a step of the oracle's check as send reports a response.
func sentOf(s *oracle.Step) sent { return sentFrom(s.Status, s.Body, s.Header, s.Before, s.After) }

func sentFrom(status int, body string, h http.Header, before, after mediator.Stats) sent {
	return sent{
		status: status, body: body, tag: h.Get("ETag"), pruned: h.Get("X-Mix-Pruned-Sources"),
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

// alone is what source i contributes to the answer to text ("": the view
// document) over the versions given: the reference's answer over it alone.
func alone(t *testing.T, o *oracle.Oracle, versions []int, i int, text, root string) int64 {
	t.Helper()
	only := slices.Repeat([]int{-1}, len(versions))
	only[i] = versions[i]
	_, body, err := o.Reference().Answer(only, fleetView, text)
	if err != nil {
		t.Fatal(err)
	}
	return childBytes(body, root)
}

// The differential test of answers sent as bytes. That every body is the
// reference's serialization, whatever a request's text finds in the plan memo
// and whatever bytes the part slots hold, is the oracle's check; here, that
// the counters say the bytes are made once per document and part — by the
// second read that finds the picks — and copied after, over repeats, another
// spelling, a no-op invalidation and a change of each single source.
func TestAnswerBytesEqualTheNaiveSerialization(t *testing.T) {
	o, _ := newOracle(t)
	subjects := []*oracle.Subject{subject(t, o, true), subject(t, o, false)}
	var features oracle.Coverage
	texts, err := o.Queries(rand.New(rand.NewSource(27)), fleetView, 100, &features)
	if err != nil {
		t.Fatal(err)
	}
	// The last is answered part by part, so the slots end holding its bytes.
	texts = append(texts, `v = SELECT X WHERE <fleet> X:<entry/> </fleet>`)
	var cov struct{ byPart, fallback, notKept, nonEmpty, pruned, rendered, copied, partial int }
	steps := map[*oracle.Subject][]sent{}
	err = o.Check(subjects, fleetView, texts, oracle.Tally{}, func(st *oracle.Step) error {
		s, got := st.Subject, sentOf(st)
		if st.Inval != oracle.InvalReal && st.Plan == oracle.PlanMiss || st.Inval == oracle.InvalReal && st.Read == oracle.ReadFirst {
			steps[s] = nil
		}
		steps[s] = append(steps[s], got)
		kids := childBytes(st.Want, "v")
		switch reads := steps[s]; {
		case st.Inval == oracle.InvalAll && st.Read == oracle.ReadFirst:
			// Everything the slots hold goes when every document does.
			if st.Before.AnswerBytesHeld == 0 || st.After.AnswerBytesHeld != 0 {
				return fmt.Errorf("%s: every document changed: the slots held %d bytes, then %d", s, st.Before.AnswerBytesHeld, st.After.AnswerBytesHeld)
			}
		case st.Inval == oracle.InvalNoOp: // the first ask, three repeats, two of another spelling, a no-op invalidation
			first, second, third, fourth, spelled, again, same := reads[0], reads[1], reads[2], reads[3], reads[4], reads[5], reads[6]
			if first.textHits != 0 || first.analyses != 1 || first.rendered+first.copied != 0 {
				return fmt.Errorf("%s: a text never seen: %+v", s, first)
			}
			if first.pruned != "" {
				cov.pruned++
			}
			if kids > 0 && s.Pruning {
				cov.nonEmpty++
			}
			kept, byPart := second.analyses == 0, second.reused > 0
			switch {
			case !kept: // one budget's opinion: no plan, no alias, no memo entry, no bytes
				cov.notKept++
				if first.entries != 0 || second.textHits+third.textHits+fourth.textHits != 0 || byPart {
					return fmt.Errorf("%s: a plan that is not kept left something behind: %+v then %+v\n%s", s, first, second, st.Query)
				}
			case first.entries != 2 || second.textHits != 1 || third.textHits != 1 || fourth.textHits != 1:
				return fmt.Errorf("%s: a kept plan is one entry and its text another, found by the text from then on: %+v, %+v, %+v, %+v", s, first, second, third, fourth)
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
				return fmt.Errorf("%s: %d bytes of children (answered part by part: %v): second %+v, third %+v, fourth %+v\n%s", s, kids, byPart, second, third, fourth, st.Query)
			}
			if wantBytes > 0 {
				cov.rendered++
			}
			// Another spelling of the query: parsed once, the same plan — no
			// analysis, the same memo entries, so the same bytes — and one more
			// name for it.
			if kept && (spelled.analyses != 0 || spelled.textHits != 0 || spelled.entries != 1 || spelled.copied != wantBytes || spelled.rendered != 0) {
				return fmt.Errorf("%s: another spelling of a kept query: %+v", s, spelled)
			}
			if kept && (again.textHits != 1 || again.entries != 0 || again.copied != wantBytes) {
				return fmt.Errorf("%s: the other spelling again: %+v", s, again)
			}
			// An invalidation that changes nothing: nothing is rendered again.
			if same.rendered != 0 || same.copied != wantBytes {
				return fmt.Errorf("%s: after a no-op invalidation: %+v, want nothing rendered and %d bytes copied", s, same, wantBytes)
			}
		case st.Inval == oracle.InvalReal && st.Read == oracle.ReadCopied:
			// The source changed, and stays changed: its bytes, and no other
			// part's, are made again — by the second read that finds them.
			if reads[0].reused == 0 && reads[1].reused == 0 {
				return nil // not answered part by part: no bytes
			}
			part := alone(t, o, st.Versions, st.Changed, st.Query, "v")
			if strings.Contains(","+reads[0].pruned+",", ","+s.Source(st.Changed)+",") {
				part = 0 // its part is not asked: whatever it holds, it contributes nothing
			}
			if reads[0].rendered+reads[1].rendered != 0 || reads[2].rendered != part || reads[3].rendered != 0 ||
				reads[0].copied != kids-part || reads[2].copied != kids-part || reads[3].copied != kids {
				return fmt.Errorf("%s: after source %d alone changed (%d of %d bytes of children are its part's): %+v\n%s", s, st.Changed, part, kids, reads, st.Query)
			}
			if part > 0 && part < kids {
				cov.partial++
			}
			if reads[3].copied > 0 {
				cov.copied++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for what, n := range map[string]int{
		"queries answered part by part": cov.byPart, "kept plans answered over the whole view": cov.fallback, "plans not kept": cov.notKept,
		"non-empty answers": cov.nonEmpty, "answers with a pruned source": cov.pruned, "answers whose bytes were rendered": cov.rendered,
		"answers copied after a part changed": cov.copied, "changes that re-rendered one part among several": cov.partial,
	} {
		if n < 5 {
			t.Errorf("vacuous: only %d %s (%+v)", n, what, cov)
		}
	}
}

// The same for GET /views/{name}: the oracle checks the DTD prologue, the
// document and that a tag names one body; here, that the tag holds over
// repeats and a no-op invalidation, moves with each single source's change,
// and that the part's bytes are rendered once and copied after.
func TestViewBytesEqualTheNaiveSerialization(t *testing.T) {
	o, _ := newOracle(t)
	subjects := []*oracle.Subject{subject(t, o, true), subject(t, o, false)}
	steps := map[*oracle.Subject][]sent{}
	tag := map[*oracle.Subject]string{}
	err := o.Check(subjects, fleetView, []string{""}, oracle.Tally{}, func(st *oracle.Step) error {
		s, got := st.Subject, sentOf(st)
		if st.Inval == oracle.InvalNone && st.Read == oracle.ReadFirst || st.Inval == oracle.InvalReal && st.Read == oracle.ReadFirst {
			steps[s] = nil
		}
		steps[s] = append(steps[s], got)
		_, doc, err := o.Reference().Answer(st.Versions, fleetView, "")
		if err != nil {
			return err
		}
		kids := childBytes(doc, fleetView)
		switch reads := steps[s]; {
		case st.Inval == oracle.InvalNoOp: // four reads, a conditional one, a no-op invalidation
			first, second, third, fourth, nm, same := reads[0], reads[1], reads[2], reads[3], reads[4], reads[5]
			if first.rendered+first.copied+second.rendered+second.copied != 0 || third.rendered != kids || third.copied != 0 || fourth.rendered != 0 || fourth.copied != kids {
				return fmt.Errorf("%s: %d bytes of children: %+v, %+v, %+v, %+v", s, kids, first, second, third, fourth)
			}
			if second.tag != first.tag || third.tag != first.tag || fourth.tag != first.tag {
				return fmt.Errorf("%s: the tag moved over repeats: %q %q %q %q", s, first.tag, second.tag, third.tag, fourth.tag)
			}
			if nm.status != http.StatusNotModified || nm.body != "" || nm.copied+nm.rendered != 0 {
				return fmt.Errorf("%s: If-None-Match with the current tag: %+v", s, nm)
			}
			if same.tag != first.tag || same.rendered != 0 || same.copied != kids {
				return fmt.Errorf("%s: after a no-op invalidation: %+v, want the tag %q, nothing rendered and %d bytes copied", s, same, first.tag, kids)
			}
			tag[s] = first.tag
		case st.Inval == oracle.InvalReal && st.Read == oracle.ReadCopied:
			if reads[0].tag == tag[s] || reads[3].tag != reads[0].tag {
				return fmt.Errorf("%s: after source %d changed the tag went %q -> %q -> %q", s, st.Changed, tag[s], reads[0].tag, reads[3].tag)
			}
			tag[s] = reads[0].tag
			part := alone(t, o, st.Versions, st.Changed, "", fleetView)
			if reads[0].rendered+reads[1].rendered != 0 || reads[2].rendered != part || reads[3].rendered != 0 ||
				reads[0].copied != kids-part || reads[2].copied != kids-part || reads[3].copied != kids {
				return fmt.Errorf("%s: after source %d alone changed (%d of %d bytes of children are its part's): %+v", s, st.Changed, part, kids, reads)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A text is a name for a plan made under one pruning setting: the same text
// under the other setting is another plan's.
func TestPlanTextIsKeyedByThePruningSetting(t *testing.T) {
	o, fleet := newOracle(t)
	s := subject(t, o, true)
	m, h := s.Mediator, s.Handler
	path := "/views/" + fleetView + "/query"
	var text string
	for _, src := range fleet.Sources { // a child only one family's entries have prunes the others
		doc, _, err := xmlmodel.Parse(src.Docs[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range doc.Root.Children {
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
	o, _ := newOracle(t)
	s := subject(t, o, true)
	texts := []string{
		`r = SELECT X WHERE <fleet> X:<entry/> </fleet>`,
		`r = SELECT N WHERE <fleet> <entry> N:<name/> </entry> </fleet>`,
		"", // GET /views/fleet
	}
	// Paced: a version lives long enough for its bytes to be rendered (the
	// third read of a kind) and copied (the fourth).
	reads := raceReaders(t, o, s, texts, 80, 5*len(texts), func(text string) string {
		method, path := http.MethodPost, "/views/"+fleetView+"/query"
		if text == "" {
			method, path = http.MethodGet, "/views/"+fleetView
		}
		rec := httptest.NewRecorder()
		s.Handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(text)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	})
	if st := s.Mediator.Stats(); st.AnswerBytesRendered == 0 || st.AnswerBytesCopied == 0 || st.PlanTextHits == 0 {
		t.Errorf("vacuous: %d reads, %d bytes rendered, %d copied, %d plans found by text", reads, st.AnswerBytesRendered, st.AnswerBytesCopied, st.PlanTextHits)
	}
}

// A slot's memo forgets its oldest entry for a plan it has not seen, bytes
// and all: the plan that takes the place starts over — streamed, found once,
// rendered — and never sends what its predecessor's picks serialized to.
func TestReplacedMemoEntryLosesItsBytes(t *testing.T) {
	o, _ := newOracle(t)
	s := subject(t, o, false)
	m, h := s.Mediator, s.Handler
	path := "/views/" + fleetView + "/query"
	ask := func(text string) sent {
		t.Helper()
		_, want, err := o.Reference().Answer(o.Versions(), fleetView, text)
		if err != nil {
			t.Fatal(err)
		}
		got := send(t, m, h, http.MethodPost, path, text, "")
		if got.status != http.StatusOK || got.body != want {
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
