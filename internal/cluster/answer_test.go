package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mediator"
	"repro/internal/xmlmodel"
)

const listDTD = `<!DOCTYPE v [
  <!ELEMENT v (w*)>
  <!ELEMENT w (#PCDATA)>
]>`

// changingPeer fakes an owner of view v whose document is whatever body
// holds now, sent without an ETag: the forward revalidates it by its bytes.
func changingPeer(t *testing.T, body *atomic.Pointer[string]) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/views/v/dtd", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, listDTD) })
	mux.HandleFunc("/views/v", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, listDTD+"\n"+*body.Load()) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// texts returns the text of each picked element under root.
func texts(root *xmlmodel.Element) string {
	var out []string
	for _, c := range root.Children {
		out = append(out, c.Text)
	}
	return strings.Join(out, ",")
}

// A text is planned once: a repeat finds the plan, a text that does not parse
// is refused as the request's fault every time and kept never, and a text
// too long to be worth its bytes is planned per request.
func TestForwardPlansOncePerText(t *testing.T) {
	n := fwdNode(t, []string{"alpha"}, map[string]string{"alpha": "http://unused"})
	const text = `r = SELECT X WHERE <v> X:<w/> </v>`
	p, err := n.Plan(text)
	if err != nil || !p.kept || p.root.Name != "r" || len(p.root.Children) != 0 {
		t.Fatalf("first plan: %+v, %v", p, err)
	}
	if again, err := n.Plan(strings.Clone(text)); err != nil || again != p {
		t.Fatalf("the same text again: another plan %v, %v", again != p, err)
	}
	for i := 0; i < 2; i++ {
		_, err := n.Plan(`r = SELECT X WHERE <v> X:<w/>`)
		var textErr mediator.QueryTextError
		if !errors.As(err, &textErr) {
			t.Fatalf("unparseable text, try %d: %v is no QueryTextError", i, err)
		}
	}
	long := text + strings.Repeat(" ", maxForwardPlanText)
	first, err := n.Plan(long)
	if err != nil || first.kept {
		t.Fatalf("an over-long text: kept %v, %v", first.kept, err)
	}
	if again, _ := n.Plan(long); again == first {
		t.Error("an over-long text found a kept plan")
	}
	if m := n.Metrics(); m.PlanHits != 1 || n.plans.Len() != 1 {
		t.Errorf("%d plan hits and %d plans held; want 1 and 1 — only the good short text is kept", m.PlanHits, n.plans.Len())
	}
}

// The picks are kept beside the document the transport holds and die with
// it: a repeat over an unchanged document walks nothing, a changed one starts
// an empty memo, a walk of a document the transport has moved on from is
// kept nowhere, and the memo holds at most heldAnswerPlans answers.
func TestForwardAnswersFollowTheDocument(t *testing.T) {
	var body atomic.Pointer[string]
	set := func(s string) { body.Store(&s) }
	set("<v><w>1</w></v>")
	owner := changingPeer(t, &body)
	n := fwdNode(t, []string{"alpha"}, map[string]string{"alpha": owner.URL})
	ctx := context.Background()
	f, err := n.Forward(ctx, "v")
	if err != nil {
		t.Fatal(err)
	}
	fetch := func() *xmlmodel.Document {
		t.Helper()
		doc, _, err := f.Fetch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	p, err := n.Plan(`r = SELECT X WHERE <v> X:<w/> </v>`)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(step string, doc *xmlmodel.Document, wantReused bool, want string) *xmlmodel.Element {
		t.Helper()
		before := n.Metrics()
		root, reused, err := f.Answer(p, doc)
		if err != nil || reused != wantReused || root.Name != "r" || texts(root) != want {
			t.Fatalf("%s: reused %v (want %v), picks %q (want %q), %v", step, reused, wantReused, texts(root), want, err)
		}
		after := n.Metrics()
		if r, e := after.AnswersReused-before.AnswersReused, after.AnswersEvaluated-before.AnswersEvaluated; (r == 1) != wantReused || r+e != 1 {
			t.Fatalf("%s: counters moved by %d reused, %d evaluated", step, r, e)
		}
		return root
	}

	d1 := fetch()
	first := answer("first", d1, false, "1")
	if again := answer("repeat", d1, true, "1"); again != first {
		t.Error("a reused answer is not the kept root")
	}
	if fetch() != d1 {
		t.Fatal("an unchanged body brought another document")
	}
	answer("after an unchanged fetch", d1, true, "1")

	set("<v><w>2</w></v>")
	d2 := fetch()
	if d2 == d1 || f.answers.Load().doc != d2 || len(f.answers.Load().kept) != 0 {
		t.Fatal("a changed document did not start an empty memo")
	}
	// A reader still on d1 walks it and keeps the walk nowhere: d2's memo is
	// d2's alone.
	answer("a walk of the document the transport moved on from", d1, false, "1")
	answer("the changed document", d2, false, "2")
	answer("the changed document again", d2, true, "2")
	answer("a reader still on the old document", d1, false, "1")

	// Bounded: the oldest plan gives way to the newest.
	for i := 0; i < heldAnswerPlans; i++ {
		q, err := n.Plan(fmt.Sprintf(`r%d = SELECT X WHERE <v> X:<w/> </v>`, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, reused, _ := f.Answer(q, d2); reused {
			t.Fatalf("plan %d was never asked, yet reused", i)
		}
	}
	if held := f.answers.Load(); len(held.kept) != heldAnswerPlans {
		t.Errorf("%d answers held beside one document, want %d", len(held.kept), heldAnswerPlans)
	}
	answer("the oldest plan, forgotten", d2, false, "2")

	set("<v><w>3</w><w>4</w></v>")
	d3 := fetch()
	if held := f.answers.Load(); held.doc != d3 || len(held.kept) != 0 {
		t.Errorf("the memo after a change holds document %p with %d answers, want the new one and none", held.doc, len(held.kept))
	}
	answer("the document after", d3, false, "3,4")
}
