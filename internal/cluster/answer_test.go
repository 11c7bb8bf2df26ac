package cluster

import (
	"context"
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

// written is what a sends.
func written(t *testing.T, a mediator.Answer) string {
	t.Helper()
	var b strings.Builder
	if err := a.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// want is what an answer named name that picks <w> elements with these texts
// sends.
func want(name string, texts ...string) string {
	if len(texts) == 0 {
		return "<" + name + "></" + name + ">\n"
	}
	return "<" + name + ">\n  <w>" + strings.Join(texts, "</w>\n  <w>") + "</w>\n</" + name + ">\n"
}

// The picks are kept in the memo of the document the transport holds and die
// with it: a repeat over an unchanged document walks nothing (and is sent
// streamed, then rendered, then copied, as on the owner), a changed document
// starts an empty memo, a walk of a document the transport has moved on from
// is kept nowhere, and the memo holds at most 32 plans (the owner's bound).
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
	// A member's fetch, as every forwarded one is: only it holds runs.
	fetch := func() *xmlmodel.Document {
		t.Helper()
		doc, _, err := f.Fetch(mediator.NewForwardNote(ctx, []string{"self"}))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	// Plans as the forwarding node makes them: in its own mediator's memo.
	plans := mediator.New("beta-med")
	plan := func(text string) *mediator.Plan {
		t.Helper()
		p, err := plans.ParsePlan(context.Background(), []byte(text))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := plan(`r = SELECT X WHERE <v> X:<w/> </v>`)
	answer := func(step string, p *mediator.Plan, doc *xmlmodel.Document, wantHow, wantBody string) {
		t.Helper()
		before := n.Metrics()
		a, how, err := f.Answer(p, doc)
		if err != nil || how != wantHow || written(t, a) != wantBody {
			t.Fatalf("%s: %s (want %s), %q (want %q), %v", step, how, wantHow, written(t, a), wantBody, err)
		}
		after := n.Metrics()
		if r, e := after.AnswersReused-before.AnswersReused, after.AnswersEvaluated-before.AnswersEvaluated; (e == 1) != (wantHow == "evaluated") || r+e != 1 {
			t.Fatalf("%s: counters moved by %d reused, %d evaluated", step, r, e)
		}
	}

	d1 := fetch()
	answer("first", p, d1, "evaluated", want("r", "1"))
	answer("repeat", p, d1, "streamed", want("r", "1"))
	if fetch() != d1 {
		t.Fatal("an unchanged body brought another document")
	}
	answer("after an unchanged fetch", p, d1, "rendered", want("r", "1"))
	answer("and after that", p, d1, "copied", want("r", "1"))

	set("<v><w>2</w></v>")
	d2 := fetch()
	if held, _, _ := f.sources[0].Held(); d2 == d1 || held != d2 {
		t.Fatal("a changed document did not start a memo of its own")
	}
	// A reader still on d1 walks it and keeps the walk nowhere: d2's memo is
	// d2's alone, and it starts empty.
	answer("a walk of the document the transport moved on from", p, d1, "evaluated", want("r", "1"))
	answer("the changed document", p, d2, "evaluated", want("r", "2"))
	answer("the changed document again", p, d2, "streamed", want("r", "2"))
	answer("a reader still on the old document", p, d1, "evaluated", want("r", "1"))

	// Bounded: the oldest plan gives way to the newest.
	for i := 0; i < 32; i++ {
		q := plan(fmt.Sprintf(`r%d = SELECT X WHERE <v> X:<w/> </v>`, i))
		answer(fmt.Sprintf("plan %d, never asked", i), q, d2, "evaluated", want(fmt.Sprintf("r%d", i), "2"))
	}
	answer("the oldest plan, forgotten", p, d2, "evaluated", want("r", "2"))
	q := plan(`r31 = SELECT X WHERE <v> X:<w/> </v>`)
	answer("the newest plan, kept", q, d2, "streamed", want("r31", "2"))

	set("<v><w>3</w><w>4</w></v>")
	d3 := fetch()
	if held, _, _ := f.sources[0].Held(); held != d3 {
		t.Error("the memo after a change is not the new document's")
	}
	answer("the document after", q, d3, "evaluated", want("r31", "3", "4"))
	answer("the document after, again", q, d3, "streamed", want("r31", "3", "4"))
	empty := plan(`e = SELECT X WHERE <v> X:<x/> </v>`)
	answer("an answer with nothing in it", empty, d3, "evaluated", want("e"))
	answer("an answer with nothing in it, again", empty, d3, "streamed", want("e"))
	answer("an answer with nothing in it, rendered never", empty, d3, "streamed", want("e"))
}
