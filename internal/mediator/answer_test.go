// Tests for answers kept per part (answerByPart, answerMemo): what a read
// evaluates, what it is spared, and how long a slot remembers. The
// differential over the load families is in answer_diff_test.go.
package mediator

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// teachersQuery decomposes: one root child condition, the pick below it.
const teachersQuery = `r = SELECT P WHERE <all> P:<professor><teaches/></professor> </all>`

// askTraced runs q against view "all" under a trace of its own and returns
// the answer with the query span's answer_reused / answer_evaluated
// attributes ("" when the read was not answered part by part).
func askTraced(t *testing.T, m *Mediator, q string) (answer, reused, evaluated string) {
	t.Helper()
	tracer := obs.NewTracer(1)
	ctx, root := tracer.StartRequest(context.Background(), new(obs.RequestContext), "test", "")
	res, _, err := m.Query(ctx, "all", xmas.MustParse(q))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tracer.Traces(0)[0].Span("query").Attrs {
		switch a.Key {
		case "answer_reused":
			reused = a.Value
		case "answer_evaluated":
			evaluated = a.Value
		}
	}
	return xmlmodel.MarshalElement(res.Root, -1), reused, evaluated
}

// A decomposable query is asked once per document: the first read evaluates
// every part in one walk, a repeat evaluates nothing, a read after an
// invalidation that changed nothing evaluates nothing, and a read after one
// source changed evaluates exactly that source's part — by the counters, by
// the query span's attributes, and with the answers a naive evaluation gives.
func TestAnswerByPartEvaluatesOnlyWhatChanged(t *testing.T) {
	ctx := context.Background()
	m, faults := newDeltaMediator(t, 6, "all")
	naive := func() string {
		t.Helper()
		doc, err := m.QueryUnsimplified(ctx, "all", xmas.MustParse(teachersQuery))
		if err != nil {
			t.Fatal(err)
		}
		return xmlmodel.MarshalElement(doc.Root, -1)
	}
	step := func(what, wantReused, wantEvaluated string) {
		t.Helper()
		before := m.Stats()
		got, reused, evaluated := askTraced(t, m, teachersQuery)
		if reused != wantReused || evaluated != wantEvaluated {
			t.Errorf("%s: answer_reused=%q answer_evaluated=%q, want %s and %s", what, reused, evaluated, wantReused, wantEvaluated)
		}
		after := m.Stats()
		if r, e := after.AnswerPartsReused-before.AnswerPartsReused, after.AnswerPartsEvaluated-before.AnswerPartsEvaluated; fmt.Sprint(r) != wantReused || fmt.Sprint(e) != wantEvaluated {
			t.Errorf("%s: counters moved by %d reused, %d evaluated; want %s and %s", what, r, e, wantReused, wantEvaluated)
		}
		if want := naive(); got != want {
			t.Errorf("%s: answer differs from the naive evaluation\n got %s\nwant %s", what, got, want)
		}
	}
	step("cold", "0", "6")
	step("repeat", "6", "0")
	if _, err := m.InvalidateSource("s2"); err != nil {
		t.Fatal(err)
	}
	step("after a no-op InvalidateSource", "6", "0")
	m.Invalidate()
	step("after a no-op Invalidate", "6", "0")
	setDeltaDoc(t, faults, 4, 44)
	if _, err := m.InvalidateSource("s4"); err != nil {
		t.Fatal(err)
	}
	step("after s4 changed", "5", "1")
	step("repeat after s4 changed", "6", "0")
	if !strings.Contains(naive(), "Prof44") {
		t.Error("vacuous: s4's new document does not show in the answer")
	}
}

// What does not decompose, or cannot be remembered, is evaluated over the
// whole view as before — and says nothing about parts: a root condition with
// two children, a recursive root step, a pick bound at the root, and a plan
// that is not kept (a recursive step elsewhere leaves a verdict Unknown).
func TestAnswerByPartFallsBack(t *testing.T) {
	m, _ := newDeltaMediator(t, 3, "all")
	const notKept = `r = SELECT T WHERE <all> <professor*> T:<teaches/> </professor> </all>`
	for _, q := range []string{
		`r = SELECT P WHERE <all> P:<professor/> <professor id=Q/> </all> AND P != Q`,
		`r = SELECT P WHERE <all*> P:<professor/> </all>`,
		`r = SELECT A WHERE A:<all> <professor/> </all>`,
		notKept,
	} {
		parsed := xmas.MustParse(q)
		if rootChildrenAlone(parsed) != (q == notKept) {
			t.Errorf("rootChildrenAlone(%s) = %v", q, q == notKept)
		}
		for i := 0; i < 2; i++ {
			got, reused, evaluated := askTraced(t, m, q)
			if reused != "" || evaluated != "" {
				t.Errorf("%s (ask %d): answered part by part (%s reused, %s evaluated)", q, i, reused, evaluated)
			}
			doc, err := m.QueryUnsimplified(context.Background(), "all", parsed)
			if err != nil {
				t.Fatal(err)
			}
			if want := xmlmodel.MarshalElement(doc.Root, -1); got != want || !strings.Contains(got, "<") {
				t.Errorf("%s (ask %d): got %s, want the naive %s", q, i, got, want)
			}
		}
	}
	if st := m.Stats(); st.AnswerPartsReused+st.AnswerPartsEvaluated != 0 || st.PlanCacheSize != 3 {
		t.Errorf("per-part counters moved by %d, %d plans kept; want 0 and 3", st.AnswerPartsReused+st.AnswerPartsEvaluated, st.PlanCacheSize)
	}
}

// TestRepeatQueryAllocsNoEngine is the ratchet on a warm repeat of a
// decomposable query over six parts: no engine walk (so nothing allocated in
// internal/engine), and in Mediator.Query a fixed handful — the plan key,
// the stats, the planned parts, the provenance, the result document and its
// one pre-sized child list.
func TestRepeatQueryAllocsNoEngine(t *testing.T) {
	ctx := context.Background()
	m, _ := newDeltaMediator(t, 6, "all")
	q := xmas.MustParse(teachersQuery)
	first, _, err := m.Query(ctx, "all", q)
	if err != nil || len(first.Root.Children) != 6 {
		t.Fatalf("first ask: %v, %d picks, want 6", err, len(first.Root.Children))
	}
	before := m.Stats()
	allocs := testing.AllocsPerRun(200, func() {
		res, _, err := m.Query(ctx, "all", q)
		if err != nil || !slices.Equal(res.Root.Children, first.Root.Children) {
			t.Fatalf("repeat: %v, picks %v", err, res)
		}
	})
	after := m.Stats()
	if after.AnswerPartsEvaluated != before.AnswerPartsEvaluated || after.AnswerPartsReused-before.AnswerPartsReused != 6*201 {
		t.Errorf("201 warm repeats: %d parts evaluated, %d reused; want 0 and %d",
			after.AnswerPartsEvaluated-before.AnswerPartsEvaluated, after.AnswerPartsReused-before.AnswerPartsReused, 6*201)
	}
	t.Logf("a warm six-part repeat: %v allocs", allocs)
	if allocs > 8 { // measured 7; 24 when every read concatenated the view and walked it
		t.Errorf("a warm six-part repeat costs %.0f allocations, want <= 8", allocs)
	}
}

// A slot remembers answerMemoPlans plans and forgets the oldest first; a
// forgotten plan is evaluated again and answers the same.
func TestAnswerMemoIsBounded(t *testing.T) {
	m, _ := newDeltaMediator(t, 2, "all")
	query := func(i int) string {
		return fmt.Sprintf(`r%d = SELECT P WHERE <all> P:<professor><teaches/></professor> </all>`, i)
	}
	var first string
	for i := 0; i <= answerMemoPlans; i++ { // one more than a slot holds
		got, _, evaluated := askTraced(t, m, query(i))
		if evaluated != "2" {
			t.Fatalf("plan %d, never asked: answer_evaluated=%s, want 2", i, evaluated)
		}
		if i == 0 {
			first = got
		}
	}
	if _, reused, _ := askTraced(t, m, query(1)); reused != "2" {
		t.Errorf("the second-oldest plan was forgotten: answer_reused=%s, want 2", reused)
	}
	got, _, evaluated := askTraced(t, m, query(0))
	if evaluated != "2" || got != first {
		t.Errorf("the oldest plan: answer_evaluated=%s (want 2: forgotten), same answer: %v", evaluated, got == first)
	}
}
