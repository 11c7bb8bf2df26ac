// Budget-degradation acceptance and property tests. They live in the
// external test package so they can drive tightness.CheckSoundness /
// tightness.Tighter against inference results (tightness imports infer, so
// an internal test file would cycle).
package infer_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/infer"
	"repro/internal/regex"
	"repro/internal/tightness"
	"repro/internal/xmas"
)

// blowupDTD declares the classic exponential shape: element m's content
// model is (x|y)*, x, (x|y)^k, whose minimal DFA needs 2^(k+1) states —
// unbudgeted subset construction would build all of them. m is optional
// under the root and its children are declared-but-unrealizable
// (self-recursive), so no finite document ever contains an m: document
// generation and validation never touch the blowup, only inference does.
// Which part of inference meets it depends on the query: the occurrence
// count behind blowupQuery's validity is read off the model's syntax and
// never compiles it, while blowupOverlapQuery's overlapping selections
// take the containment fallback, which compiles the model while the pair
// is under the fallback's size limit (k = 12 is; k = 26 is not).
func blowupDTD(k int) *dtd.DTD {
	d := dtd.New("site")
	tower := regex.Cat(regex.Rep(regex.Or(regex.Nm("x"), regex.Nm("y"))), regex.Nm("x"))
	for i := 0; i < k; i++ {
		tower = regex.Cat(tower, regex.Or(regex.Nm("x"), regex.Nm("y")))
	}
	d.Declare("site", dtd.M(regex.Cat(regex.Nm("info"), regex.Maybe(regex.Nm("m")))))
	d.Declare("m", dtd.M(tower))
	d.Declare("x", dtd.M(regex.Nm("x"))) // self-recursive: unrealizable
	d.Declare("y", dtd.M(regex.Nm("y")))
	d.Declare("info", dtd.PC())
	return d
}

// blowupQuery selects two distinct x children of m: identical selections,
// whose validity is a count of x positions.
const blowupQuery = `blow =
SELECT M
WHERE <site> M:<m> <x id=A/> <x id=B/> </m> </site>
AND A != B`

// blowupOverlapQuery selects an x and an x-or-y child of m: overlapping,
// non-identical selections, whose validity is decided by refinement and
// language containment on the compiled model.
const blowupOverlapQuery = `blow =
SELECT M
WHERE <site> M:<m> <x id=A/> <x|y id=B/> </m> </site>
AND A != B`

// TestBlowupDTDDegradesWithinBudget is the tentpole acceptance check: a
// source DTD engineered to explode the validity check's containment
// fallback (2^13 DFA states at k = 12, over the 4096 allowed) must, under
// a resource budget, return promptly with a Degraded result whose view
// DTDs are consistent and sound — not hang, not error, not produce garbage.
func TestBlowupDTDDegradesWithinBudget(t *testing.T) {
	d := blowupDTD(12)
	if errs := d.Check(); len(errs) > 0 {
		t.Fatalf("crafted DTD inconsistent: %v", errs)
	}
	q := xmas.MustParse(blowupOverlapQuery)

	bud := budget.New(budget.Limits{Deadline: 5 * time.Second, MaxStates: 4096})
	start := time.Now()
	res, err := infer.InferContext(budget.NewContext(context.Background(), bud), q, d)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted inference must degrade, not fail: %v", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("budgeted inference took %v; the budget did not bound the blowup", elapsed)
	}
	if !res.Degraded {
		t.Fatal("result must be marked Degraded")
	}
	if res.DegradedReason == "" {
		t.Error("DegradedReason must carry the exhaustion message")
	}
	if errs := res.DTD.Check(); len(errs) > 0 {
		t.Fatalf("degraded view DTD inconsistent: %v\n%s", errs, res.DTD)
	}
	if errs := res.SDTD.Check(); len(errs) > 0 {
		t.Fatalf("degraded view s-DTD inconsistent: %v\n%s", errs, res.SDTD)
	}

	// Soundness (Definition 3.1) sampled over real source documents: every
	// view of every generated document must satisfy the degraded DTDs.
	rep, err := tightness.CheckSoundness(q, d, res.DTD, res.SDTD, 40, 1)
	if err != nil {
		t.Fatalf("CheckSoundness: %v", err)
	}
	if rep.Violations != 0 {
		t.Fatalf("degraded view DTD is unsound: %d violations; first: %s", rep.Violations, rep.First)
	}
}

// TestBlowupDTDAnsweredExactlyByTheFold pins what reading the occurrence
// count off the syntax bought: the original blow-up, 2^27 DFA states at
// k = 26 with identical selections, is inferred exactly under a budget of
// 512 states — no compile, no degradation — and its answer is the
// unbudgeted one.
func TestBlowupDTDAnsweredExactlyByTheFold(t *testing.T) {
	d := blowupDTD(26)
	q := xmas.MustParse(blowupQuery)
	full, err := infer.Infer(q, d)
	if err != nil {
		t.Fatalf("unbudgeted inference: %v", err)
	}
	bud := budget.New(budget.Limits{MaxStates: 512})
	start := time.Now()
	res, err := infer.InferContext(budget.NewContext(context.Background(), bud), q, d)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("budgeted inference took %v", elapsed)
	}
	if err != nil {
		t.Fatalf("budgeted inference: %v", err)
	}
	if res.Degraded {
		t.Fatalf("result degraded (%s); the occurrence count must not need the budget", res.DegradedReason)
	}
	if got, want := res.DTD.String(), full.DTD.String(); got != want {
		t.Errorf("view DTD under the budget differs from the unbudgeted one:\n%s\nwant:\n%s", got, want)
	}
	if got, want := res.SDTD.String(), full.SDTD.String(); got != want {
		t.Errorf("view s-DTD under the budget differs from the unbudgeted one:\n%s\nwant:\n%s", got, want)
	}
}

// propDTD/propQuery are compact versions of the fuzz generators in
// fuzz_test.go (which the package boundary keeps out of reach): layered
// non-recursive DTDs and pick queries with occurrence side conditions —
// the query shape whose validity analysis exercises the budgeted automata
// path.
func propDTD(r *rand.Rand) *dtd.DTD {
	const layers, perLayer = 3, 2
	d := dtd.New("l0n0")
	var model func(layer, depth int) regex.Expr
	model = func(layer, depth int) regex.Expr {
		atom := func() regex.Expr { return regex.Nm(fmt.Sprintf("l%dn%d", layer, r.Intn(perLayer))) }
		if depth <= 0 {
			return atom()
		}
		switch r.Intn(8) {
		case 0:
			return regex.Cat(model(layer, depth-1), model(layer, depth-1))
		case 1:
			return regex.Or(model(layer, depth-1), model(layer, depth-1))
		case 2:
			return regex.Rep(model(layer, depth-1))
		case 3:
			return regex.Rep1(model(layer, depth-1))
		case 4:
			return regex.Maybe(model(layer, depth-1))
		default:
			return atom()
		}
	}
	d.Declare("l0n0", dtd.M(model(1, 2)))
	for i := 0; i < perLayer; i++ {
		d.Declare(fmt.Sprintf("l1n%d", i), dtd.M(model(2, 2)))
		d.Declare(fmt.Sprintf("l2n%d", i), dtd.PC())
	}
	return d
}

func propQuery(r *rand.Rand) *xmas.Query {
	pick := &xmas.Cond{Var: "P"}
	if r.Intn(3) > 0 {
		pick.Names = []string{fmt.Sprintf("l1n%d", r.Intn(2))}
	}
	// Occurrence side conditions below the pick drive atLeastOccurrences.
	for i, n := 0, r.Intn(3); i < n; i++ {
		pick.Children = append(pick.Children, &xmas.Cond{Names: []string{fmt.Sprintf("l2n%d", r.Intn(2))}})
	}
	return &xmas.Query{
		Name:    "propview",
		PickVar: "P",
		Root:    &xmas.Cond{Names: []string{"l0n0"}, Children: []*xmas.Cond{pick}},
	}
}

// TestBudgetedInferenceSoundAndNeverTighter is the soundness-preservation
// property: for random DTD/query pairs and a range of starvation levels,
// budgeted inference must (a) never error, (b) produce view DTDs that
// every sampled view document satisfies, and (c) produce DTDs no tighter
// than unbudgeted inference's — degradation may only loosen (Definition
// 3.2), never drop documents.
func TestBudgetedInferenceSoundAndNeverTighter(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const rounds = 80
	degradedSeen := 0
	for round := 0; round < rounds; round++ {
		d := propDTD(r)
		if errs := d.Check(); len(errs) > 0 {
			t.Fatalf("round %d: generated DTD inconsistent: %v", round, errs)
		}
		q := propQuery(r)
		if errs := q.Validate(); len(errs) > 0 {
			t.Fatalf("round %d: generated query invalid: %v", round, errs)
		}
		full, err := infer.Infer(q, d)
		if err != nil {
			t.Fatalf("round %d: unbudgeted inference: %v", round, err)
		}
		for _, maxStates := range []int64{1, 4, 32, 256} {
			bud := budget.New(budget.Limits{MaxStates: maxStates, MaxRefineSteps: 1 + int64(r.Intn(40))})
			res, err := infer.InferContext(budget.NewContext(context.Background(), bud), q, d)
			if err != nil {
				t.Fatalf("round %d states=%d: budgeted inference errored: %v\nquery:\n%s\ndtd:\n%s",
					round, maxStates, err, q, d)
			}
			if res.Degraded {
				degradedSeen++
			}
			if errs := res.DTD.Check(); len(errs) > 0 {
				t.Fatalf("round %d states=%d: degraded DTD inconsistent: %v", round, maxStates, errs)
			}
			// (c) never tighter than the full result: every document the
			// full DTD admits, the degraded DTD admits too.
			if ok, w, _ := tightness.Tighter(full.DTD, res.DTD, nil); !ok {
				t.Fatalf("round %d states=%d: degraded DTD is tighter than the full one (witness: %s)\nfull:\n%s\ndegraded:\n%s\nquery:\n%s\ndtd:\n%s",
					round, maxStates, w, full.DTD, res.DTD, q, d)
			}
			// (b) sampled soundness of the degraded DTDs.
			g, err := gen.New(d, gen.Options{Seed: int64(round), AssignIDs: true, MaxDepth: 8})
			if err != nil {
				continue // unrealizable root: nothing to sample
			}
			for i := 0; i < 4; i++ {
				doc := g.Document()
				view, err := engine.Eval(q, doc)
				if err != nil {
					t.Fatalf("round %d: eval: %v", round, err)
				}
				if err := res.DTD.Validate(view); err != nil {
					t.Fatalf("round %d states=%d doc %d: degraded view DTD unsound: %v\nquery:\n%s\ndtd:\n%s\ndegraded:\n%s",
						round, maxStates, i, err, q, d, res.DTD)
				}
				if err := res.SDTD.Satisfies(view); err != nil {
					t.Fatalf("round %d states=%d doc %d: degraded view s-DTD unsound: %v",
						round, maxStates, i, err)
				}
			}
		}
	}
	// Guard against a vacuous property: starvation at MaxStates=1 must
	// actually degrade a healthy share of rounds.
	if degradedSeen < rounds/4 {
		t.Fatalf("only %d/%d budgeted runs degraded; the property test has gone vacuous", degradedSeen, rounds*4)
	}
}
