package mediator

import (
	"context"
	"encoding/binary"
	"errors"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The query-plan memo.
//
// What static analysis concludes about a query against a view — how the view
// DTD simplifies it (or refutes it), and which parts their DTDs prove it
// cannot touch — depends on the query, the view DTD and the part DTDs and on
// nothing else. A view's DTDs are fixed at definition and views cannot be
// redefined, so the conclusion is computed once per distinct (view, query)
// and every later request reads it: Mediator.plans is one cache.Cache (its
// LRU bound, its singleflight) owned by the mediator, and the analysis is its
// compute function — there is no second path beside it and no switch.
//
// A request that arrives as text (Mediator.Answer) looks its plan up by that
// text first: a kept plan is also in the memo under "t", the canonical key's
// prefix (pruning flag, view) and the raw body — put there, not computed, by
// the request that parsed the text. Two spellings of one query are two
// aliases of one plan.
//
// Nothing invalidates a plan. Invalidate and InvalidateSource announce that
// a source's *data* changed, which a plan never looked at; what is refetched
// is decided by the part slots' source-generation fence alone.
//
// What is never kept: a plan whose simplification failed, a plan in which
// some satisfiability verdict was Unknown, and a plan whose analysis
// exhausted its budget. A definitive verdict is a proof under any budget; an
// Unknown, like a simplification cut short, is one budget's opinion, and
// keeping it would shadow the proof a later, larger budget reaches — the
// rule, and the not-cached-on-error mechanism, of infer.SatisfiabilityCached.

// planMemoCapacity bounds the plans a mediator keeps. A plan is a simplified
// copy of its query and a mask over the view's parts; the distinct queries
// of a serving workload number in the dozens per view.
const planMemoCapacity = 1024

// queryPlan is the analysis of one query against one view. Once kept it is
// shared by every request that repeats the query and is never written again.
type queryPlan struct {
	// root is the answer's shell, engine.EmptyResult's: named, childless,
	// shared by every answer written under the plan and read only.
	root *xmlmodel.Element
	// prepared is what the engine evaluates: the simplified query, or the
	// request's own when the simplifier failed (simplifierError says how);
	// nil in a view's own plan (View.whole), which picks every member.
	prepared *engine.Prepared
	// byPart: the plan is kept and its query takes the view's members one at
	// a time (rootChildrenAlone), so the part slots remember its answer.
	byPart bool
	// unsatisfiable: the view DTD refutes the query; the answer is empty and
	// no part is looked at.
	unsatisfiable                  bool
	prunedConditions, droppedNames int
	simplifierError                string
	// keep masks the parts to materialize; pruned names the others, in part
	// order, each with the reason it is provably irrelevant.
	keep   []bool
	pruned []prunedPart
	// prunedSources names, sorted, the sources keep leaves no part of: what
	// every answer under this plan reports as its pruned sources.
	prunedSources []string
}

// answerMemoPlans bounds an answerMemo: benchmark/'s pools hold 15 to 20
// distinct queries per view (measured), and a view cycling through more hot
// plans than this is evaluated per read, as every query was before the memo.
const answerMemoPlans = 32

// answerMemo is what the last plans that asked picked from the children of
// one part result alone, the oldest replaced first (answerByPart). It is
// made with the children and handed on exactly as they are (evalPart), so it
// dies with their document. bytes[j], made with the array by the first render,
// is what picks[j] serialize to under an answer's root (answerIndent, depth
// 1); found has bit j set once entry j was found by a read that sends bytes.
// Mediator.mu guards it.
type answerMemo struct {
	plans [answerMemoPlans]*queryPlan
	picks [answerMemoPlans][]*xmlmodel.Element
	bytes *[answerMemoPlans][]byte
	found uint32
	next  int
}

// prunedPart is one part a plan leaves out of the materialization.
type prunedPart struct {
	source, reason string
}

// errPlanNotKept is what the memo's compute returns beside a plan that must
// not stay resident: the cache stores no errored computation, and a joiner
// of a failed flight starts over with its own analysis.
var errPlanNotKept = errors.New("mediator: query plan not kept")

// QueryTextError is xmas.Parse's error for the text given to Mediator.Answer.
type QueryTextError struct{ error }

// planFor returns the plan of q — when q is nil, of the query text spells —
// against v, from the memo when the query was analysed before. hit reports
// that this call ran no analysis (it found the plan resident, or joined the
// caller computing it), byText that it parsed nothing either. The pruning
// setting is part of both keys: a plan made with pruning on is not the plan
// of the same query with pruning off.
func (m *Mediator) planFor(ctx context.Context, v *View, q *xmas.Query, text []byte, pruning bool, limits budget.Limits) (plan *queryPlan, hit, byText bool, err error) {
	var buf [256]byte
	key := buf[:0]
	if pruning {
		key = append(key, 'p')
	} else {
		key = append(key, 'n')
	}
	key = binary.AppendUvarint(key, uint64(len(v.Name)))
	key = append(key, v.Name...)
	var alias string
	if q == nil {
		alias = "t" + string(key) + string(text) // no canonical key begins with t
		if cached, ok := m.plans.Get(alias); ok {
			m.stats.add(&m.stats.PlanTextHits, 1)
			return cached.(*queryPlan), true, true, nil
		}
		if q, err = xmas.Parse(string(text)); err != nil {
			return nil, false, false, QueryTextError{err}
		}
	}
	key = q.AppendKey(key)

	var fresh *queryPlan // set when this call ran the analysis itself
	cached, err := m.plans.GetOrCompute(string(key), func() (any, error) {
		// One budget for the whole analysis, from the mediator's limits (nil
		// when it sets none); analyse reads it from its context.
		bud := limits.Budget()
		plan, unknown, err := analyse(budget.NewContext(ctx, bud), v, q, pruning)
		if err != nil {
			return nil, err
		}
		fresh = plan
		if bud.Exhausted() != nil {
			m.stats.add(&m.stats.BudgetExhaustions, 1)
			unknown = true
		}
		if unknown || fresh.simplifierError != "" {
			fresh.byPart = false // no slot would be asked for its answer again
			return nil, errPlanNotKept
		}
		return fresh, nil
	})
	switch {
	case fresh != nil:
		plan = fresh
	case err != nil:
		return nil, false, false, err // ctx was cancelled, or the analysis this call joined panicked
	default:
		plan, hit = cached.(*queryPlan), true
	}
	if alias != "" && err == nil { // the plan is kept
		m.plans.Put(alias, plan)
	}
	return plan, hit, false, nil
}

// analyse is the memo's compute function, the whole static analysis of one
// query: simplify it against the view DTD, then test the simplified query's
// root conditions against each part's DTD — both under the budget ctx
// carries and only while ctx lives (its cancellation is the one error).
// unknown reports that some verdict was infer.VerdictUnknown.
func analyse(ctx context.Context, v *View, q *xmas.Query, pruning bool) (plan *queryPlan, unknown bool, err error) {
	plan = &queryPlan{root: engine.EmptyResult(q).Root}
	sq := q
	switch simplified, rep, err := infer.SimplifyQueryContext(ctx, q, v.DTD); {
	case ctx.Err() != nil:
		return nil, false, ctx.Err()
	case err != nil:
		plan.simplifierError = err.Error()
	case rep.Class == infer.Unsatisfiable:
		plan.unsatisfiable = true
		return plan, false, nil
	default:
		plan.prunedConditions, plan.droppedNames = rep.PrunedConditions, rep.DroppedNames
		sq = simplified
	}
	if plan.prepared, err = engine.Prepare(sq); err != nil {
		return nil, false, err
	}
	plan.byPart = rootChildrenAlone(sq)
	if !pruning {
		plan.keep = keepAll(v)
		return plan, false, nil
	}
	plan.keep, plan.pruned, unknown = pruneParts(ctx, v, sq)
	plan.prunedSources = prunedSources(v, plan.keep)
	return plan, unknown, nil
}
