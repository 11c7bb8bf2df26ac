package mediator

import (
	"context"
	"encoding/binary"

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
// A request that arrives as text (Mediator.Read) looks its plan up by that
// text first: a kept plan is also in the memo under "t", the canonical key's
// prefix (pruning flag, view) and the raw body — put there, not computed, by
// the request that parsed the text. Two spellings of one query are two
// aliases of one plan. Only texts up to maxPlanText are kept under: a longer
// one is parsed for every request. A cluster node that does not hold the view
// a text is sent to plans it the same way, with no view (ParsePlan).
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
// rule of infer.SatisfiabilityCached. Such a plan answers the request that
// made it, and a request that joined its analysis analyses for itself
// (cache.Flight's start over).

// planMemoCapacity bounds the plans a mediator keeps. A plan is a simplified
// copy of its query and a mask over the view's parts; the distinct queries
// of a serving workload number in the dozens per view.
const planMemoCapacity = 1024

// maxPlanText bounds the text a plan is kept under: the memo holds at most
// 16 MiB of query text whatever is posted.
const maxPlanText = 16 << 10

// Plan is the analysis of one query against one view — or, made by
// ParsePlan for a node that holds no view, the query alone, parsed and
// prepared. Once kept it is shared by every request that repeats the query
// and is never written again.
type Plan struct {
	// root is the answer's shell, engine.EmptyResult's: named, childless,
	// shared by every answer written under the plan and read only.
	root *xmlmodel.Element
	// prepared is what the engine evaluates: the simplified query, or the
	// request's own when the simplifier failed (simplifierError says how);
	// nil in a view's own plan (View.whole), which picks every member.
	prepared *engine.Prepared
	// remember: the plan is kept where a later request finds it and its
	// query takes the view's members one at a time (rootChildrenAlone), so the
	// memo of each run — a part slot's, or a member's held run (heldRun) —
	// keeps what it picks below that run alone (answer.go).
	remember bool
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

// prunedPart is one part a plan leaves out of the materialization.
type prunedPart struct {
	source, reason string
}

// QueryTextError is xmas.Parse's error for the text given to Mediator.Read
// or ParsePlan: the request's fault, a 400.
type QueryTextError struct{ Err error }

func (e QueryTextError) Error() string { return e.Err.Error() }
func (e QueryTextError) Unwrap() error { return e.Err }

// planFor returns the plan of q — when q is nil, of the query text spells —
// against v (nil: no view, see ParsePlan), from the memo when the query was
// analysed before. hit reports that this call ran no analysis (it found the
// plan resident, or joined the caller computing it), byText that it parsed
// nothing either. The pruning setting is part of both keys: a plan made with
// pruning on is not the plan of the same query with pruning off.
func (m *Mediator) planFor(ctx context.Context, v *View, q *xmas.Query, text []byte, pruning bool, limits budget.Limits) (plan *Plan, hit, byText bool, err error) {
	var buf [256]byte
	key := buf[:0]
	switch {
	case v == nil:
		key = append(key, 'f')
	case pruning:
		key = append(key, 'p')
	default:
		key = append(key, 'n')
	}
	if v != nil {
		key = binary.AppendUvarint(key, uint64(len(v.Name)))
		key = append(key, v.Name...)
	}
	var aliasBuf [512]byte // a longer text's alias is built on the heap
	var alias []byte
	if q == nil {
		if len(text) <= maxPlanText {
			alias = append(append(append(aliasBuf[:0], 't'), key...), text...) // no canonical key begins with t
			if cached, ok := m.plans.GetBytes(alias); ok {
				m.stats.add(&m.stats.PlanTextHits, 1)
				return cached.(*Plan), true, true, nil
			}
		}
		if q, err = xmas.Parse(string(text)); err != nil {
			return nil, false, false, QueryTextError{Err: err}
		}
	}
	key = q.AppendKey(key)

	cached, led, err := m.plans.GetOrCompute(ctx, string(key), func() (any, bool, error) {
		// One budget for the whole analysis, from the mediator's limits (nil
		// when it sets none); analyse reads it from its context.
		bud := limits.Budget()
		plan, unknown, err := analyse(budget.NewContext(ctx, bud), v, q, pruning)
		if err != nil {
			return nil, false, err
		}
		if bud.Exhausted() != nil {
			m.stats.add(&m.stats.BudgetExhaustions, 1)
			unknown = true
		}
		keep := !unknown && plan.simplifierError == ""
		plan.remember = plan.remember && keep // no slot would be asked for its answer again
		if keep && alias != nil {
			m.plans.Put(string(alias), plan)
		}
		return plan, keep, nil
	})
	if err != nil {
		return nil, false, false, err // ctx ended, or the analysis this call joined panicked
	}
	if alias != nil && !led { // a kept plan, found or joined
		m.plans.Put(string(alias), cached)
	}
	return cached.(*Plan), !led, false, nil
}

// analyse is the memo's compute function, the whole static analysis of one
// query: simplify it against the view DTD, then test the simplified query's
// root conditions against each part's DTD — both under the budget ctx
// carries and only while ctx lives (its cancellation is the one error).
// unknown reports that some verdict was infer.VerdictUnknown.
func analyse(ctx context.Context, v *View, q *xmas.Query, pruning bool) (plan *Plan, unknown bool, err error) {
	plan = &Plan{root: engine.EmptyResult(q).Root}
	if v == nil { // no view to analyse against: the owner's document is walked
		plan.prepared, err = engine.Prepare(q)
		plan.remember = rootChildrenAlone(q)
		return plan, false, err
	}
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
	plan.remember = rootChildrenAlone(sq)
	if !pruning {
		plan.keep = keepAll(v)
		return plan, false, nil
	}
	plan.keep, plan.pruned, unknown = pruneParts(ctx, v, sq)
	plan.prunedSources = prunedSources(v, plan.keep)
	return plan, unknown, nil
}

// ParsePlan is the plan of a query text for a cluster node that does not hold
// the view it was sent to and answers over the owner's document (HTTPSource.Answer):
// found by its text as Read's is, or else parsed and prepared — there is no
// view to analyse it against — and kept.
func (m *Mediator) ParsePlan(ctx context.Context, text []byte) (*Plan, error) {
	plan, _, _, err := m.planFor(ctx, nil, nil, text, false, budget.Limits{})
	return plan, err
}
