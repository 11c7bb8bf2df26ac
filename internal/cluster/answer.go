package cluster

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// A forwarded query is planned once per text and picked once per held
// document — the owner's two memos (Mediator.planFor's text alias, the part
// slots' answerMemo), kept on the forwarding side of the hop.
//
// Node.plans maps the raw text of a forwarded query to its Plan: parsed and
// prepared once, shared by every request that sends the text again. Like the
// owner's plan memo it is never invalidated — a plan is a function of the
// text alone — and it keeps no failure: a text that does not parse (400) or
// that the engine refuses (500) is asked about again next time.
//
// Forward.answers keeps, beside the document the transport last handed out,
// what the last plans evaluated over that document picked. A Fetch that hands
// out another *Document starts an empty memo for it, and the old memo — with
// the old document — goes: the same pointer is how a transport says the
// owner's document is unchanged (Wrapper), so picks are only ever reused over
// the very document they were walked from. Replicated and last-known-good
// documents follow the same rule; nothing here knows they exist.

// forwardPlanCapacity bounds the plans a node keeps, and maxForwardPlanText
// the text a kept plan is found by: a node holds at most 4 MiB of query text
// whatever is posted. A longer text is planned for each request that sends it.
const (
	forwardPlanCapacity = 256
	maxForwardPlanText  = 16 << 10
)

// heldAnswerPlans bounds the answers kept beside one document, as
// answerMemoPlans bounds a part slot's on the owner.
const heldAnswerPlans = 32

// Plan is a forwarded query made ready to evaluate over any owner document.
// Never written once made; shared by every request that sends its text.
type Plan struct {
	prepared *engine.Prepared
	// root is the answer's shell, engine.EmptyResult's: the answer of a
	// query that picks nothing, and what every answer's root copies.
	root *xmlmodel.Element
	// kept: the node's memo holds the plan, so a later request can present
	// it again and its answers are worth keeping.
	kept bool
}

// Plan returns the plan of a forwarded query's text, from the node's memo
// when the text was planned before. A text that does not parse fails with a
// mediator.QueryTextError; one the engine refuses, with the engine's error.
// Neither is kept. Two first requests for one text may both plan it; the
// first Put stays.
func (n *Node) Plan(text string) (*Plan, error) {
	if p, ok := n.plans.Get(text); ok {
		n.planHits.Add(1)
		return p.(*Plan), nil
	}
	q, err := xmas.Parse(text)
	if err != nil {
		return nil, mediator.QueryTextError{Err: err}
	}
	prepared, err := engine.Prepare(q)
	if err != nil {
		return nil, err
	}
	p := &Plan{prepared: prepared, root: engine.EmptyResult(q).Root}
	p.kept = len(text) <= maxForwardPlanText && n.plans.Put(text, p)
	return p, nil
}

// heldAnswers is the picks memo beside one document: the answer roots of the
// last plans evaluated over doc, the oldest replaced first. A root is the
// plan's shell over the picked elements of doc itself (read-only, as
// everything Fetch returns), shared by every answer written from it.
type heldAnswers struct {
	doc *xmlmodel.Document

	mu   sync.Mutex
	kept []heldAnswer // made on the first keep, at most heldAnswerPlans long
	next int
}

type heldAnswer struct {
	plan *Plan
	root *xmlmodel.Element
}

// find returns the root kept for p, or nil.
func (h *heldAnswers) find(p *Plan) *xmlmodel.Element {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range h.kept {
		if a.plan == p {
			return a.root
		}
	}
	return nil
}

// keep remembers root as p's answer over h.doc, unless a walk that ran beside
// this one kept it first.
func (h *heldAnswers) keep(p *Plan, root *xmlmodel.Element) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range h.kept {
		if a.plan == p {
			return
		}
	}
	if len(h.kept) < heldAnswerPlans {
		if h.kept == nil {
			h.kept = make([]heldAnswer, 0, heldAnswerPlans)
		}
		h.kept = append(h.kept, heldAnswer{p, root})
		return
	}
	h.kept[h.next] = heldAnswer{p, root}
	h.next = (h.next + 1) % heldAnswerPlans
}

// Answer returns the root of p's answer over doc, a document this Forward's
// Fetch returned: the one kept beside doc when p was evaluated over it
// before (reused), or one walk of doc. A walk is kept only in the memo of the
// document it walked, and only while that is the document the transport
// holds — a Fetch that moved on since leaves it to the walk's own answer.
func (f *Forward) Answer(p *Plan, doc *xmlmodel.Document) (root *xmlmodel.Element, reused bool, err error) {
	held := f.answers.Load()
	if held != nil && held.doc == doc {
		if root := held.find(p); root != nil {
			f.node.answersReused.Add(1)
			return root, true, nil
		}
	}
	picks, err := p.prepared.EvalElements(doc)
	if err != nil {
		return nil, false, err
	}
	f.node.answersEvaluated.Add(1)
	shell := *p.root
	shell.Children = picks
	root = &shell
	if p.kept && held != nil && held.doc == doc {
		held.keep(p, root)
	}
	return root, false, nil
}
