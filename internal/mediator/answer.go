package mediator

import (
	"io"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/xmlmodel"
)

// answerMemoPlans bounds an AnswerMemo: benchmark/'s pools hold 15 to 20
// distinct queries per view (measured), and a view cycling through more hot
// plans than this is evaluated per read, as every query was before the memo.
const answerMemoPlans = 32

// answerIndent is how deep internal/serve indents, and so a memo's bytes are.
const answerIndent = 2

// AnswerMemo is what the last plans that asked picked from one document, the
// oldest replaced first: a part slot's, of the part's children (answerByPart),
// or a cluster node's, of the owner's document its transport holds
// (AnswerHeld). It is made with the document and handed on exactly as the
// document is, so it dies with it. An entry is walked once, streamed on its
// first find, rendered on its second and copied after: bytes[j], made with the
// array by the first render, is what picks[j] serialize to under an answer's
// root (answerIndent, depth 1), and found has bit j set once entry j was found
// by a read that sends bytes.
type AnswerMemo struct {
	doc   *xmlmodel.Document
	mu    sync.Mutex
	plans [answerMemoPlans]*Plan
	picks [answerMemoPlans][]*xmlmodel.Element
	bytes *[answerMemoPlans][]byte
	found uint32
	next  int
}

// NewAnswerMemo is an empty memo of what plans pick from doc.
func NewAnswerMemo(doc *xmlmodel.Document) *AnswerMemo { return &AnswerMemo{doc: doc} }

// Document is the document the memo's picks are of.
func (a *AnswerMemo) Document() *xmlmodel.Document { return a.doc }

// find looks plan up for the run p: found, p takes the picks and, for a
// caller that sends bytes, the bytes or the task to render them (p.render).
func (a *AnswerMemo) find(plan *Plan, p *plannedPart, bytes bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p.slot = slices.Index(a.plans[:], plan); p.slot < 0 {
		return false
	}
	p.picks = a.picks[p.slot]
	switch {
	case !bytes || len(p.picks) == 0:
	case a.bytes != nil && a.bytes[p.slot] != nil:
		p.bytes = a.bytes[p.slot]
	case a.found&(1<<p.slot) != 0:
		p.render = true
	default:
		a.found |= 1 << p.slot
	}
	return true
}

// keep stores what the run p made for plan: a walk's picks in the oldest
// entry, which goes bytes, found bit and all, or rendered bytes in the entry
// found — unless the ring replaced it meanwhile. Racing renders make identical
// bytes, and the last store wins.
func (a *AnswerMemo) keep(plan *Plan, p *plannedPart) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case p.slot < 0:
		a.plans[a.next], a.picks[a.next], a.found = plan, p.picks, a.found&^(1<<a.next)
		if a.bytes != nil {
			a.bytes[a.next] = nil
		}
		a.next = (a.next + 1) % answerMemoPlans
	case p.render && a.plans[p.slot] == plan:
		if a.bytes == nil {
			a.bytes = new([answerMemoPlans][]byte)
		}
		a.bytes[p.slot] = p.bytes
	}
}

// heldBytes is what the memo's bytes come to.
func (a *AnswerMemo) heldBytes() (n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for j := 0; a.bytes != nil && j < answerMemoPlans; j++ {
		n += int64(len(a.bytes[j]))
	}
	return n
}

// findAll looks plan up in the memo of every run that has one (a masked-out
// part has none) and reports how many found it; the others get slot -1.
func findAll(plan *Plan, runs []plannedPart, bytes bool) (found int) {
	for i := range runs {
		if p := &runs[i]; p.res.answers != nil && p.res.answers.find(plan, p, bytes) {
			found++
		} else {
			p.slot = -1
		}
	}
	return found
}

// sendAll renders — outside the memos' locks — what the finds asked for,
// keeps in each run's memo what was walked or rendered for it, and counts the
// runs, and their bytes, sent rendered and sent from held bytes.
func sendAll(plan *Plan, runs []plannedPart) (rendered, copied, renderedBytes, copiedBytes int) {
	for i := range runs {
		p := &runs[i]
		switch {
		case p.render:
			p.bytes = xmlmodel.MarshalElements(p.picks, answerIndent, 1)
			rendered, renderedBytes = rendered+1, renderedBytes+len(p.bytes)
		case p.bytes != nil:
			copied, copiedBytes = copied+1, copiedBytes+len(p.bytes)
		}
		if p.res.answers != nil && (p.slot < 0 || p.render) {
			p.res.answers.keep(plan, p)
		}
	}
	return rendered, copied, renderedBytes, copiedBytes
}

// Answer is a query's answer, or a view's document, for a caller that sends
// it: the shell whose tags enclose it and, run by run, what goes between
// them — elements, and where a memo keeps them, their bytes.
type Answer struct {
	View  *View // nil for an answer over a held document (AnswerHeld)
	root  *xmlmodel.Element
	parts []plannedPart
}

func (a *Answer) run(i int) ([]*xmlmodel.Element, []byte) { return a.parts[i].picks, a.parts[i].bytes }

// Write sends the answer as xmlmodel.WriteElement would send its document.
func (a *Answer) Write(w io.Writer) error {
	return xmlmodel.WriteRuns(w, a.root, answerIndent, len(a.parts), a.run)
}

// answerByPart gives parts — all complete, live results — what plan picks
// below each: what the part's memo says, and for the parts whose memo does not
// know the plan one walk over a root of just their children, which the memos
// then keep.
func (m *Mediator) answerByPart(span *obs.Span, v *View, plan *Plan, parts []plannedPart, bytes bool) {
	reused := findAll(plan, parts, bytes)
	evaluated := len(parts) - len(plan.pruned) - reused
	if evaluated > 0 && plan.prepared != nil { // a view's own plan picks every member: the run as it is
		root, ends := &xmlmodel.Element{Name: v.Name}, make([]int, len(parts))
		for i := range parts {
			if parts[i].slot < 0 {
				root.Children = append(root.Children, parts[i].res.children...) // none of a masked-out part
			}
			ends[i] = len(root.Children)
		}
		picks, cuts := plan.prepared.EvalSplit(root, ends)
		lo := 0
		for i, hi := range cuts {
			if p := &parts[i]; p.res.answers != nil && p.slot < 0 {
				p.picks = append([]*xmlmodel.Element(nil), picks[lo:hi]...) // a copy: a memo keeps no other part's elements alive
			}
			lo = hi
		}
	}
	rendered, copied, renderedBytes, copiedBytes := sendAll(plan, parts)
	if plan.prepared != nil {
		m.stats.add(&m.stats.AnswerPartsEvaluated, int64(evaluated))
		m.stats.add(&m.stats.AnswerPartsReused, int64(reused))
	}
	span.SetAttr(obs.Int("answer_reused", int64(reused)), obs.Int("answer_evaluated", int64(evaluated)))
	if bytes { // how the parts are sent; a trace record has room for 13 attributes
		m.stats.add(&m.stats.AnswerBytesCopied, int64(copiedBytes))
		m.stats.add(&m.stats.AnswerBytesRendered, int64(renderedBytes))
		span.SetNonZero(obs.Int("answer_copied", int64(copied)), obs.Int("answer_rendered", int64(rendered)),
			obs.Int("answer_streamed", int64(len(parts)-len(plan.pruned)-copied-rendered)))
	}
}

// AnswerHeld is plan's answer over doc, a document a transport handed out, for
// a caller that sends it: a cluster node's answer to a forwarded query. memo is
// the one made with the document the transport holds now: when it is doc's and
// knows the plan the picks come from it, else from one walk of doc that it
// keeps if it is doc's and the plan is remembered. how says "evaluated", or how
// a find goes out: "streamed", "rendered" or "copied".
func AnswerHeld(plan *Plan, doc *xmlmodel.Document, memo *AnswerMemo) (a Answer, how string, err error) {
	if memo != nil && (memo.doc != doc || !plan.remember) {
		memo = nil
	}
	a = Answer{root: plan.root, parts: []plannedPart{{res: partResult{answers: memo}}}}
	if how = "streamed"; findAll(plan, a.parts, true) == 0 {
		if a.parts[0].picks, err = plan.prepared.EvalElements(doc); err != nil {
			return Answer{}, "", err
		}
		how = "evaluated"
	}
	if rendered, copied, _, _ := sendAll(plan, a.parts); rendered > 0 {
		how = "rendered"
	} else if copied > 0 {
		how = "copied"
	}
	return a, how, nil
}
