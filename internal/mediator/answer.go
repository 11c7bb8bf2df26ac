package mediator

import (
	"io"
	"slices"
	"strconv"
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

// AnswerMemo is what the last plans that asked picked from one run of
// elements, the oldest replaced first: a part slot's, of the part's children,
// or a cluster member's, of one run of the owner's document its transport
// holds (heldRun). It is made with the run and handed on exactly as the run
// is, so it dies with it. An entry is walked once, streamed on its first find,
// rendered on its second and copied after: bytes[j], made with the array by
// the first render, is what picks[j] serialize to under an answer's root
// (answerIndent, depth 1), and found has bit j set once entry j was found by a
// read that sends bytes.
type AnswerMemo struct {
	// doc is the source document a part slot's run was picked from (evalPart
	// asks whether a refetch returned it); nil for a held document's run.
	doc   *xmlmodel.Document
	mu    sync.Mutex
	plans [answerMemoPlans]*Plan
	picks [answerMemoPlans][]*xmlmodel.Element
	bytes *[answerMemoPlans][]byte
	found uint32
	next  int
}

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

// Answer is a query's answer, or a view's document: the shell whose tags
// enclose it and, run by run, what goes between them — elements, and where a
// memo keeps them, their bytes. A caller sends it (Write) or reads it as a
// tree (Document).
type Answer struct {
	View  *View             // nil for an answer over a member's held document (HTTPSource.Answer)
	root  *xmlmodel.Element // nil for a read that came back NotModified
	parts []plannedPart
}

func (a *Answer) run(i int) ([]*xmlmodel.Element, []byte) { return a.parts[i].picks, a.parts[i].bytes }

// Document is the answer as a tree: a fresh root over the runs' elements —
// the cached parts' own, which the caller must not modify — or nil for a read
// that came back NotModified.
func (a *Answer) Document() *xmlmodel.Document {
	if a.root == nil {
		return nil
	}
	return viewDocument(a.root.Name, a.parts)
}

// Write sends the answer as xmlmodel.WriteElement would send its document.
func (a *Answer) Write(w io.Writer) error {
	return xmlmodel.WriteRuns(w, a.root, answerIndent, len(a.parts), a.run)
}

// Size is the number of bytes Write sends, known before the first when every
// run with elements brings its bytes (xmlmodel.RunsSize): a view's document or
// a query's answer whose parts all come from their memos' bytes, or one with
// no elements at all. A run streamed on this read makes it unknown.
func (a *Answer) Size() (int, bool) {
	return xmlmodel.RunsSize(a.root, answerIndent, len(a.parts), a.run)
}

// Runs is RunsHeader's value for a view's document: how many root children
// each part contributes, in part order.
func (a *Answer) Runs() string {
	var stack [64]byte // a longer list regrows once
	buf := stack[:0]
	for i := range a.parts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(len(a.parts[i].picks)), 10)
	}
	return string(buf)
}

// WriteDelta sends what a view's document delta sends (RunsHeader): the runs
// of the parts moved says moved, in part order, each as Write sends it.
func (a *Answer) WriteDelta(w io.Writer, moved []bool) error {
	return xmlmodel.WriteRuns(w, nil, answerIndent, len(a.parts), func(i int) ([]*xmlmodel.Element, []byte) {
		if i >= len(moved) || !moved[i] {
			return nil, nil
		}
		return a.run(i)
	})
}

// answerCounts is what answerRuns did with its runs.
type answerCounts struct {
	reused, evaluated          int // runs whose memo knew the plan, runs walked
	rendered, copied           int // runs sent from bytes rendered now, from kept bytes
	renderedBytes, copiedBytes int
}

// answerRuns gives runs — a view's kept parts, all complete, live results
// (answerByPart), or the runs of a member's held document (HTTPSource.Answer)
// — what plan picks below each: what the run's memo says, and for the runs
// whose memo does not know the plan one walk, which the memos then keep. A
// run with no memo (a masked-out part) is neither and is given nothing. The
// walk is of the one run's children alone under a root named name, or of more
// runs' together — whole, when the caller holds all the runs under one root
// (ends says where each run ends in it) and every one is walked, else a root
// of just theirs.
func answerRuns(name string, plan *Plan, runs []plannedPart, bytes bool, whole *xmlmodel.Element, ends []int) (c answerCounts) {
	c.reused = findAll(plan, runs, bytes)
	last := -1
	for i := range runs {
		if runs[i].res.answers != nil && runs[i].slot < 0 {
			c.evaluated, last = c.evaluated+1, i
		}
	}
	switch {
	case c.evaluated == 0 || plan.prepared == nil: // a view's own plan picks every member: the run as it is
	case c.evaluated == 1: // walked alone, the run's picks are all the walk's
		p := &runs[last]
		root := p.res.alone
		if root == nil {
			root = &xmlmodel.Element{Name: name, Children: p.res.children}
		}
		picks, _ := plan.prepared.EvalSplit(root, nil)
		p.picks = picks
	default:
		root := whole
		if root == nil || c.evaluated < len(runs) {
			n := 0
			for i := range runs {
				if p := &runs[i]; p.res.answers != nil && p.slot < 0 {
					n += len(p.res.children)
				}
			}
			root, ends = &xmlmodel.Element{Name: name, Children: make([]*xmlmodel.Element, 0, n)}, make([]int, len(runs))
			for i := range runs {
				if p := &runs[i]; p.res.answers != nil && p.slot < 0 {
					root.Children = append(root.Children, p.res.children...)
				}
				ends[i] = len(root.Children)
			}
		}
		picks, cuts := plan.prepared.EvalSplit(root, ends)
		// The walked run with the most picks keeps the walk's array, cleared
		// around them once the others have copied theirs: a memo keeps no
		// other run's elements alive.
		keep, keepLo, keepHi, lo := -1, 0, 0, 0
		for i, hi := range cuts {
			if p := &runs[i]; p.res.answers != nil && p.slot < 0 && hi-lo > keepHi-keepLo {
				keep, keepLo, keepHi = i, lo, hi
			}
			lo = hi
		}
		lo = 0
		for i, hi := range cuts {
			switch p := &runs[i]; {
			case p.res.answers == nil || p.slot >= 0:
			case i == keep:
				p.picks = picks[lo:hi:hi]
			default:
				p.picks = append([]*xmlmodel.Element(nil), picks[lo:hi]...)
			}
			lo = hi
		}
		clear(picks[:keepLo])
		clear(picks[keepHi:])
	}
	c.rendered, c.copied, c.renderedBytes, c.copiedBytes = sendAll(plan, runs)
	return c
}

// answerByPart is answerRuns over a view's parts, counted and traced as this
// mediator's.
func (m *Mediator) answerByPart(span *obs.Span, v *View, plan *Plan, parts []plannedPart, bytes bool) {
	c := answerRuns(v.Name, plan, parts, bytes, nil, nil)
	if plan.prepared != nil {
		m.stats.add(&m.stats.AnswerPartsEvaluated, int64(c.evaluated))
		m.stats.add(&m.stats.AnswerPartsReused, int64(c.reused))
	}
	span.SetAttr(obs.Int("answer_reused", int64(c.reused)), obs.Int("answer_evaluated", int64(c.evaluated)))
	if bytes { // how the parts are sent; a trace record has room for 13 attributes
		m.stats.add(&m.stats.AnswerBytesCopied, int64(c.copiedBytes))
		m.stats.add(&m.stats.AnswerBytesRendered, int64(c.renderedBytes))
		span.SetNonZero(obs.Int("answer_copied", int64(c.copied)), obs.Int("answer_rendered", int64(c.rendered)),
			obs.Int("answer_streamed", int64(c.reused+c.evaluated-c.copied-c.rendered)))
	}
}

// Answer is plan's answer over doc, a document s handed out, for a caller
// that sends it: a cluster member's answer to a forwarded query. When doc is
// the document s holds, with the runs a member's fetch holds (Fetch), and the
// plan is remembered, the runs are answered as a view's parts are
// (answerRuns): each from its memo, or walked — alone, or in one walk with the
// other runs whose memo does not know the plan — and kept. Otherwise doc is
// walked whole and the walk kept nowhere: a reader still on a document s has
// moved on from, a last-known-good copy, or a plan whose picks are not a
// run's own. how says "evaluated" when anything was walked, and else how the
// runs go out: "rendered" when one was rendered, else "copied" when one was
// copied, else "streamed".
func (s *HTTPSource) Answer(plan *Plan, doc *xmlmodel.Document) (a Answer, how string, err error) {
	a.root = plan.root
	k := s.kept.Load()
	if k == nil || k.doc != doc || k.runs == nil || !plan.remember {
		picks, err := plan.prepared.EvalElements(doc)
		if err != nil {
			return Answer{}, "", err
		}
		a.parts = []plannedPart{{picks: picks}}
		return a, "evaluated", nil
	}
	a.parts = make([]plannedPart, len(k.runs))
	for i := range a.parts {
		r := &k.runs[i]
		a.parts[i].res = partResult{children: r.root.Children, alone: &r.root, answers: r.answers}
	}
	switch c := answerRuns(doc.Root.Name, plan, a.parts, true, doc.Root, k.ends); {
	case c.evaluated > 0:
		how = "evaluated"
	case c.rendered > 0:
		how = "rendered"
	case c.copied > 0:
		how = "copied"
	default:
		how = "streamed"
	}
	return a, how, nil
}
