package mediator

import (
	"repro/internal/automata/cache"
	"repro/internal/xmlmodel"
)

// The part slot: every part of a defined view owns one (Mediator.slots) —
// the part's latest calc, and the predecessor its refetch is compared with —
// and it is the only evaluated data the mediator keeps. Each decision about
// a slot is one method of partSlot, called under Mediator.mu with the
// source's generation (Mediator.srcGen, the fence); none fetches, waits,
// starts a goroutine or reads a clock. A reader claims (hit, join or lead),
// a leader lands what its calc returned, and a leader's fetch is carried
// over from the predecessor or evaluated (partResult.carries).
// TestPartSlotExplored drives them through every order of the events of a
// view of two parts and checks the slot's promises (DESIGN §5v).

// partCalc is one computation of a view part — fetch its source, evaluate
// its query — as a cache.Flight. Landed and left in its slot, it is the
// part's cached result; readers concatenate its children into a fresh root.
type partCalc struct {
	cache.Flight[partResult]
	gen uint64 // the source's generation when the fetch started: the fence
}

// partResult is what one part contributes to a materialization.
type partResult struct {
	// children are the elements the part query picks from doc — elements of
	// doc itself, not copies (documents from Wrapper.Fetch are read-only).
	children []*xmlmodel.Element
	// alone is children under a root of their own, for a walk of them alone
	// (answerRuns): a member's held run has one, made with it (heldRun);
	// for a part slot's each such walk makes one.
	alone *xmlmodel.Element
	// answers is what queries picked from children, and the document they
	// are of: made and handed on with them.
	answers *AnswerMemo
	// ver is the content version: the generation of the calc that evaluated
	// children. It is the calc's own generation unless the fetch returned the
	// predecessor's document and the result was carried over — then it is an
	// earlier one — and it is what a tag says.
	ver     uint64
	dropped bool // the source's breaker is open: the part is omitted (degraded view)
	stale   bool // children come from a last-known-good document (ReplicaSet)
}

// partSlot is one part's slot. While calc runs, prev is the predecessor its
// leader was handed; once calc lands complete, calc's result is the slot's
// one result and prev is empty; with no calc, prev is what the next leader
// is handed.
type partSlot struct {
	calc *partCalc
	prev partResult
}

// claim resolves a reader's claim at the source's generation gen: the slot's
// calc while it is of gen — a hit with its result once landed, else a join —
// or a new calc the reader leads, with the predecessor in res: the result of
// the landed calc it displaces, none for one still in flight.
func (s *partSlot) claim(gen uint64) (c *partCalc, res partResult, lead, hit bool) {
	if s.calc != nil && s.calc.gen == gen {
		res, hit = s.calc.Landed()
		return s.calc, res, false, hit
	}
	if s.calc != nil {
		s.prev, _ = s.calc.Landed()
	}
	s.calc = &partCalc{gen: gen}
	s.calc.Start()
	return s.calc, s.prev, true, false
}

// land settles calc c's landing, gen being its source's generation now: res
// and err are what its leader's evaluation returned (err is
// cache.ErrComputePanic when it panicked), own says the leader's own context
// ended. A complete, live result stays while c is the slot's calc: the
// part's cached result while gen is c's, the predecessor after. Anything
// else leaves the predecessor and no calc, so a dropped or last-known-good
// part is retried, not pinned, and a read that failed or was cancelled does
// not make the next one evaluate an unchanged part again. redo says the
// failure is the leader's own and its joiners start over (cache.Flight never
// says so of a panic); raced, that the result is complete but fenced off.
func (s *partSlot) land(c *partCalc, gen uint64, res partResult, err error, own bool) (redo, raced bool) {
	complete := err == nil && !res.dropped && !res.stale
	if s.calc == c {
		if complete {
			s.prev = partResult{}
		} else {
			s.calc = nil
		}
	}
	return own && err != nil, complete && c.gen != gen
}

// holds is the one result the slot holds: its calc's once landed, else the
// predecessor.
func (s *partSlot) holds() partResult {
	if s.calc != nil {
		if res, ok := s.calc.Landed(); ok {
			return res
		}
	}
	return s.prev
}

// carries reports whether a leader's fetch of doc, stale when it came from a
// last-known-good copy, is answered by prev, the predecessor it was handed:
// the very document prev was evaluated from (Wrapper.Fetch: the same
// document says "unchanged"), and the source's own answer.
func (prev *partResult) carries(doc *xmlmodel.Document, stale bool) bool {
	return prev.answers != nil && prev.answers.doc == doc && !stale
}
