package mediator

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/xmlmodel"
)

// Deltas of a view document (RunsHeader), the member's side.
//
// A view's document is its root over its parts' runs, one after another, and
// validity against a plain DTD is checked element by element: every element
// satisfies its own declaration, and the root's children, as one sequence,
// satisfy the root's. So a document built from a held one by replacing some
// runs is valid when each element that crossed is — to its leaves, as a child
// of the root (dtd.ParseValidRuns) — and the root's content model accepts the
// whole new sequence of children (dtd.ValidateRootChildren). The elements of
// the runs that did not move validated when they arrived and are never
// written again; they are the held document's own, shared.
//
// What a run shares is what keeps its body alive: a parsed element's names
// and texts are substrings of the body it arrived in. A spliced document
// therefore holds the last full body while any of its runs is left, and each
// delta while any of the runs it brought is. splice refuses a delta that
// would make that more than twice what a full body would be now, and the
// full body fetched instead holds only itself.

// heldRun is one part's run of a member's kept document (keptDocument.runs):
// its elements under a root of their own (named by the DTD, whose strings are
// nobody's body's), the memo of what plans picked from them (answerRuns), and
// what it keeps alive — the body its elements arrived in (their names and
// texts are substrings of it), the last full body (body 0) or the body-th
// delta spliced since, of bodyLen bytes. The run serializes to size bytes, -1
// until retains measures it. A record that carries a run copies it whole: the
// memo is shared, the root is the new record's own, and its elements are a
// slice of the new document's — nothing in a record points into the one it
// replaced, which would keep alive bodies retains no longer counts.
type heldRun struct {
	root                xmlmodel.Element
	answers             *AnswerMemo
	size, body, bodyLen int
}

// memberRecord is a member's kept document in one allocation with its first
// four runs and their ends and, when spliced, its document and root; a view
// of more parts makes its runs on the heap.
type memberRecord struct {
	kept    keptDocument
	doc     xmlmodel.Document
	root    xmlmodel.Element
	few     [4]heldRun
	fewEnds [4]int
}

// newRecord is a member's record of n zero runs.
func newRecord(n int) *memberRecord {
	r := &memberRecord{}
	if r.kept.runs, r.kept.ends = r.few[:], r.fewEnds[:]; n > len(r.few) {
		r.kept.runs, r.kept.ends = make([]heldRun, n), make([]int, n)
	}
	r.kept.runs, r.kept.ends = r.kept.runs[:n], r.kept.ends[:n]
	return r
}

// hold is k, the record of a document that passed every check — or of the
// held one, which the response confirmed — as the fetch resp answers keeps
// it. Only a member's fetch holds runs (response.member): the cut its
// response announced (RunsHeader), or one run when it announced none that
// cuts the root's children. A run of held that is the same run of the same
// document keeps its memo, and every other starts an empty one.
func (s *HTTPSource) hold(k keptDocument, resp response, held *keptDocument) *keptDocument {
	if !resp.member {
		leaf := k // a copy, so that k, copied into a member's record, is not on the heap
		return &leaf
	}
	var buf [16]int // a view of more parts makes its counts on the heap
	counts, total, children, at := appendCounts(buf[:0], resp.runs), 0, k.doc.Root.Children, 0
	for _, n := range counts {
		total += n
	}
	if len(counts) == 0 || total != len(children) {
		counts = append(buf[:0], len(children))
	}
	r := newRecord(len(counts))
	k.runs, k.ends = r.kept.runs, r.kept.ends
	same := held != nil && held.doc == k.doc && len(held.runs) == len(counts)
	for i, n := range counts {
		run := heldRun{root: xmlmodel.Element{Name: s.schema.Root, Children: children[at : at+n : at+n]}, size: -1, bodyLen: len(k.body)}
		if same && len(held.runs[i].root.Children) == n {
			run.answers, run.size = held.runs[i].answers, held.runs[i].size
		} else {
			run.answers = &AnswerMemo{}
		}
		at, k.runs[i] = at+n, run
		k.ends[i] = at
	}
	r.kept = k
	return &r.kept
}

// appendCounts reads a RunsHeader value — counts of elements,
// comma-separated — appending to counts, which it returns; nil for anything
// else.
func appendCounts(counts []int, header string) []int {
	if header == "" {
		return nil
	}
	for rest, more := header, true; more; {
		var field string
		field, rest, more = strings.Cut(rest, ",")
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 0 || n > maxResponseBytes { // an element takes a byte at least
			return nil
		}
		counts = append(counts, n)
	}
	return counts
}

// Held is the document the source holds — the last one a fetch handed out,
// having passed every check — the tag the remote sent it under ("" for none),
// and whether it was spliced from a delta; a nil document when it holds none.
func (s *HTTPSource) Held() (doc *xmlmodel.Document, tag string, spliced bool) {
	if k := s.kept.Load(); k != nil {
		return k.doc, k.tag, k.deltas > 0
	}
	return nil, "", false
}

// splice is the document a delta response makes of held, or why it makes
// none. Nothing that crossed is trusted: the delta must be against held's tag
// and held must know its runs; the new tag must be a tag of the same view of
// the same mediator, and its moved parts (AppendMoved) the only runs whose
// announced length differs; the body must scan into exactly as many
// elements as the moved runs announce, each valid; the root's content model
// must accept the spliced children; and the result must not keep more bodies
// alive than it may (retains).
func (s *HTTPSource) splice(held *keptDocument, resp response) (*keptDocument, error) {
	if held == nil || held.runs == nil || resp.base != held.tag || resp.im != RunsIM {
		return nil, errors.New("a delta that is not against the runs held")
	}
	var buf [16]int       // a view of more parts makes its counts …
	var movedBuf [16]bool // … and moved on the heap
	counts, moved := appendCounts(buf[:0], resp.runs), AppendMoved(movedBuf[:0], held.tag, resp.etag)
	if counts == nil || len(moved) != len(held.runs) || len(counts) != len(held.runs) {
		return nil, fmt.Errorf("tag %s and runs %q do not cut the %d parts held", resp.etag, resp.runs, len(held.runs))
	}
	want, total := 0, 0
	for i, n := range counts {
		switch was := len(held.runs[i].root.Children); {
		case moved[i]:
			want += n
		case n != was:
			return nil, fmt.Errorf("part %d did not move, but its run is %d elements, not %d", i, n, was)
		}
		total += n
	}
	elems, err := s.schema.ParseValidRuns(resp.body)
	switch {
	case err != nil:
		return nil, fmt.Errorf("the runs that moved: %w", err)
	case len(elems) != want:
		return nil, fmt.Errorf("the runs that moved are %d elements, not the %d announced", len(elems), want)
	}
	// A moved run that brought back elements equal to the held ones — its
	// source handed the owner a new but equal document — is revalidated by
	// them, as a 200 with the held body is (Fetch): the held run stays, memo
	// and all, and with no run changed so does the held document — the one
	// thing a record shares with the one it replaces, which then keeps alive
	// no body the new one does not.
	next, changed, at := newRecord(len(counts)), false, 0
	next.kept.tag, next.kept.deltas = resp.etag, held.deltas+1
	for i, n := range counts {
		r := held.runs[i]
		at, next.kept.ends[i] = at+n, at+n
		if moved[i] {
			arrived := elems[:n]
			if elems = elems[n:]; !slices.EqualFunc(arrived, r.root.Children, (*xmlmodel.Element).Equal) {
				r = heldRun{root: xmlmodel.Element{Name: s.schema.Root, Children: arrived}, answers: &AnswerMemo{},
					size: -1, body: next.kept.deltas, bodyLen: len(resp.body)}
				changed = true
			}
		}
		next.kept.runs[i] = r
	}
	if !changed {
		next.kept.body, next.kept.subset, next.kept.doc, next.kept.deltas = held.body, held.subset, held.doc, held.deltas
		return &next.kept, nil
	}
	children := make([]*xmlmodel.Element, 0, total)
	for i := range next.kept.runs {
		r := &next.kept.runs[i]
		at := len(children)
		children = append(children, r.root.Children...)
		r.root.Children = children[at:len(children):len(children)]
	}
	if err := s.schema.ValidateRootChildren(children); err != nil {
		return nil, fmt.Errorf("the spliced document: %w", err)
	}
	if err := s.retains(&next.kept); err != nil {
		return nil, err
	}
	// The held document's names may be substrings of a body the new one does
	// not otherwise keep; the DTD's are nobody's.
	next.root = xmlmodel.Element{Name: s.schema.Root, Children: children}
	next.doc = xmlmodel.Document{DocType: s.schema.Root, Root: &next.root}
	next.kept.doc = &next.doc
	return &next.kept, nil
}

// retains checks what the spliced document next keeps alive — each body one
// of its runs' elements arrived in — against twice what its full body would
// be: the view's DTD text and its runs' bytes, each run measured once in its
// life.
func (s *HTTPSource) retains(next *keptDocument) error {
	size, kept := len(s.rawDTD), 0
	for i := range next.runs {
		r := &next.runs[i]
		if r.size < 0 {
			r.size = xmlmodel.MarshaledSize(r.root.Children, answerIndent, 1)
		}
		size += r.size
		counted := len(r.root.Children) == 0 // an empty run keeps nothing
		for j := 0; j < i && !counted; j++ {
			counted = len(next.runs[j].root.Children) > 0 && next.runs[j].body == r.body
		}
		if !counted {
			kept += r.bodyLen
		}
	}
	if kept > 2*size {
		return fmt.Errorf("the spliced document would keep %d bytes of bodies alive for its own %d", kept, size)
	}
	return nil
}
