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

// keptRun is what one part's run of a kept document keeps alive: the body
// its elements arrived in (their names and texts are substrings of it) — the
// last full body (body 0) or the body-th delta spliced since — of bodyLen
// bytes. The run serializes to size bytes, -1 until retains measures it.
type keptRun struct {
	size, body, bodyLen int
}

// setCounts reads a RunsHeader value into k.counts and gives k.runs as many
// zero runs, both in k's own arrays when they fit; it reports whether the
// value was one.
func (k *keptDocument) setCounts(header string) bool {
	k.counts, k.runs = appendCounts(k.fewCounts[:0], header), k.fewRuns[:]
	if len(k.counts) > len(k.runs) {
		k.runs = make([]keptRun, len(k.counts))
	}
	k.runs = k.runs[:len(k.counts)]
	return k.counts != nil
}

// cutRuns gives k, a full body's document, the cut its response announced
// (header, a RunsHeader value), every run kept alive by the body; none when
// the header announces none that cuts k.doc's root children.
func (k *keptDocument) cutRuns(header string) {
	if !k.setCounts(header) {
		return
	}
	total := 0
	for i, n := range k.counts {
		k.runs[i] = keptRun{size: -1, bodyLen: len(k.body)}
		total += n
	}
	if total != len(k.doc.Root.Children) {
		k.counts, k.runs = nil, nil
	}
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

// Runs is how the remote cut doc, when it is the document the source holds,
// into its parts' runs (RunsHeader): their counts of root children, in part
// order, read-only; nil when the source holds another document or the remote
// did not say. spliced says the document was built from a delta.
func (s *HTTPSource) Runs(doc *xmlmodel.Document) (counts []int, spliced bool) {
	if kept := s.kept.Load(); kept != nil && kept.doc == doc {
		return kept.counts, kept.deltas > 0
	}
	return nil, false
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
	if held == nil || held.counts == nil || resp.base != held.tag || resp.im != RunsIM {
		return nil, errors.New("a delta that is not against the runs held")
	}
	// One allocation for the kept document, the document and its root, which
	// live as long.
	spliced := &struct {
		kept keptDocument
		doc  xmlmodel.Document
		root xmlmodel.Element
	}{}
	next := &spliced.kept
	next.tag, next.deltas = resp.etag, held.deltas+1
	var buf [16]bool // a view of more parts makes moved on the heap
	moved := AppendMoved(buf[:0], held.tag, resp.etag)
	if !next.setCounts(resp.runs) || len(moved) != len(held.counts) || len(next.counts) != len(held.counts) {
		return nil, fmt.Errorf("tag %s and runs %q do not cut the %d parts held", resp.etag, resp.runs, len(held.counts))
	}
	want, total := 0, 0
	for i, n := range held.counts {
		switch {
		case moved[i]:
			want += next.counts[i]
		case next.counts[i] != n:
			return nil, fmt.Errorf("part %d did not move, but its run is %d elements, not %d", i, next.counts[i], n)
		}
		total += next.counts[i]
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
	// them, as a 200 with the held body is (Fetch): the held run stays, and
	// with no run changed so does the held document, and with it every memo.
	children, from, changed := make([]*xmlmodel.Element, 0, total), held.doc.Root.Children, false
	for i, n := range held.counts {
		run, r := from[:n], held.runs[i]
		if from = from[n:]; moved[i] {
			arrived := elems[:next.counts[i]]
			if elems = elems[next.counts[i]:]; !slices.EqualFunc(arrived, run, (*xmlmodel.Element).Equal) {
				run, r, changed = arrived, keptRun{size: -1, body: next.deltas, bodyLen: len(resp.body)}, true
			}
		}
		children = append(children, run...)
		next.runs[i] = r
	}
	if !changed {
		return &keptDocument{tag: resp.etag, body: held.body, subset: held.subset, doc: held.doc,
			counts: held.counts, runs: held.runs, deltas: held.deltas}, nil
	}
	if err := s.schema.ValidateRootChildren(children); err != nil {
		return nil, fmt.Errorf("the spliced document: %w", err)
	}
	if err := s.retains(next, children); err != nil {
		return nil, err
	}
	// The held document's names may be substrings of a body the new one does
	// not otherwise keep; the DTD's are nobody's.
	spliced.root = xmlmodel.Element{Name: s.schema.Root, Children: children}
	spliced.doc = xmlmodel.Document{DocType: s.schema.Root, Root: &spliced.root}
	next.doc = &spliced.doc
	return next, nil
}

// retains checks what the spliced document next keeps alive — each body one
// of its runs' elements arrived in — against twice what its full body would
// be: the view's DTD text and its runs' bytes, each run measured once in its
// life.
func (s *HTTPSource) retains(next *keptDocument, children []*xmlmodel.Element) error {
	size, kept := len(s.rawDTD), 0
	for i, n := range next.counts {
		r := &next.runs[i]
		if r.size < 0 {
			r.size = xmlmodel.MarshaledSize(children[:n], answerIndent, 1)
		}
		children = children[n:]
		size += r.size
		counted := n == 0 // an empty run keeps nothing
		for j := 0; j < i && !counted; j++ {
			counted = next.counts[j] > 0 && next.runs[j].body == r.body
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
