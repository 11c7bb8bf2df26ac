package dtd

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// StreamStats is a snapshot of the process-wide streaming-validation
// counters: documents validated, scanner events consumed, input bytes
// covered. internal/serve surfaces them at /metrics, as the tags declare.
type StreamStats struct {
	Documents int64 `json:"documents" metric:"mix_stream_validated_documents_total" help:"Documents validated by the streaming (tree-free) validator."`
	Events    int64 `json:"events" metric:"mix_stream_validated_events_total" help:"Scanner events consumed by the streaming validator."`
	Bytes     int64 `json:"bytes" metric:"mix_stream_validated_bytes_total" help:"Input bytes covered by the streaming validator."`
}

var streamDocuments, streamEvents, streamBytes atomic.Int64

// StreamValidationStats returns the current streaming-validation counters.
func StreamValidationStats() StreamStats {
	return StreamStats{
		Documents: streamDocuments.Load(),
		Events:    streamEvents.Load(),
		Bytes:     streamBytes.Load(),
	}
}

// ValidateStream validates a document text against the DTD without
// building a tree: a SAX-style scan (xmlmodel.Scanner) drives the
// compiled content-model DFAs directly, one explicit stack frame per open
// element. Memory is O(depth) and the allocation count is independent of
// document size — the per-call cost is the frame stack; what a name
// resolves to (one automata-cache lookup) is remembered on the DTD, so it
// is paid per DTD, not per document — so arbitrarily large source payloads
// validate without being materialized.
//
// It accepts exactly the documents that Parse plus Validate accept, and on a
// document Parse accepts it fails with the error Validate returns for the
// tree (property-tested): Validate replays the tree through the same frames.
func (d *DTD) ValidateStream(input string) error {
	_, err := d.validateScan(xmlmodel.NewScanner(input), len(input), false)
	return err
}

// ParseValid is ValidateStream and xmlmodel.Parse in one pass over input:
// the same scan, with the tree built along the way. It fails where, and
// as, ValidateStream fails, and the tree of the input before that point
// is dropped: a rejected document costs what its valid prefix earned.
//
// sized is the element count of a document the caller has already seen pass
// (the last one from the same source), or 0: the tree is carved from chunks
// of that size first (xmlmodel.NewTreeScanner), so a rejected document costs
// at most that tree on top of what its valid prefix earned. elems is the
// count of this one, for the caller's next call.
func (d *DTD) ParseValid(input string, sized int) (doc *xmlmodel.Document, dt *xmlmodel.Doctype, elems int, err error) {
	sc := xmlmodel.NewTreeScanner(input, sized)
	if elems, err = d.validateScan(sc, len(input), false); err != nil {
		return nil, nil, 0, err
	}
	return sc.Document(), sc.Doctype(), elems, nil
}

// ParseValidRuns is ParseValid for root children without their root: input
// is elements one after another (xmlmodel.NewRunsScanner), each validated as
// a child of the document type's root is — declared, and valid to its
// leaves. What the root's content model says of the sequence they end up in
// is ValidateRootChildren's to check, once that sequence is put together.
func (d *DTD) ParseValidRuns(input string) ([]*xmlmodel.Element, error) {
	sc := xmlmodel.NewRunsScanner(input)
	if _, err := d.validateScan(sc, len(input), true); err != nil {
		return nil, err
	}
	return sc.Elements(), nil
}

// ValidateRootChildren checks what ParseValidRuns leaves out: that the
// document type's root may have children, in this order, for children.
func (d *DTD) ValidateRootChildren(children []*xmlmodel.Element) error {
	st, declared := d.streamTypeOf(d.Root)
	if !declared || st.pcdata {
		return &ValidationError{Path: "/" + d.Root, Msg: fmt.Sprintf("%s has no element content to splice into", d.Root)}
	}
	state := st.dfa.Start
	for i, k := range children {
		next, ok := st.dfa.Step(state, regex.N(k.Name))
		if !ok {
			return &ValidationError{Path: "/" + d.Root,
				Msg: fmt.Sprintf("child %s (index %d) cannot occur under content model %s", k.Name, i, st.t.Model)}
		}
		state = next
	}
	if !st.dfa.Accept[state] {
		return &ValidationError{Path: "/" + d.Root, Msg: fmt.Sprintf("children do not match content model %s", st.t.Model)}
	}
	return nil
}

// validateScan is the one event loop: it runs sc over its size-byte input
// to the end or to the first event the DTD rejects, and counts the elements
// it opened. runs says sc is a NewRunsScanner.
func (d *DTD) validateScan(sc *xmlmodel.Scanner, size int, runs bool) (elems int, err error) {
	streamDocuments.Add(1)
	streamBytes.Add(int64(size))
	v := streamValidator{d: d, stack: make([]streamFrame, 0, 16), runs: runs} // deeper documents regrow it
	err = v.run(sc)
	streamEvents.Add(v.events)
	return v.elems, err
}

func (v *streamValidator) run(sc *xmlmodel.Scanner) error {
	for {
		ev, err := sc.Next()
		if err != nil {
			return err
		}
		v.events++
		switch ev.Kind {
		case xmlmodel.EventStart:
			v.elems++
			err = v.open(ev.Name)
		case xmlmodel.EventText:
			err = v.text()
		case xmlmodel.EventEnd:
			err = v.close()
		case xmlmodel.EventEOF:
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// validateTree replays the tree rooted at e through the frames validateScan
// drives, in document order: a text element is one text event, and any
// other element is its children. runs skips the root-name check, as for a
// NewRunsScanner. The stream counters count scans, not trees.
func (d *DTD) validateTree(e *xmlmodel.Element, runs bool) error {
	v := streamValidator{d: d, stack: make([]streamFrame, 0, 16), runs: runs}
	return v.walk(e)
}

func (v *streamValidator) walk(e *xmlmodel.Element) error {
	if err := v.open(e.Name); err != nil {
		return err
	}
	if e.IsText {
		if err := v.text(); err != nil {
			return err
		}
	} else {
		for _, k := range e.Children {
			if err := v.walk(k); err != nil {
				return err
			}
		}
	}
	return v.close()
}

// streamType is the per-name validation plan: PCDATA or a compiled DFA.
type streamType struct {
	pcdata bool
	dfa    *automata.DFA
	t      Type
}

// streamEntry is a declared name's row of the DTD's plan table: its type,
// and its DFA once a document has used the name.
type streamEntry struct {
	t   Type
	dfa atomic.Pointer[automata.DFA]
}

// streamFrame is the state of one open element: its DFA state advances as
// children open, and acceptance is checked when the element closes.
type streamFrame struct {
	name     string
	idx      int // position among the parent's children (error paths only)
	st       streamType
	state    int
	sawText  bool
	children int
}

type streamValidator struct {
	d      *DTD
	stack  []streamFrame
	events int64
	elems  int // EventStarts
	// runs: the elements at the bottom of the stack are root children
	// (ParseValidRuns), not the root.
	runs bool
}

// streamTypeOf resolves the validation plan for a name from the DTD's plan
// table, so the hot loop never re-derives an automata-cache key. The table
// is built once, on the first validation against d, with one row per
// declared name, and published with one CompareAndSwap; Declare drops it. A
// row compiles its DFA the first time a document uses the name (one
// process-wide cached Compiled lookup), so a declared-but-unused
// pathological content model costs nothing. An undeclared name has no row,
// and documents cannot grow the table past the declarations. Concurrent
// validators share it without a lock: rows are never added, and two that
// compile one DFA at once store equal automata.
func (d *DTD) streamTypeOf(name string) (streamType, bool) {
	e, ok := d.streamTable()[name]
	if !ok {
		return streamType{}, false
	}
	st := streamType{pcdata: e.t.PCDATA, t: e.t}
	if !st.pcdata {
		if st.dfa = e.dfa.Load(); st.dfa == nil {
			st.dfa, _ = automata.Compiled(e.t.Model, nil) // validation has no budget: a nil one cannot fail
			e.dfa.Store(st.dfa)
		}
	}
	return st, true
}

// streamTable returns the DTD's plan table, building it on first use.
func (d *DTD) streamTable() map[string]*streamEntry {
	if known := d.streamTypes.Load(); known != nil {
		return *known
	}
	rows := make([]streamEntry, len(d.Types))
	table := make(map[string]*streamEntry, len(d.Types))
	i := 0
	for n, t := range d.Types {
		rows[i].t = t
		table[n] = &rows[i]
		i++
	}
	if !d.streamTypes.CompareAndSwap(nil, &table) {
		if known := d.streamTypes.Load(); known != nil {
			return *known // the winner's rows share their compiled DFAs
		}
	}
	return table
}

func (v *streamValidator) open(name string) error {
	if len(v.stack) == 0 && name != v.d.Root && !v.runs {
		return &ValidationError{Path: "/" + name,
			Msg: fmt.Sprintf("root element is %s, document type requires %s", name, v.d.Root)}
	}
	st, declared := v.d.streamTypeOf(name)
	idx := 0
	if len(v.stack) > 0 {
		parent := &v.stack[len(v.stack)-1]
		idx = parent.children
		parent.children++
		if !declared {
			return &ValidationError{Path: v.childPath(name, idx),
				Msg: fmt.Sprintf("element name %s is not declared", name)}
		}
		if parent.st.pcdata {
			return &ValidationError{Path: v.path(),
				Msg: fmt.Sprintf("%s is declared (#PCDATA) but has element content", parent.name)}
		}
		// A child name outside the model's alphabet can never match; a name
		// inside it advances the DFA, and acceptance is decided at close.
		next, ok := parent.st.dfa.Step(parent.state, regex.N(name))
		if !ok {
			return &ValidationError{Path: v.path(),
				Msg: fmt.Sprintf("child %s (index %d) cannot occur under content model %s", name, idx, parent.st.t.Model)}
		}
		parent.state = next
	} else if !declared {
		return &ValidationError{Path: "/" + name,
			Msg: fmt.Sprintf("element name %s is not declared", name)}
	}
	f := streamFrame{name: name, idx: idx, st: st}
	if !st.pcdata {
		f.state = st.dfa.Start
	}
	v.stack = append(v.stack, f)
	return nil
}

func (v *streamValidator) text() error {
	top := &v.stack[len(v.stack)-1]
	if !top.st.pcdata {
		return &ValidationError{Path: v.path(),
			Msg: fmt.Sprintf("%s has character content but is declared %s", top.name, top.st.t)}
	}
	top.sawText = true
	return nil
}

func (v *streamValidator) close() error {
	top := &v.stack[len(v.stack)-1]
	if top.st.pcdata {
		if !top.sawText {
			return &ValidationError{Path: v.path(),
				Msg: fmt.Sprintf("%s is declared (#PCDATA) but has element content", top.name)}
		}
	} else if !top.st.dfa.Accept[top.state] {
		return &ValidationError{Path: v.path(),
			Msg: fmt.Sprintf("children do not match content model %s", top.st.t.Model)}
	}
	v.stack = v.stack[:len(v.stack)-1]
	return nil
}

// path renders the slash path of the current top frame
// (/department/professor[1]/publication[2]); only error paths pay for it.
func (v *streamValidator) path() string {
	var b strings.Builder
	for i, f := range v.stack {
		if i == 0 {
			b.WriteByte('/')
			b.WriteString(f.name)
			continue
		}
		fmt.Fprintf(&b, "/%s[%d]", f.name, f.idx)
	}
	return b.String()
}

func (v *streamValidator) childPath(name string, idx int) string {
	if len(v.stack) == 0 {
		return "/" + name
	}
	return fmt.Sprintf("%s/%s[%d]", v.path(), name, idx)
}
