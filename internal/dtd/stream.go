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
// It accepts exactly the documents that Parse plus Validate accept, and
// rejects exactly the ones they reject (property-tested); only error
// positions and messages may differ, because the scan reports the first
// violation in document order while the tree validator reports the first
// in preorder.
func (d *DTD) ValidateStream(input string) error {
	return d.validateScan(xmlmodel.NewScanner(input), len(input))
}

// ParseValid is ValidateStream and xmlmodel.Parse in one pass over input:
// the same scan, with the tree built along the way. It fails where, and
// as, ValidateStream fails, and the tree of the input before that point
// is dropped: a rejected document costs what its valid prefix earned.
func (d *DTD) ParseValid(input string) (*xmlmodel.Document, *xmlmodel.Doctype, error) {
	sc := xmlmodel.NewTreeScanner(input)
	if err := d.validateScan(sc, len(input)); err != nil {
		return nil, nil, err
	}
	return sc.Document(), sc.Doctype(), nil
}

// validateScan is the one event loop: it runs sc over its size-byte input
// to the end or to the first event the DTD rejects.
func (d *DTD) validateScan(sc *xmlmodel.Scanner, size int) error {
	streamDocuments.Add(1)
	streamBytes.Add(int64(size))
	v := streamValidator{d: d, stack: make([]streamFrame, 0, 16)} // deeper documents regrow it
	err := v.run(sc)
	streamEvents.Add(v.events)
	return err
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

// streamType is the per-name validation plan: PCDATA or a compiled DFA.
type streamType struct {
	pcdata bool
	dfa    *automata.DFA
	t      Type
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
}

// streamTypeOf resolves the validation plan for a name, memoized on the DTD
// so the hot loop never re-derives an automata-cache key: the first
// occurrence of a name in any document validated against d costs one
// (process-wide cached) Compiled lookup, every later one, in this document
// or the next, is a map read. Compilation stays lazy — a declared-but-unused
// pathological content model costs nothing, exactly as in tree validation —
// and an undeclared name is not remembered, so documents cannot grow the
// memo past the declarations. Concurrent validators share it without a lock:
// a published map is never written; adding a name publishes a copy, and a
// copy that loses the race is built again from the winner's.
func (d *DTD) streamTypeOf(name string) (streamType, bool) {
	known := d.streamTypes.Load()
	if known != nil {
		if st, ok := (*known)[name]; ok {
			return st, true
		}
	}
	t, ok := d.Types[name]
	if !ok {
		return streamType{}, false
	}
	st := streamType{pcdata: t.PCDATA, t: t}
	if !t.PCDATA {
		st.dfa, _ = automata.Compiled(t.Model, nil) // unlimited, as in dfa: cannot fail
	}
	for {
		next := make(map[string]streamType, len(d.Types))
		if known != nil {
			for n, k := range *known {
				next[n] = k
			}
		}
		next[name] = st
		if d.streamTypes.CompareAndSwap(known, &next) {
			return st, true
		}
		known = d.streamTypes.Load()
	}
}

func (v *streamValidator) open(name string) error {
	if len(v.stack) == 0 && name != v.d.Root {
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

// path renders the slash path of the current top frame in the tree
// validator's style (/root/child[0]/grand[2]); only error paths pay for it.
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
