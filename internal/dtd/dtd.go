// Package dtd implements Document Type Definitions as formalized in
// Section 2 of the paper: a DTD is a set {⟨n : type(n)⟩} where each type is
// either a regular expression over element names or PCDATA
// (Definition 2.2), together with a document type (root name,
// Definition 2.4). The package provides parsing of the standard
// <!DOCTYPE ... [ <!ELEMENT ...> ]> syntax, validation of documents
// against a DTD (Definition 2.3), reachability and realizability analyses,
// and serialization.
//
// Realizability matters because a DTD may declare names that no finite
// document can instantiate (e.g. <!ELEMENT loop (loop)>); the tightness
// decision procedure in package tightness must ignore such names, and the
// document generator must avoid them.
package dtd

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// Type is a single element type declaration: PCDATA or a content model.
type Type struct {
	// PCDATA marks character content; Model is nil in that case.
	PCDATA bool
	// Model is the content model, a regular expression over names.
	Model regex.Expr
}

// String renders the type in content-model syntax.
func (t Type) String() string {
	var buf [128]byte
	return string(t.AppendText(buf[:0]))
}

// AppendText appends what String returns to dst.
func (t Type) AppendText(dst []byte) []byte {
	if t.PCDATA {
		return append(dst, "(#PCDATA)"...)
	}
	return append(regex.AppendString(append(dst, '('), t.Model), ')')
}

// AppendElementDecl appends the declaration line of name, as a DOCTYPE's
// internal subset carries it, to dst.
func AppendElementDecl(dst []byte, name regex.Name, t Type) []byte {
	dst = regex.AppendName(append(dst, "  <!ELEMENT "...), name)
	return append(t.AppendText(append(dst, ' ')), ">\n"...)
}

// PC is the PCDATA type constant.
func PC() Type { return Type{PCDATA: true} }

// M wraps a content model into a Type.
func M(e regex.Expr) Type { return Type{Model: e} }

// DTD is Definition 2.2 plus the document type of Definition 2.4.
type DTD struct {
	// Root is the document type d_root: the required name of the root
	// element of any document valid under this DTD.
	Root string
	// Types maps each declared name to its type. Once the DTD validates
	// documents, change a declaration with Declare, not in place:
	// ValidateStream remembers what it resolved for a name, and Declare is
	// what makes it forget.
	Types map[string]Type

	// order preserves declaration order for deterministic serialization.
	order []string
	// streamTypes is ValidateStream's memo (stream.go): the validation plan
	// of every name a validated document has used so far, in a map that is
	// never written once published.
	streamTypes atomic.Pointer[map[string]streamType]
}

// New returns an empty DTD with the given document type.
func New(root string) *DTD { return NewSized(root, 0) }

// NewSized is New with room for n declarations, for a caller that knows how
// many are coming: the tables are not grown from empty.
func NewSized(root string, n int) *DTD {
	return &DTD{Root: root, Types: make(map[string]Type, n), order: make([]string, 0, n)}
}

// Declare adds or replaces the type of a name, keeping declaration order.
func (d *DTD) Declare(name string, t Type) {
	if _, exists := d.Types[name]; !exists {
		d.order = append(d.order, name)
	}
	d.Types[name] = t
	if d.streamTypes.Load() != nil { // a DTD under construction has no memo to drop
		d.streamTypes.Store(nil)
	}
}

// Names returns the declared names in declaration order. Mutating the
// result does not affect the DTD. When the order must be rebuilt (Types
// populated directly), the document type sorts first, then alphabetically.
func (d *DTD) Names() []string { return append([]string(nil), d.names()...) }

// names is Names without the copy, for the package's own loops.
func (d *DTD) names() []string {
	if len(d.order) != len(d.Types) {
		d.order = d.order[:0]
		for n := range d.Types {
			d.order = append(d.order, n)
		}
		sort.Slice(d.order, func(i, j int) bool {
			a, b := d.order[i], d.order[j]
			if (a == d.Root) != (b == d.Root) {
				return a == d.Root
			}
			return a < b
		})
	}
	return d.order
}

// Clone returns a deep-enough copy (expressions are immutable and shared).
func (d *DTD) Clone() *DTD {
	c := New(d.Root)
	for _, n := range d.Names() {
		c.Declare(n, d.Types[n])
	}
	return c
}

// String serializes the DTD as a DOCTYPE declaration with internal subset.
func (d *DTD) String() string {
	// 96 bytes a declaration is more than the schemas we serve need, so
	// rendering one allocates this buffer and the string and nothing else;
	// a longer DTD costs a regrowth.
	return string(d.AppendText(make([]byte, 0, 64+96*len(d.Types))))
}

// AppendText appends what String returns to dst and allocates nothing when
// dst has the room.
func (d *DTD) AppendText(dst []byte) []byte {
	dst = append(append(append(dst, "<!DOCTYPE "...), d.Root...), " [\n"...)
	for _, n := range d.names() {
		dst = AppendElementDecl(dst, regex.N(n), d.Types[n])
	}
	return append(dst, "]>"...)
}

// dfa returns the compiled automaton for name's content model, backed by
// the process-wide compiled-automata cache. Unlike the per-DTD map it
// replaced, the shared cache is concurrency-safe, so concurrent validation
// against the same DTD value needs no cloning; it also survives Declare
// (keys are content models, not names). Validation has no budget to spend:
// the compile is lazy, once per model, and unlimited.
func (d *DTD) dfa(name string) *automata.DFA {
	m, _ := automata.Compiled(d.Types[name].Model, nil) // a nil budget cannot fail
	return m
}

// ValidationError reports why an element fails Definition 2.3.
type ValidationError struct {
	Path string // slash path of element names from the root
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("dtd: %s: %s", e.Path, e.Msg)
}

// Validate checks the document against the DTD: the root element must bear
// the document type name, and every element must satisfy its declaration
// (Definitions 2.3 and 2.4). The first violation found (preorder) is
// returned; nil means the document is valid.
func (d *DTD) Validate(doc *Document) error {
	if doc == nil || doc.Root == nil {
		return &ValidationError{Path: "/", Msg: "empty document"}
	}
	if doc.Root.Name != d.Root {
		return &ValidationError{Path: "/" + doc.Root.Name,
			Msg: fmt.Sprintf("root element is %s, document type requires %s", doc.Root.Name, d.Root)}
	}
	return d.ValidateElement(doc.Root)
}

// ValidateElement checks the subtree rooted at e against the DTD without
// constraining e to be the document type.
func (d *DTD) ValidateElement(e *Element) error {
	return d.validate(e, "/"+e.Name)
}

func (d *DTD) validate(e *Element, path string) error {
	t, declared := d.Types[e.Name]
	if !declared {
		return &ValidationError{Path: path, Msg: fmt.Sprintf("element name %s is not declared", e.Name)}
	}
	if t.PCDATA {
		if !e.IsText {
			return &ValidationError{Path: path,
				Msg: fmt.Sprintf("%s is declared (#PCDATA) but has element content", e.Name)}
		}
		return nil
	}
	if e.IsText {
		return &ValidationError{Path: path,
			Msg: fmt.Sprintf("%s has character content but is declared %s", e.Name, t)}
	}
	word := make([]regex.Name, len(e.Children))
	for i, k := range e.Children {
		word[i] = regex.N(k.Name)
	}
	if !d.dfa(e.Name).Match(word) {
		return &ValidationError{Path: path,
			Msg: fmt.Sprintf("children %v do not match content model %s", wordString(word), t.Model)}
	}
	for i, k := range e.Children {
		if err := d.validate(k, fmt.Sprintf("%s/%s[%d]", path, k.Name, i)); err != nil {
			return err
		}
	}
	return nil
}

func wordString(w []regex.Name) string {
	parts := make([]string, len(w))
	for i, n := range w {
		parts[i] = n.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equivalent reports whether two DTDs describe the same document
// language: the same document type (root name), the same set of element
// names reachable from it, and, for every reachable name, content models
// accepting the same child sequences (decided on the compiled minimal
// DFAs, so syntactically different but language-equal models — (a|b) vs
// (b|a) — compare equal). Declarations unreachable from the root are
// ignored: no valid document can instantiate them, so they do not change
// the language. Replica registration (mediator.NewReplicaSet) uses this
// to verify that the replicas of one source are interchangeable.
func Equivalent(a, b *DTD) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Root != b.Root {
		return false
	}
	ra, rb := a.Reachable(), b.Reachable()
	if len(ra) != len(rb) {
		return false
	}
	for name := range ra {
		if !rb[name] {
			return false
		}
		ta, tb := a.Types[name], b.Types[name]
		if ta.PCDATA != tb.PCDATA {
			return false
		}
		if ta.PCDATA {
			continue
		}
		if (ta.Model == nil) != (tb.Model == nil) {
			return false
		}
		if ta.Model == nil {
			continue
		}
		// Unbudgeted: the DTDs compared are the operator's own (replicas of
		// one source), and a nil budget cannot fail.
		if eq, _ := automata.Equivalent(ta.Model, tb.Model, nil); !eq {
			return false
		}
	}
	return true
}

// Reachable returns the set of names reachable from the document type
// through content models (including the root itself, when declared).
func (d *DTD) Reachable() map[string]bool {
	return d.reachableFrom(d.Root)
}

func (d *DTD) reachableFrom(start string) map[string]bool {
	out := map[string]bool{}
	if _, ok := d.Types[start]; !ok {
		return out
	}
	out[start] = true
	work := []string{start}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		t := d.Types[n]
		if t.PCDATA {
			continue
		}
		for _, m := range regex.Names(t.Model) {
			if !out[m.Base] {
				if _, declared := d.Types[m.Base]; declared {
					out[m.Base] = true
					work = append(work, m.Base)
				}
			}
		}
	}
	return out
}

// Realizable returns the set of names n for which at least one finite
// document with root n satisfies the DTD. A PCDATA name is realizable; a
// name with a content model is realizable iff its model accepts some word
// over realizable names. Undeclared names are never realizable.
func (d *DTD) Realizable() map[string]bool {
	real := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, n := range d.Names() {
			if real[n] {
				continue
			}
			t := d.Types[n]
			if t.PCDATA {
				real[n] = true
				changed = true
				continue
			}
			if realizableExpr(t.Model, func(m regex.Name) bool { return real[m.Base] }) {
				real[n] = true
				changed = true
			}
		}
	}
	return real
}

// realizableExpr reports whether e accepts some word using only names
// satisfying ok — the emptiness question L(e) ∩ ok* ≠ ∅, decided
// syntactically on the expression. It deliberately avoids the automata
// path: realizability runs before any budget applies, and a content model
// engineered to blow up subset construction (the budgeted-inference
// threat model) must not stall it.
func realizableExpr(e regex.Expr, ok func(regex.Name) bool) bool {
	switch v := e.(type) {
	case regex.Empty:
		return true
	case regex.Fail:
		return false
	case regex.Atom:
		return ok(v.Name)
	case regex.Star, regex.Opt:
		return true // ε is always available
	case regex.Plus:
		return realizableExpr(v.Sub, ok)
	case regex.Concat:
		for _, it := range v.Items {
			if !realizableExpr(it, ok) {
				return false
			}
		}
		return true
	case regex.Alt:
		for _, it := range v.Items {
			if realizableExpr(it, ok) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("dtd: unknown regex node %T", e))
}

// Check verifies internal consistency: the document type is declared, and
// every name referenced by a content model is declared. It returns all
// problems found.
func (d *DTD) Check() []error {
	var errs []error
	if _, ok := d.Types[d.Root]; !ok {
		errs = append(errs, fmt.Errorf("dtd: document type %s is not declared", d.Root))
	}
	refs := make([]regex.Name, 0, 16)
	for _, n := range d.names() {
		t := d.Types[n]
		if t.PCDATA {
			continue
		}
		if t.Model == nil {
			errs = append(errs, fmt.Errorf("dtd: element %s has neither PCDATA nor a content model", n))
			continue
		}
		refs = regex.AppendNames(refs[:0], t.Model)
		for _, m := range refs {
			if m.Tag != 0 {
				errs = append(errs, fmt.Errorf("dtd: element %s references tagged name %s; tags belong to s-DTDs", n, m))
			}
			if _, ok := d.Types[m.Base]; !ok {
				errs = append(errs, fmt.Errorf("dtd: element %s references undeclared name %s", n, m.Base))
			}
		}
	}
	return errs
}

// Document and Element aliases keep the package's API self-contained.
type (
	// Document is re-exported from xmlmodel for convenience.
	Document = xmlmodel.Document
	// Element is re-exported from xmlmodel for convenience.
	Element = xmlmodel.Element
)
