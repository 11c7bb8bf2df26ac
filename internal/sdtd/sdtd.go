// Package sdtd implements specialized DTDs (s-DTDs, Definition 3.8): DTDs
// whose element names carry specialization tags n^i, with types that are
// tagged regular expressions. s-DTDs are the device the paper introduces to
// recover structural tightness (Section 3.3): a single element name may
// have several type definitions — e.g. publication⁰ (any publication) and
// publication¹ (journal publications only) in Example 3.4 — so a view DTD
// can require "exactly two journal publications and any number of others",
// which no plain DTD can express.
//
// The package provides the image operation (Definition 3.9), s-DTD
// satisfaction (Definition 3.10, in both the paper's literal "weak" form
// and the tag-consistent "strict" form — see Satisfies for the
// distinction), the Merge algorithm that converts an s-DTD back to a plain
// DTD while signalling the tightness lost (Section 4.3), and a
// normalization pass that collapses redundant specializations (the
// publication² ≡ publication¹ phenomenon of footnote 8). Normalize and
// Merge decide language equivalences, so each takes the caller's budget
// (nil: unlimited) and degrades soundly when it runs out.
package sdtd

import (
	"fmt"
	"sort"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// Name is a specialized element name; re-exported from regex.
type Name = regex.Name

// SDTD is a specialized DTD: a set of tagged type definitions plus the
// document type (the tagged name the root element must satisfy).
type SDTD struct {
	// Root is the document type. For inferred view DTDs it is the view
	// name with tag 0.
	Root Name
	// Types maps each tagged name to its type: PCDATA or a tagged regular
	// expression (over Names).
	Types map[Name]dtd.Type

	order []Name
}

// New returns an empty s-DTD with the given document type.
func New(root Name) *SDTD { return NewSized(root, 0) }

// NewSized is New with room for n declarations (see dtd.NewSized).
func NewSized(root Name, n int) *SDTD {
	return &SDTD{Root: root, Types: make(map[Name]dtd.Type, n), order: make([]Name, 0, n)}
}

// Declare adds or replaces a tagged type definition.
func (s *SDTD) Declare(n Name, t dtd.Type) {
	if _, exists := s.Types[n]; !exists {
		s.order = append(s.order, n)
	}
	s.Types[n] = t
}

// Names returns the declared tagged names in declaration order. When the
// order must be rebuilt (after deletions) it is recomputed with the
// document type first, then alphabetically.
func (s *SDTD) Names() []Name { return append([]Name(nil), s.names()...) }

// names is Names without the copy, for the package's own loops.
func (s *SDTD) names() []Name {
	if len(s.order) != len(s.Types) {
		s.order = s.order[:0]
		for n := range s.Types {
			s.order = append(s.order, n)
		}
		sort.Slice(s.order, func(i, j int) bool {
			a, b := s.order[i], s.order[j]
			if (a == s.Root) != (b == s.Root) {
				return a == s.Root
			}
			if a.Base != b.Base {
				return a.Base < b.Base
			}
			return a.Tag < b.Tag
		})
	}
	return s.order
}

// Specializations returns the tags declared for a base name, sorted. This
// is the paper's spec(n) set.
func (s *SDTD) Specializations(base string) []int {
	var tags []int
	for n := range s.Types {
		if n.Base == base {
			tags = append(tags, n.Tag)
		}
	}
	sort.Ints(tags)
	return tags
}

// Clone returns a copy sharing the (immutable) expressions.
func (s *SDTD) Clone() *SDTD {
	c := New(s.Root)
	for _, n := range s.Names() {
		c.Declare(n, s.Types[n])
	}
	return c
}

// String serializes the s-DTD in the paper's ⟨name^tag : type⟩ style,
// rendered with DOCTYPE-like syntax so it remains machine-readable:
// tags are printed with a caret.
func (s *SDTD) String() string {
	return string(s.AppendText(make([]byte, 0, 64+96*len(s.Types)))) // sized as (*dtd.DTD).String is
}

// AppendText appends what String returns to dst and allocates nothing when
// dst has the room.
func (s *SDTD) AppendText(dst []byte) []byte {
	dst = append(regex.AppendName(append(dst, "<!DOCTYPE "...), s.Root), " [\n"...)
	for _, n := range s.names() {
		dst = dtd.AppendElementDecl(dst, n, s.Types[n])
	}
	return append(dst, "]>"...)
}

// Check verifies that every tagged name referenced in a type is declared.
func (s *SDTD) Check() []error {
	var errs []error
	if _, ok := s.Types[s.Root]; !ok {
		errs = append(errs, fmt.Errorf("sdtd: document type %s is not declared", s.Root))
	}
	refs := make([]Name, 0, 16)
	for _, n := range s.names() {
		t := s.Types[n]
		if t.PCDATA {
			continue
		}
		if t.Model == nil {
			errs = append(errs, fmt.Errorf("sdtd: %s has neither PCDATA nor a model", n))
			continue
		}
		refs = regex.AppendNames(refs[:0], t.Model)
		for _, m := range refs {
			if _, ok := s.Types[m]; !ok {
				errs = append(errs, fmt.Errorf("sdtd: %s references undeclared name %s", n, m))
			}
		}
	}
	return errs
}

// dfa returns the compiled automaton for n's content model, backed by the
// process-wide compiled-automata cache (concurrency-safe; shared across
// s-DTD values with the same models). Satisfaction is a check of a document
// against models inference already built, so it runs unbudgeted.
func (s *SDTD) dfa(n Name) *automata.DFA {
	d, _ := automata.Compiled(s.Types[n].Model, nil) // a nil budget cannot fail
	return d
}

// MergeEvent records one merge performed by Merge: several specializations
// of the same base name were collapsed into a single definition. Distinct
// reports whether the merged images were genuinely different languages — in
// that case information was lost and, as Section 4.3 says, "merging
// inadvertently introduces non-tightness", so the user must be informed.
type MergeEvent struct {
	Base     string
	Tags     []int
	Distinct bool
}

func (e MergeEvent) String() string {
	loss := "no information lost"
	if e.Distinct {
		loss = "non-tightness introduced"
	}
	return fmt.Sprintf("merged %s specializations %v (%s)", e.Base, e.Tags, loss)
}

// Merge converts the s-DTD to a plain DTD using the paper's Merge algorithm
// (Section 4.3): every type is replaced by its image, and images of the
// same base name are unioned. The returned events signal each collapsed
// name. Merging a PCDATA specialization with an element-content
// specialization is impossible in a plain DTD and yields an error.
//
// Budget exhaustion degrades rather than errors: content-model reduction
// falls back to the syntactic simplification (language-preserving), and an
// image-equivalence check that cannot complete conservatively reports the
// merge as Distinct — claiming information *may* have been lost is sound,
// the reverse is not.
func (s *SDTD) Merge(bud *budget.Budget) (*dtd.DTD, []MergeEvent, error) {
	out := dtd.NewSized(s.Root.Base, len(s.Types)) // one declaration a base: no more
	var events []MergeEvent
	byBase := map[string][]Name{}
	var bases []string
	for _, n := range s.Names() {
		if _, seen := byBase[n.Base]; !seen {
			bases = append(bases, n.Base)
		}
		byBase[n.Base] = append(byBase[n.Base], n)
	}
	for _, base := range bases {
		specs := byBase[base]
		if len(specs) == 1 {
			t := s.Types[specs[0]]
			if t.PCDATA {
				out.Declare(base, dtd.PC())
			} else {
				out.Declare(base, dtd.M(automata.Reduce(regex.Image(t.Model), bud)))
			}
			continue
		}
		pcdata := 0
		var images []regex.Expr
		var tags []int
		for _, n := range specs {
			tags = append(tags, n.Tag)
			t := s.Types[n]
			if t.PCDATA {
				pcdata++
				continue
			}
			images = append(images, regex.Image(t.Model))
		}
		if pcdata > 0 && len(images) > 0 {
			return nil, nil, fmt.Errorf("sdtd: cannot merge %s: PCDATA and element-content specializations coexist", base)
		}
		if pcdata > 0 {
			out.Declare(base, dtd.PC())
			events = append(events, MergeEvent{Base: base, Tags: tags, Distinct: false})
			continue
		}
		distinct := false
		for _, im := range images[1:] {
			eq, err := automata.Equivalent(images[0], im, bud)
			if err != nil || !eq {
				distinct = true
				break
			}
		}
		out.Declare(base, dtd.M(automata.Reduce(regex.Or(images...), bud)))
		events = append(events, MergeEvent{Base: base, Tags: tags, Distinct: distinct})
	}
	return out, events, nil
}

// Satisfies checks the document against the s-DTD under the tag-consistent
// ("strict") semantics: the root element must satisfy the document type,
// where an element e satisfies a tagged name n^i when
//
//   - name(e) = n, and
//   - if type(n^i) is PCDATA, e has character content;
//   - otherwise there is a parse of e's children against the *tagged*
//     regular expression type(n^i) assigning each child a tagged name it
//     recursively satisfies.
//
// Definition 3.10 as printed in the paper checks children only against the
// image of the chosen type, which would let any publication stand where
// Example 3.4's D4 requires a journal-only publication¹ — under that weak
// reading D4 would not be structurally tight. The strict semantics is the
// one under which the paper's tightness claims hold; the literal weak
// reading is available as SatisfiesWeak, and TestWeakVsStrict in this
// package demonstrates the difference on D4 itself.
func (s *SDTD) Satisfies(doc *xmlmodel.Document) error {
	if doc == nil || doc.Root == nil {
		return fmt.Errorf("sdtd: empty document")
	}
	if doc.Root.Name != s.Root.Base {
		return fmt.Errorf("sdtd: root element is %s, document type requires %s", doc.Root.Name, s.Root)
	}
	memo := map[memoKey]bool{}
	if !s.satisfiesStrict(doc.Root, s.Root, memo) {
		return fmt.Errorf("sdtd: root element does not satisfy %s", s.Root)
	}
	return nil
}

// SatisfiesElementAs reports whether the element satisfies the given tagged
// name under the strict semantics.
func (s *SDTD) SatisfiesElementAs(e *xmlmodel.Element, n Name) bool {
	return s.satisfiesStrict(e, n, map[memoKey]bool{})
}

// SatisfiesElement reports whether e satisfies some specialization of its
// name (the existential of Definition 3.10), strictly.
func (s *SDTD) SatisfiesElement(e *xmlmodel.Element) bool {
	memo := map[memoKey]bool{}
	for _, tag := range s.Specializations(e.Name) {
		if s.satisfiesStrict(e, Name{Base: e.Name, Tag: tag}, memo) {
			return true
		}
	}
	return false
}

type memoKey struct {
	e *xmlmodel.Element
	n Name
}

func (s *SDTD) satisfiesStrict(e *xmlmodel.Element, n Name, memo map[memoKey]bool) bool {
	if e.Name != n.Base {
		return false
	}
	t, declared := s.Types[n]
	if !declared {
		return false
	}
	key := memoKey{e, n}
	if v, ok := memo[key]; ok {
		return v
	}
	var ok bool
	switch {
	case t.PCDATA:
		ok = e.IsText
	case e.IsText:
		ok = false
	default:
		ok = s.parseChildren(e, n, memo)
	}
	memo[key] = ok
	return ok
}

// parseChildren runs the children of e through the DFA of type(n),
// branching on every tagged symbol whose base matches the child's name and
// whose specialization the child satisfies. The reachable-state set stays
// small (bounded by the DFA size), so this is O(children × states ×
// alphabet) plus the memoized child checks.
func (s *SDTD) parseChildren(e *xmlmodel.Element, n Name, memo map[memoKey]bool) bool {
	d := s.dfa(n)
	states := map[int]bool{d.Start: true}
	for _, child := range e.Children {
		if len(states) == 0 {
			return false
		}
		// Which tagged names could this child be labeled with?
		var feasible []int
		for ai, sym := range d.Alphabet {
			if sym.Base != child.Name {
				continue
			}
			if s.satisfiesStrict(child, sym, memo) {
				feasible = append(feasible, ai)
			}
		}
		next := map[int]bool{}
		for st := range states {
			for _, ai := range feasible {
				next[d.Trans[st][ai]] = true
			}
		}
		states = next
	}
	for st := range states {
		if d.Accept[st] {
			return true
		}
	}
	return false
}

// SatisfiesWeak checks the document under the literal Definition 3.10:
// each element (independently) needs some specialization i of its name
// such that the *images* of the children names match image(type(n^i)),
// with children checked recursively the same way. Tags impose no
// cross-level consistency under this reading.
func (s *SDTD) SatisfiesWeak(doc *xmlmodel.Document) error {
	if doc == nil || doc.Root == nil {
		return fmt.Errorf("sdtd: empty document")
	}
	if doc.Root.Name != s.Root.Base {
		return fmt.Errorf("sdtd: root element is %s, document type requires %s", doc.Root.Name, s.Root)
	}
	imageDFAs := map[Name]*automata.DFA{}
	var walk func(e *xmlmodel.Element) error
	walk = func(e *xmlmodel.Element) error {
		tags := s.Specializations(e.Name)
		if len(tags) == 0 {
			return fmt.Errorf("sdtd: element name %s has no specialization", e.Name)
		}
		ok := false
		for _, tag := range tags {
			n := Name{Base: e.Name, Tag: tag}
			t := s.Types[n]
			if t.PCDATA {
				if e.IsText {
					ok = true
					break
				}
				continue
			}
			if e.IsText {
				continue
			}
			d, cached := imageDFAs[n]
			if !cached {
				d, _ = automata.FromExpr(regex.Image(t.Model), nil) // a nil budget cannot fail
				imageDFAs[n] = d
			}
			word := make([]regex.Name, len(e.Children))
			for i, k := range e.Children {
				word[i] = regex.N(k.Name)
			}
			if d.Match(word) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sdtd: element %s satisfies no specialization (weak)", e.Name)
		}
		for _, k := range e.Children {
			if err := walk(k); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(doc.Root)
}

// FromDTD lifts a plain DTD to an s-DTD where every name has the single
// specialization 0. This is the starting point of the tightening algorithm.
func FromDTD(d *dtd.DTD) *SDTD {
	s := New(regex.N(d.Root))
	for _, n := range d.Names() {
		s.Declare(regex.N(n), d.Types[n])
	}
	return s
}
