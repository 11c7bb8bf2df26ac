package tightness

import (
	"fmt"

	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// WitnessDocument materializes a Witness into a concrete document that
// satisfies d1 but not d2 — a checkable certificate of non-tightness.
// It returns nil when d1 is tighter than d2 (no witness exists).
//
// Construction: find a minimal d1-valid context from the root down to an
// element named w.Name, give that element the witness word as children,
// and complete every other required position minimally.
func WitnessDocument(d1, d2 *dtd.DTD) (*xmlmodel.Document, error) {
	ok, w, _ := Tighter(d1, d2, nil) // a certificate is built offline: unlimited, cannot fail
	if ok {
		return nil, nil
	}
	b := &minBuilder{d: d1}
	if w.Reason != "" && w.Name == "" {
		// Root mismatch: any d1 document is a witness.
		root, err := b.minimalTree(d1.Root)
		if err != nil {
			return nil, err
		}
		return &xmlmodel.Document{DocType: d1.Root, Root: root}, nil
	}
	doc, err := b.treeWithTarget(d1.Root, w.Name, w.Word)
	if err != nil {
		return nil, err
	}
	out := &xmlmodel.Document{DocType: d1.Root, Root: doc}
	if err := d1.Validate(out); err != nil {
		return nil, fmt.Errorf("tightness: internal error: witness document invalid under d1: %v", err)
	}
	if d2.Validate(out) == nil {
		return nil, fmt.Errorf("tightness: internal error: witness document still valid under d2")
	}
	return out, nil
}

// minBuilder constructs minimal valid trees under one DTD.
type minBuilder struct {
	d    *dtd.DTD
	real map[string]bool
}

func (b *minBuilder) realizable() map[string]bool {
	if b.real == nil {
		b.real = b.d.Realizable()
	}
	return b.real
}

// minimalTree builds a small valid tree rooted at name.
func (b *minBuilder) minimalTree(name string) (*xmlmodel.Element, error) {
	real := b.realizable()
	if !real[name] {
		return nil, fmt.Errorf("tightness: %s is unrealizable", name)
	}
	t := b.d.Types[name]
	if t.PCDATA {
		return xmlmodel.NewText(name, "s"), nil
	}
	word, err := b.shortWord(t.Model, nil)
	if err != nil {
		return nil, err
	}
	e := xmlmodel.NewElement(name)
	for _, n := range word {
		k, err := b.minimalTree(n.Base)
		if err != nil {
			return nil, err
		}
		e.Children = append(e.Children, k)
	}
	return e, nil
}

// treeWithTarget builds a valid tree rooted at root that contains an
// element named target whose children realize the given word.
func (b *minBuilder) treeWithTarget(root, target string, word []regex.Name) (*xmlmodel.Element, error) {
	if root == target {
		t := b.d.Types[target]
		if t.PCDATA {
			// Kind-mismatch witness: d1 says PCDATA, d2 does not.
			return xmlmodel.NewText(target, "s"), nil
		}
		if word == nil {
			// Kind-mismatch or undeclared-name witness: any valid content
			// violates d2 at this element.
			return b.minimalTree(target)
		}
		e := xmlmodel.NewElement(target)
		for _, n := range word {
			k, err := b.minimalTree(n.Base)
			if err != nil {
				return nil, err
			}
			e.Children = append(e.Children, k)
		}
		return e, nil
	}
	// Find a child step on a (shortest) path from root to target through
	// realizable-reachable names.
	step, err := b.nextStep(root, target)
	if err != nil {
		return nil, err
	}
	t := b.d.Types[root]
	childWord, err := b.shortWord(t.Model, &step)
	if err != nil {
		return nil, err
	}
	e := xmlmodel.NewElement(root)
	placed := false
	for _, n := range childWord {
		var k *xmlmodel.Element
		if !placed && n.Base == step {
			k, err = b.treeWithTarget(step, target, word)
			placed = true
		} else {
			k, err = b.minimalTree(n.Base)
		}
		if err != nil {
			return nil, err
		}
		e.Children = append(e.Children, k)
	}
	if !placed {
		return nil, fmt.Errorf("tightness: could not place %s under %s", step, root)
	}
	return e, nil
}

// nextStep returns a child name of `from` that leads (transitively) to
// target through realizable names.
func (b *minBuilder) nextStep(from, target string) (string, error) {
	real := b.realizable()
	// BFS over names.
	type hop struct{ name, via string }
	seen := map[string]bool{from: true}
	queue := []hop{{from, ""}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		t := b.d.Types[cur.name]
		if t.PCDATA {
			continue
		}
		restricted, _ := realizableDFA(t.Model, real, nil) // a nil budget cannot fail
		for _, m := range regex.Names(t.Model) {
			if !real[m.Base] || seen[m.Base] {
				continue
			}
			if !occursInLanguage(restricted, regex.N(m.Base)) {
				continue
			}
			seen[m.Base] = true
			via := cur.via
			if cur.name == from {
				via = m.Base
			}
			if m.Base == target {
				return via, nil
			}
			queue = append(queue, hop{m.Base, via})
		}
	}
	return "", fmt.Errorf("tightness: %s not reachable from %s", target, from)
}

// shortWord returns a short word of L(model) over realizable names; when
// must is non-nil the word must contain that name.
func (b *minBuilder) shortWord(model regex.Expr, must *string) ([]regex.Name, error) {
	real := b.realizable()
	m := model
	if must != nil {
		m = infer.RefineName(m, *must)
	}
	dfa, _ := realizableDFA(m, real, nil) // a nil budget cannot fail
	word := dfa.ShortestAccepted()
	if word == nil {
		return nil, fmt.Errorf("tightness: no realizable word for model %s", model)
	}
	return word, nil
}
