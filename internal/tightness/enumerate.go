package tightness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// EnumerateClasses returns representatives of the structural classes
// (Definition 3.5) of documents satisfying the DTD with at most maxElems
// elements, up to `limit` classes, deterministically ordered. PCDATA values
// are canonicalized to "s", so each returned document is one class.
func EnumerateClasses(d *dtd.DTD, maxElems, limit int) []*xmlmodel.Element {
	out, err := EnumerateClassesContext(context.Background(), d, maxElems, limit)
	if err != nil {
		// Background context cannot be cancelled, so the only error source
		// is a recovered worker panic — re-raise it to preserve the legacy
		// crash-on-bug behavior of this convenience entry point.
		panic(err)
	}
	return out
}

// EnumerateClassesContext is EnumerateClasses with cancellation and
// budgeting: the per-word subtree combinations at the root — the expensive
// part of the enumeration — run on up to GOMAXPROCS goroutines, and a
// cancelled context stops scheduling new words and returns the context's
// error. A panic in a worker is recovered and returned as an error naming
// the word being expanded. The result is byte-identical to the serial
// enumeration: each word's combinations are computed with the full limit
// and the ordered concatenation is truncated, which yields the same prefix
// the serial limit-threading would (the enumeration order of combine/trees
// never depends on the limit — the limit only truncates).
//
// A budget attached to the context (budget.NewContext) caps the number of
// classes produced: its class counter is charged per emitted class, and
// exhaustion truncates the enumeration — a shorter class list, not an
// error, mirroring what a smaller `limit` would return.
func EnumerateClassesContext(ctx context.Context, d *dtd.DTD, maxElems, limit int) ([]*xmlmodel.Element, error) {
	bud := budget.FromContext(ctx)
	// Class expansion is a budget charge site: route the charge stream to
	// a span of its own so traces show the enumeration's class count —
	// and, on exhaustion, where the truncation happened.
	ctx, span := obs.StartSpan(ctx, "tightness.enumerate",
		obs.String("root", d.Root), obs.Int("max_elems", int64(maxElems)), obs.Int("limit", int64(limit)))
	defer span.End()
	if span != nil && bud != nil {
		bud.SetObserver(span)
		defer bud.SetObserver(nil)
	}
	e := &enumerator{d: d, minSize: minSizes(d)}
	name := d.Root
	if limit <= 0 || e.minSize[name] < 0 || e.minSize[name] > maxElems {
		return nil, nil
	}
	t := d.Types[name]
	if t.PCDATA {
		if bud.ChargeClasses(1) != nil {
			span.Event("tightness.truncated", obs.Int("classes", 0))
			return nil, nil
		}
		return []*xmlmodel.Element{xmlmodel.NewText(name, "s")}, nil
	}
	sizeBudget := maxElems - 1
	words := regex.Enumerate(t.Model, sizeBudget, limit*8)
	// Filter out words whose minimal realization cannot fit (cheap, serial),
	// then fan the per-word combination search out across goroutines. The
	// enumerator below is read-only, so workers share it safely.
	type wordJob struct {
		w    []regex.Name
		kids [][]*xmlmodel.Element
	}
	var jobs []*wordJob
	for _, w := range words {
		need := 0
		ok := true
		for _, n := range w {
			m := e.minSize[n.Base]
			if m < 0 {
				ok = false
				break
			}
			need += m
		}
		if ok && need <= sizeBudget {
			jobs = append(jobs, &wordJob{w: w})
		}
	}
	label := func(i int) string {
		parts := make([]string, len(jobs[i].w))
		for k, n := range jobs[i].w {
			parts[k] = n.String()
		}
		return strings.Join(parts, " ")
	}
	if err := fanOut(ctx, len(jobs), label, func(i int) {
		jobs[i].kids = e.combine(jobs[i].w, sizeBudget, limit)
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []*xmlmodel.Element
	for _, j := range jobs {
		for _, kids := range j.kids {
			if bud.ChargeClasses(1) != nil {
				span.Event("tightness.truncated", obs.Int("classes", int64(len(out))))
				return out, nil
			}
			out = append(out, xmlmodel.NewElement(name, kids...))
			if len(out) >= limit {
				span.SetAttr(obs.Int("classes", int64(len(out))))
				return out, nil
			}
		}
	}
	span.SetAttr(obs.Int("classes", int64(len(out))))
	return out, nil
}

// fanOut runs f(0..n-1) on up to GOMAXPROCS goroutines; a cancelled context
// stops new items from starting. A panic inside f is recovered and returned
// as an error carrying label(i) — the offending work item — so one bad
// input fails the call instead of crashing the process; remaining items are
// not started. Single-processor (or single-item) runs degrade to a plain
// serial loop.
func fanOut(ctx context.Context, n int, label func(i int) string, f func(i int)) error {
	var (
		panicMu  sync.Mutex
		panicErr error
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicErr == nil {
					panicErr = fmt.Errorf("tightness: panic expanding %q: %v", label(i), r)
				}
				panicMu.Unlock()
			}
		}()
		f(i)
	}
	stopped := func() bool {
		if ctx.Err() != nil {
			return true
		}
		panicMu.Lock()
		p := panicErr
		panicMu.Unlock()
		return p != nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stopped() {
				break
			}
			run(i)
		}
	} else {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= n || stopped() {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	panicMu.Lock()
	defer panicMu.Unlock()
	return panicErr
}

// enumerator holds the read-only state of one enumeration; trees and
// combine never mutate it, so EnumerateClassesContext may call them from
// several goroutines at once.
type enumerator struct {
	d       *dtd.DTD
	minSize map[string]int
}

// minSizes computes the minimal number of elements in a tree rooted at each
// name (-1 when unrealizable).
func minSizes(d *dtd.DTD) map[string]int {
	ms := map[string]int{}
	for _, n := range d.Names() {
		ms[n] = -1
	}
	for changed := true; changed; {
		changed = false
		for _, n := range d.Names() {
			t := d.Types[n]
			var c int
			if t.PCDATA {
				c = 1
			} else {
				body := minWordSize(t.Model, ms)
				if body < 0 {
					continue
				}
				c = 1 + body
			}
			if ms[n] == -1 || c < ms[n] {
				ms[n] = c
				changed = true
			}
		}
	}
	return ms
}

// minWordSize is the minimal total size of the trees of a word in L(e), or
// -1 when no realizable word exists.
func minWordSize(e regex.Expr, ms map[string]int) int {
	switch v := e.(type) {
	case regex.Empty:
		return 0
	case regex.Fail:
		return -1
	case regex.Atom:
		return ms[v.Name.Base]
	case regex.Opt, regex.Star:
		return 0
	case regex.Plus:
		return minWordSize(v.Sub, ms)
	case regex.Concat:
		sum := 0
		for _, it := range v.Items {
			c := minWordSize(it, ms)
			if c < 0 {
				return -1
			}
			sum += c
		}
		return sum
	case regex.Alt:
		best := -1
		for _, it := range v.Items {
			c := minWordSize(it, ms)
			if c >= 0 && (best < 0 || c < best) {
				best = c
			}
		}
		return best
	}
	panic(fmt.Sprintf("tightness: unknown node %T", e))
}

// trees enumerates structural-class representatives rooted at name with at
// most budget elements, up to limit.
func (e *enumerator) trees(name string, budget, limit int) []*xmlmodel.Element {
	if limit <= 0 || e.minSize[name] < 0 || e.minSize[name] > budget {
		return nil
	}
	t := e.d.Types[name]
	if t.PCDATA {
		return []*xmlmodel.Element{xmlmodel.NewText(name, "s")}
	}
	// Enumerate child-name words whose minimal realization fits, then all
	// combinations of child trees within the remaining budget.
	words := regex.Enumerate(t.Model, budget-1, limit*8)
	var out []*xmlmodel.Element
	for _, w := range words {
		need := 0
		ok := true
		for _, n := range w {
			m := e.minSize[n.Base]
			if m < 0 {
				ok = false
				break
			}
			need += m
		}
		if !ok || need > budget-1 {
			continue
		}
		for _, kids := range e.combine(w, budget-1, limit-len(out)) {
			out = append(out, xmlmodel.NewElement(name, kids...))
			if len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// combine enumerates child-tree tuples for the word within the total
// budget.
func (e *enumerator) combine(w []regex.Name, budget, limit int) [][]*xmlmodel.Element {
	if limit <= 0 {
		return nil
	}
	if len(w) == 0 {
		return [][]*xmlmodel.Element{nil}
	}
	restMin := 0
	for _, n := range w[1:] {
		restMin += e.minSize[n.Base]
	}
	var out [][]*xmlmodel.Element
	heads := e.trees(w[0].Base, budget-restMin, limit)
	for _, h := range heads {
		hs := h.Size()
		tails := e.combine(w[1:], budget-hs, limit-len(out))
		for _, tl := range tails {
			out = append(out, append([]*xmlmodel.Element{h}, tl...))
			if len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// PrecisionReport quantifies structural tightness at a bound.
type PrecisionReport struct {
	// Bound is the maximum view-document size considered.
	Bound int
	// Classes is the number of structural classes satisfying the schema
	// within the bound (capped at the enumeration limit).
	Classes int
	// Achievable is how many of those classes actually arise as views of
	// some source document (within the source search bound).
	Achievable int
	// NonTightWitness is a representative unachievable class, if any.
	NonTightWitness string
}

// Precision is Achievable / Classes (1 when there are no classes).
func (r *PrecisionReport) Precision() float64 {
	if r.Classes == 0 {
		return 1
	}
	return float64(r.Achievable) / float64(r.Classes)
}

// ViewImage enumerates the structural classes of source documents up to
// srcBound elements (capped at limit) and returns the set of structure keys
// of the corresponding view documents. This is the bounded image of the
// view used to measure structural tightness.
func ViewImage(q *xmas.Query, src *dtd.DTD, srcBound, limit int) (map[string]bool, error) {
	image := map[string]bool{}
	for _, root := range EnumerateClasses(src, srcBound, limit) {
		// Conditions may test string values (e.g. <name>CS</name>); the
		// canonical "s" strings in class representatives would never match.
		// Instantiate the strings the query mentions: for each text
		// condition value, produce a variant document using it.
		for _, doc := range instantiateStrings(root, q) {
			view, err := engine.Eval(q, doc)
			if err != nil {
				return nil, err
			}
			image[view.Root.StructureKey()] = true
		}
	}
	return image, nil
}

// instantiateStrings produces document variants whose PCDATA values are
// drawn from the query's text conditions (plus the canonical "s"), so that
// string predicates can be satisfied by some variant. For the pick-element
// fragment, text conditions only ever help matching when their exact value
// occurs, so trying each mentioned value everywhere is exhaustive for
// structural purposes.
func instantiateStrings(root *xmlmodel.Element, q *xmas.Query) []*xmlmodel.Document {
	values := map[string][]string{} // element name -> candidate strings
	var collect func(c *xmas.Cond)
	collect = func(c *xmas.Cond) {
		if c.HasText {
			for _, n := range c.Names {
				values[n] = append(values[n], c.Text)
			}
		}
		for _, k := range c.Children {
			collect(k)
		}
	}
	collect(q.Root)
	base := root.Clone()
	_ = base.AssignIDs("e")
	docs := []*xmlmodel.Document{{DocType: base.Name, Root: base}}
	if len(values) == 0 {
		return docs
	}
	// One additional variant: every text element whose name has a
	// mentioned value receives that value (first mentioned).
	variant := root.Clone()
	variant.Walk(func(e *xmlmodel.Element) bool {
		if e.IsText {
			if vs, ok := values[e.Name]; ok {
				e.Text = vs[0]
			}
		}
		return true
	})
	_ = variant.AssignIDs("e")
	return append(docs, &xmlmodel.Document{DocType: variant.Name, Root: variant})
}

// MeasureDTD measures the structural tightness of a plain view DTD: the
// fraction of its structural classes (≤ viewBound elements) that are
// achievable as actual views. srcBound controls how large the searched
// source documents may be; it should comfortably exceed viewBound.
func MeasureDTD(viewDTD *dtd.DTD, q *xmas.Query, src *dtd.DTD, viewBound, srcBound, limit int) (*PrecisionReport, error) {
	image, err := ViewImage(q, src, srcBound, limit)
	if err != nil {
		return nil, err
	}
	rep := &PrecisionReport{Bound: viewBound}
	for _, c := range EnumerateClasses(viewDTD, viewBound, limit) {
		rep.Classes++
		if image[c.StructureKey()] {
			rep.Achievable++
		} else if rep.NonTightWitness == "" {
			rep.NonTightWitness = xmlmodel.MarshalElement(c, -1)
		}
	}
	return rep, nil
}

// MeasureSDTD measures the structural tightness of a specialized view DTD:
// classes are enumerated from the merged plain DTD and filtered by strict
// s-DTD satisfaction, then tested for achievability.
func MeasureSDTD(viewSDTD *sdtd.SDTD, q *xmas.Query, src *dtd.DTD, viewBound, srcBound, limit int) (*PrecisionReport, error) {
	merged, _, err := viewSDTD.Merge(nil) // bounded by limit, not by a budget
	if err != nil {
		return nil, err
	}
	image, err := ViewImage(q, src, srcBound, limit)
	if err != nil {
		return nil, err
	}
	rep := &PrecisionReport{Bound: viewBound}
	for _, c := range EnumerateClasses(merged, viewBound, limit) {
		if viewSDTD.Satisfies(&xmlmodel.Document{DocType: c.Name, Root: c}) != nil {
			continue
		}
		rep.Classes++
		if image[c.StructureKey()] {
			rep.Achievable++
		} else if rep.NonTightWitness == "" {
			rep.NonTightWitness = xmlmodel.MarshalElement(c, -1)
		}
	}
	return rep, nil
}

// SortedKeys is a small helper for deterministic reporting of image sets.
func SortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
