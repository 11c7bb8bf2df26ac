// Package tightness implements the paper's quality framework for view DTDs
// (Section 3):
//
//   - Tighter decides the tightness order of Definition 3.2 exactly: DTD D1
//     is tighter than D2 iff every document satisfying D1 satisfies D2. For
//     DTDs (local tree grammars) this reduces to root agreement plus
//     per-name containment of content models over realizable names, which
//     the automata package decides.
//   - CheckSoundness samples Definition 3.1: random source documents are
//     run through the view and the results validated against the inferred
//     view DTD (and s-DTD).
//   - Structural tightness (Definition 3.7) quantifies over all structural
//     classes; it is measured, not decided: classes satisfying the view
//     DTD are enumerated up to a size bound and checked for membership in
//     the view's image (computed by enumerating source classes up to a
//     correspondingly larger bound and applying the view). The resulting
//     precision ratio is the paper's "how many described structures can
//     never appear" made quantitative.
package tightness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Witness explains why D1 is not tighter than D2: an element name whose
// content (or kind) is allowed by D1 but not by D2.
type Witness struct {
	// Name is the offending element name; empty when the failure is at the
	// document-type level.
	Name string
	// Word is a child-name sequence allowed by D1's content model for Name
	// but rejected by D2's; nil when the failure is categorical (name
	// undeclared, PCDATA mismatch, root mismatch).
	Word []regex.Name
	// Reason is a human-readable explanation.
	Reason string
}

func (w *Witness) String() string {
	if w == nil {
		return "<tighter>"
	}
	if w.Word != nil {
		parts := make([]string, len(w.Word))
		for i, n := range w.Word {
			parts[i] = n.String()
		}
		return fmt.Sprintf("%s: children (%s) — %s", w.Name, strings.Join(parts, ", "), w.Reason)
	}
	return w.Reason
}

// Tighter reports whether d1 is tighter than d2 (Definition 3.2): every
// document satisfying d1 also satisfies d2. When it is not, a witness
// explains the failure. The decision is exact: containment is checked per
// reachable name with content models restricted to d1's realizable names
// (declared-but-unrealizable names cannot occur in any finite document and
// must not produce spurious witnesses).
//
// The per-name DFA compilations and containment checks charge the budget
// (see internal/budget; nil is unlimited and never errors), and exhaustion
// returns an error — the comparison is a decision, so unlike inference it
// cannot soundly degrade; callers treat "could not decide within budget"
// explicitly (dtdcheck exits with a distinct code).
func Tighter(d1, d2 *dtd.DTD, bud *budget.Budget) (bool, *Witness, error) {
	real1 := d1.Realizable()
	if !real1[d1.Root] {
		// No document satisfies d1 at all; vacuously tighter.
		return true, nil, nil
	}
	if d1.Root != d2.Root {
		return false, &Witness{Reason: fmt.Sprintf("document types differ: %s vs %s", d1.Root, d2.Root)}, nil
	}
	reach, err := reachableRealizable(d1, real1, bud)
	if err != nil {
		return false, nil, err
	}
	for _, n := range reach {
		t1 := d1.Types[n]
		t2, declared := d2.Types[n]
		if !declared {
			return false, &Witness{Name: n, Reason: fmt.Sprintf("%s is not declared in the looser DTD", n)}, nil
		}
		if t1.PCDATA != t2.PCDATA {
			return false, &Witness{Name: n, Reason: fmt.Sprintf("%s kind mismatch (PCDATA vs element content)", n)}, nil
		}
		if t1.PCDATA {
			continue
		}
		alpha := unionAlpha(t1.Model, t2.Model)
		a1raw, err := automata.CompiledAlphabet(t1.Model, alpha, bud)
		if err != nil {
			return false, nil, err
		}
		a1 := a1raw.RestrictTo(func(m regex.Name) bool { return real1[m.Base] })
		a2, err := automata.CompiledAlphabet(t2.Model, alpha, bud)
		if err != nil {
			return false, nil, err
		}
		contained, err := automata.ContainsDFA(a1, a2, bud)
		if err != nil {
			return false, nil, err
		}
		if !contained {
			w := witnessWord(a1, a2)
			return false, &Witness{Name: n, Word: w,
				Reason: "allowed by the tighter candidate, rejected by the other"}, nil
		}
	}
	return true, nil, nil
}

// Equivalent reports whether the two DTDs describe exactly the same set of
// documents. Like StrictlyTighter it is an offline check and runs unlimited
// (a nil budget cannot fail).
func Equivalent(d1, d2 *dtd.DTD) bool {
	a, _, _ := Tighter(d1, d2, nil)
	b, _, _ := Tighter(d2, d1, nil)
	return a && b
}

// StrictlyTighter reports d1 tighter than d2 but not vice versa.
func StrictlyTighter(d1, d2 *dtd.DTD) bool {
	a, _, _ := Tighter(d1, d2, nil)
	b, _, _ := Tighter(d2, d1, nil)
	return a && !b
}

func reachableRealizable(d *dtd.DTD, real map[string]bool, bud *budget.Budget) ([]string, error) {
	var out []string
	seen := map[string]bool{d.Root: true}
	work := []string{d.Root}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out = append(out, n)
		t := d.Types[n]
		if t.PCDATA {
			continue
		}
		// Only names co-occurring with realizable siblings can appear: a
		// word containing an unrealizable name never materializes, so
		// restrict the model first and collect the names still reachable
		// in the automaton's live part. A cheap over-approximation —
		// realizable names syntactically present — is exact here because
		// any realizable name in some accepted word of the restricted
		// model does occur in a document.
		restricted, err := realizableDFA(t.Model, real, bud)
		if err != nil {
			return nil, err
		}
		for _, m := range regex.Names(t.Model) {
			if !real[m.Base] || seen[m.Base] {
				continue
			}
			if occursInLanguage(restricted, m) {
				seen[m.Base] = true
				work = append(work, m.Base)
			}
		}
	}
	return out, nil
}

// realizableDFA compiles model and redirects to a dead state every
// transition on a name outside real, one no finite document can carry.
func realizableDFA(model regex.Expr, real map[string]bool, bud *budget.Budget) (*automata.DFA, error) {
	d, err := automata.FromExpr(model, bud)
	if err != nil {
		return nil, err
	}
	return d.RestrictTo(func(m regex.Name) bool { return real[m.Base] }), nil
}

// occursInLanguage reports whether some accepted word of the DFA contains
// the symbol: reach a state via any live prefix, take the symbol, then
// reach acceptance.
func occursInLanguage(d *automata.DFA, sym regex.Name) bool {
	ai, ok := d.SymbolIndex(sym)
	if !ok {
		return false
	}
	dist := d.DistToAccept()
	// States reachable from start.
	seen := make([]bool, d.NumStates())
	seen[d.Start] = true
	work := []int{d.Start}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if dist[d.Trans[s][ai]] >= 0 {
			return true
		}
		for _, nx := range d.Trans[s] {
			if !seen[nx] {
				seen[nx] = true
				work = append(work, nx)
			}
		}
	}
	return false
}

func unionAlpha(exprs ...regex.Expr) []regex.Name {
	seen := map[regex.Name]bool{}
	var out []regex.Name
	for _, e := range exprs {
		for _, n := range regex.Names(e) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// witnessWord extracts a shortest word accepted by a but not b (both over
// the same alphabet).
func witnessWord(a, b *automata.DFA) []regex.Name {
	// Re-derive via the public containment API: build the difference by
	// brute-force BFS over the product.
	type pair struct{ x, y int }
	start := pair{a.Start, b.Start}
	if a.Accept[a.Start] && !b.Accept[b.Start] {
		return []regex.Name{}
	}
	type crumb struct {
		prev pair
		sym  int
		ok   bool
	}
	from := map[pair]crumb{start: {ok: false}}
	queue := []pair{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ai := range a.Alphabet {
			nxt := pair{a.Trans[cur.x][ai], b.Trans[cur.y][ai]}
			if _, seen := from[nxt]; seen {
				continue
			}
			from[nxt] = crumb{prev: cur, sym: ai, ok: true}
			if a.Accept[nxt.x] && !b.Accept[nxt.y] {
				var rev []regex.Name
				for p := nxt; ; {
					c := from[p]
					if !c.ok {
						break
					}
					rev = append(rev, a.Alphabet[c.sym])
					p = c.prev
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, nxt)
		}
	}
	return nil
}

// SoundnessReport summarizes a randomized soundness check.
type SoundnessReport struct {
	Trials     int
	Violations int
	// First describes the first violation found, if any.
	First string
}

// CheckSoundness samples Definition 3.1: it generates `trials` random
// documents valid under src, evaluates the view, and validates every view
// document against the plain view DTD and (strictly) against the view
// s-DTD. Soundness of the inference demands zero violations. Trials run
// concurrently (documents are generated serially for determinism, then
// checked in parallel); the report is deterministic except for which
// violation is reported First when several occur.
func CheckSoundness(q *xmas.Query, src *dtd.DTD, viewDTD *dtd.DTD, viewSDTD *sdtd.SDTD, trials int, seed int64) (*SoundnessReport, error) {
	g, err := gen.New(src, gen.Options{Seed: seed, AssignIDs: true})
	if err != nil {
		return nil, err
	}
	docs := g.Corpus(trials)
	rep := &SoundnessReport{Trials: trials}

	const workers = 4
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int32
	)
	var firstErr error
	// DTD/s-DTD validation compiles through the process-wide automata
	// cache, which is concurrency-safe — all workers share the view
	// schemas directly (and share their compiled automata with every other
	// validation in the process).
	// checkOne validates one trial; a panic anywhere in evaluation or
	// validation is recovered and reported as an error naming the trial's
	// document root, so one pathological input fails the check instead of
	// crashing the process.
	checkOne := func(i int) (stop bool) {
		doc := docs[i]
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("tightness: panic checking trial %d (root element %q): %v", i, doc.Root.Name, r)
				}
				mu.Unlock()
				stop = true
			}
		}()
		view, err := engine.Eval(q, doc)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("tightness: eval failed on trial %d: %v", i, err)
			}
			mu.Unlock()
			return true
		}
		var verr error
		if viewDTD != nil {
			verr = viewDTD.Validate(view)
		}
		if verr == nil && viewSDTD != nil {
			verr = viewSDTD.Satisfies(view)
		}
		if verr != nil {
			mu.Lock()
			rep.Violations++
			if rep.First == "" {
				rep.First = fmt.Sprintf("violation on trial %d: %v\nsource: %s", i, verr, xmlmodel.MarshalElement(doc.Root, -1))
			}
			mu.Unlock()
		}
		return false
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= trials {
					return
				}
				if checkOne(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return rep, nil
}
