package infer

import (
	"sort"

	"repro/internal/dtd"
	"repro/internal/regex"
)

// DTDClass identifies the tractable DTD classes of the XPath-satisfiability
// literature (Ishihara et al., see PAPERS.md), transposed to content models:
//
//   - duplicate-free (DF): each element name occurs at most once in each
//     content model (after restriction to realizable names);
//   - disjunction-capsuled (DC): every disjunction in every content model
//     lies under a repetition operator (*, +), so alternatives never
//     exclude one another — any of them can be realized by repeating.
//
// Surveys of real-world DTDs find almost all of them in one of these
// classes, and on them the occurrence-structure decision procedure below
// is exact, so query-time pruning never needs the full inference
// machinery. A DTD in neither class still gets one-sided answers (proofs
// of unsatisfiability are valid for any DTD); the rest fall back to the
// budgeted classifier.
type DTDClass int

const (
	// ClassGeneral: no structural guarantee; the fast procedure only
	// yields proofs of unsatisfiability.
	ClassGeneral DTDClass = iota
	// ClassDuplicateFree: every content model mentions each name at most
	// once.
	ClassDuplicateFree
	// ClassDisjunctionCapsuled: every disjunction is under a * or +.
	ClassDisjunctionCapsuled
)

func (c DTDClass) String() string {
	switch c {
	case ClassDuplicateFree:
		return "duplicate-free"
	case ClassDisjunctionCapsuled:
		return "disjunction-capsuled"
	}
	return "general"
}

// pstep is one ancestor on the root-to-atom path of an occurrence: the
// ancestor's preorder id, the index of the child taken, whether the
// ancestor is a disjunction, and whether it is itself covered by a
// repetition operator.
type pstep struct {
	id    int
	child int
	alt   bool
	star  bool
}

// occurrence is one syntactic position of a base name in a content model.
type occurrence struct {
	// star reports a *, + ancestor: the position can repeat in one word.
	star bool
	path []pstep
}

// conflict reports whether two distinct occurrences can never appear in
// the same word: their lowest common ancestor is a disjunction that is not
// covered by a repetition, so one branch excludes the other. This is a
// sound exclusion argument for arbitrary models, and on DF models it is
// exact (see modelInfo.exact).
func conflict(x, y occurrence) bool {
	n := len(x.path)
	if len(y.path) < n {
		n = len(y.path)
	}
	for i := 0; i < n; i++ {
		if x.path[i].child != y.path[i].child {
			return x.path[i].alt && !x.path[i].star
		}
	}
	return false // one atom on the spine of the other: cannot happen for distinct leaves
}

// modelInfo is the occurrence structure of one content model, restricted
// to realizable names.
type modelInfo struct {
	class DTDClass
	// occs lists the occurrences of each base name, in syntactic order.
	occs map[string][]occurrence
	// bases holds the occurring base names, sorted.
	bases []string
}

// exact reports whether the occurrence rules decide word-level
// realizability exactly for this model (duplicate-free or
// disjunction-capsuled), rather than only proving unsatisfiability.
func (mi *modelInfo) exact() bool { return mi.class != ClassGeneral }

// analyzeModel computes the occurrence structure and class of a content
// model (already restricted to realizable names and simplified).
func analyzeModel(model regex.Expr) *modelInfo {
	mi := &modelInfo{class: ClassDisjunctionCapsuled, occs: map[string][]occurrence{}}
	dc := true
	nextID := 0
	var walk func(e regex.Expr, path []pstep, underStar bool)
	walk = func(e regex.Expr, path []pstep, underStar bool) {
		id := nextID
		nextID++
		switch v := e.(type) {
		case regex.Atom:
			mi.occs[v.Name.Base] = append(mi.occs[v.Name.Base],
				occurrence{star: underStar, path: append([]pstep(nil), path...)})
		case regex.Concat:
			for i, it := range v.Items {
				walk(it, append(path, pstep{id: id, child: i, star: underStar}), underStar)
			}
		case regex.Alt:
			if !underStar {
				dc = false
			}
			for i, it := range v.Items {
				walk(it, append(path, pstep{id: id, child: i, alt: true, star: underStar}), underStar)
			}
		case regex.Star:
			walk(v.Sub, append(path, pstep{id: id, star: underStar}), true)
		case regex.Plus:
			walk(v.Sub, append(path, pstep{id: id, star: underStar}), true)
		case regex.Opt:
			walk(v.Sub, append(path, pstep{id: id, star: underStar}), underStar)
		}
	}
	walk(model, nil, false)
	df := true
	for b, L := range mi.occs {
		mi.bases = append(mi.bases, b)
		if len(L) > 1 {
			df = false
		}
	}
	sort.Strings(mi.bases)
	switch {
	case df:
		// DF takes precedence: the conflict+capacity rules are exact on it
		// even when disjunctions sit outside repetitions.
		mi.class = ClassDuplicateFree
	case dc:
		mi.class = ClassDisjunctionCapsuled
	default:
		mi.class = ClassGeneral
	}
	return mi
}

// needsRealizable decides whether one word of the model can carry, for
// every base b, at least needs[b] distinct positions named b.
//
// In proofs mode (exact=false) a false answer is a proof valid for ANY
// model: capacity (no repeated position and fewer syntactic occurrences
// than needed) and exclusion (every way of placing two required names
// crosses an unrepeated disjunction) arguments only ever under-approximate
// impossibility. A true answer merely means "not disproven".
//
// In exact mode (DF or DC models) the same rules are complete: a true
// answer comes with a constructive witness — choose one branch per
// unrepeated disjunction (forced consistently by the absence of
// conflicts), include every optional part, and pump each repetition once
// per needed position.
func needsRealizable(mi *modelInfo, needs map[string]int, exact bool) bool {
	bases := make([]string, 0, len(needs))
	for b := range needs {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, b := range bases {
		k := needs[b]
		L := mi.occs[b]
		if len(L) == 0 {
			return false
		}
		hasStar := false
		for _, o := range L {
			if o.star {
				hasStar = true
				break
			}
		}
		if hasStar {
			continue
		}
		if k > len(L) {
			return false
		}
		if k >= 2 {
			if exact && mi.class == ClassDuplicateFree {
				return false // single unrepeated occurrence cannot double
			}
			if !exact && allPairsConflict(L, L, true) {
				return false // pairwise exclusive occurrences cap the count at 1
			}
		}
	}
	for i := 0; i < len(bases); i++ {
		for j := i + 1; j < len(bases); j++ {
			la, lb := mi.occs[bases[i]], mi.occs[bases[j]]
			if exact && mi.class == ClassDuplicateFree {
				if conflict(la[0], lb[0]) {
					return false
				}
				continue
			}
			if exact {
				continue // DC: no unrepeated disjunctions, no conflicts
			}
			if allPairsConflict(la, lb, false) {
				return false
			}
		}
	}
	return true
}

// allPairsConflict reports whether every pair of occurrences (one from
// each list; distinct pairs only when same is true) conflicts.
func allPairsConflict(la, lb []occurrence, same bool) bool {
	for i, x := range la {
		for j, y := range lb {
			if same && i == j {
				continue
			}
			if !conflict(x, y) {
				return false
			}
		}
	}
	return true
}

// dtdInfo is the per-DTD analysis backing the fast satisfiability check:
// realizability, restricted content models, their occurrence structures,
// and the whole-DTD class (the weakest per-model class).
type dtdInfo struct {
	class      DTDClass
	realizable map[string]bool
	// pcdata marks realizable names with character content.
	pcdata map[string]bool
	// models maps each realizable element-content name to its analyzed
	// restricted model.
	models map[string]*modelInfo
}

// analyzeDTD computes the dtdInfo for a consistent DTD. Unrealizable
// names are mapped to Fail before analysis: they cannot occur in any
// finite document, so conditions requiring them are unsatisfiable and
// models mentioning them must not count those positions.
func analyzeDTD(d *dtd.DTD) *dtdInfo {
	info := &dtdInfo{
		class:      ClassDuplicateFree,
		realizable: d.Realizable(),
		pcdata:     map[string]bool{},
		models:     map[string]*modelInfo{},
	}
	worst := ClassDuplicateFree
	note := func(c DTDClass) {
		// The DTD-level class is the weakest model's: General < DC < DF
		// in guarantee strength, with mixed DF/DC reporting DC (both are
		// exact, so the distinction only matters for reporting).
		if c == ClassGeneral || worst == ClassGeneral {
			worst = ClassGeneral
		} else if c == ClassDisjunctionCapsuled || worst == ClassDisjunctionCapsuled {
			worst = ClassDisjunctionCapsuled
		}
	}
	for _, n := range d.Names() {
		if !info.realizable[n] {
			continue
		}
		t := d.Types[n]
		if t.PCDATA {
			info.pcdata[n] = true
			continue
		}
		restricted := regex.Simplify(regex.Map(t.Model, func(m regex.Name) regex.Expr {
			if info.realizable[m.Base] {
				return regex.At(m)
			}
			return regex.Bot()
		}), nil) // a DTD's own models, analysed once per DTD
		mi := analyzeModel(restricted)
		info.models[n] = mi
		note(mi.class)
	}
	info.class = worst
	return info
}
