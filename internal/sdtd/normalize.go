package sdtd

import (
	"slices"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/regex"
)

// Normalize collapses redundant specializations: tagged names of the same
// base whose definitions are language-equivalent (after recursively
// identifying equivalent tags) are merged into one, and the surviving tags
// are renumbered densely (tag 0 is preserved when present in a class). The
// paper's footnote 8 observes that the tightening algorithm introduces such
// duplicates — "the third one, named publication², has essentially the same
// type with publication¹" — and Normalize is what removes them.
//
// The computation is a partition refinement (bisimulation-style): start
// with all same-base, same-kind (PCDATA vs model) names identified, then
// split classes whose members' types differ as languages when every atom is
// rewritten to its class representative; repeat to fixpoint.
//
// Budget exhaustion degrades rather than errors: an equivalence check that
// cannot complete treats the two specializations as distinct (they are
// simply not collapsed — a larger but equally correct s-DTD), and
// content-model reduction falls back to syntactic simplification.
func (s *SDTD) Normalize(bud *budget.Budget) *SDTD {
	// The bookkeeping is dense: names holds the declared names sorted, so
	// the specializations of a base are one run of it in tag order, and
	// rep[i] is the position of the representative of names[i]'s class —
	// its lowest tag, hence its first member.
	names := s.Names()
	slices.SortFunc(names, Name.Compare)
	index := func(n Name) (int, bool) { return slices.BinarySearchFunc(names, n, Name.Compare) }
	types := make([]dtd.Type, len(names))
	rep := make([]int32, len(names))
	// Start from the coarsest plausible partition: one class per base and
	// kind (PCDATA or model).
	for i, n := range names {
		types[i], rep[i] = s.Types[n], int32(i)
		for j := i - 1; j >= 0 && names[j].Base == n.Base; j-- {
			if types[j].PCDATA == types[i].PCDATA {
				rep[i] = rep[j]
				break
			}
		}
	}
	toRep := func(n Name) Name {
		if i, ok := index(n); ok {
			return names[rep[i]]
		}
		return n
	}

	var heads, leave []int32 // a round's classes; the members leaving one of them
	for changed := true; changed; {
		changed = false
		heads = heads[:0]
		for i := range rep {
			if rep[i] == int32(i) && !types[i].PCDATA { // all PCDATA specializations are equivalent
				heads = append(heads, int32(i))
			}
		}
		for _, r := range heads {
			// Split the members by equivalence with the representative
			// under the current identification. The leavers become one
			// new class, refined further in later rounds if needed — once
			// the whole class is compared: toRep reads rep, and every member
			// must be renamed under the partition the representative was.
			var base regex.Expr
			leave = leave[:0]
			for i := int(r) + 1; i < len(names) && names[i].Base == names[r].Base; i++ {
				if rep[i] != r {
					continue
				}
				if base == nil {
					base = regex.Rename(types[r].Model, toRep)
				}
				if eq, err := automata.Equivalent(base, regex.Rename(types[i].Model, toRep), bud); err != nil || !eq {
					leave = append(leave, int32(i))
				}
			}
			for _, i := range leave {
				rep[i], changed = leave[0], true
			}
		}
	}

	// Renumber surviving representatives densely per base from 0 (an s-DTD
	// is self-contained; tag numbers carry no meaning beyond identity).
	tag := make([]int, len(names))
	for i, next := 0, 0; i < len(names); i++ {
		if i > 0 && names[i].Base != names[i-1].Base {
			next = 0
		}
		if rep[i] == int32(i) {
			tag[i] = next
			next++
		}
	}
	target := func(n Name) Name {
		if i, ok := index(n); ok {
			return Name{Base: n.Base, Tag: tag[rep[i]]}
		}
		return n
	}

	// A class is declared where its first member was, with that member's
	// type.
	out := NewSized(target(s.Root), len(names))
	declared := make([]bool, len(names))
	for _, n := range s.names() {
		i, _ := index(n)
		if declared[rep[i]] {
			continue
		}
		declared[rep[i]] = true
		t := types[i]
		if !t.PCDATA {
			t = dtd.M(automata.Reduce(regex.Rename(t.Model, target), bud))
		}
		out.Declare(target(n), t)
	}
	return out
}
