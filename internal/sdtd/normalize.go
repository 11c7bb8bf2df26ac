package sdtd

import (
	"sort"

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
func (s *SDTD) Normalize() *SDTD {
	return s.NormalizeBudget(nil)
}

// NormalizeBudget is Normalize under a resource budget. Exhaustion
// degrades rather than errors: an equivalence check that cannot complete
// treats the two specializations as distinct (they are simply not
// collapsed — a larger but equally correct s-DTD), and content-model
// reduction falls back to syntactic simplification.
func (s *SDTD) NormalizeBudget(bud *budget.Budget) *SDTD {
	names := s.Names()
	// class representative for each name; start: coarsest plausible
	// partition keyed by (base, kind).
	rep := map[Name]Name{}
	classOf := map[string][]Name{}
	keyOf := func(n Name) string {
		t := s.Types[n]
		if t.PCDATA {
			return n.Base + "\x00pcdata"
		}
		return n.Base + "\x00model"
	}
	for _, n := range names {
		k := keyOf(n)
		classOf[k] = append(classOf[k], n)
	}
	for _, members := range classOf {
		r := lowestTag(members)
		for _, n := range members {
			rep[n] = r
		}
	}

	rewrite := func(e regex.Expr) regex.Expr {
		return regex.Rename(e, func(n Name) Name {
			if r, ok := rep[n]; ok {
				return r
			}
			return n
		})
	}

	for changed := true; changed; {
		changed = false
		// Group current classes.
		groups := map[Name][]Name{}
		for _, n := range names {
			groups[rep[n]] = append(groups[rep[n]], n)
		}
		for r, members := range groups {
			if len(members) < 2 {
				continue
			}
			if s.Types[r].PCDATA {
				continue // all PCDATA specializations are equivalent
			}
			// Split members by equivalence with the representative under
			// the current identification.
			base := rewrite(s.Types[r].Model)
			var stay, leave []Name
			for _, n := range members {
				same := n == r
				if !same {
					eq, err := automata.EquivalentBudget(base, rewrite(s.Types[n].Model), bud)
					same = err == nil && eq
				}
				if same {
					stay = append(stay, n)
				} else {
					leave = append(leave, n)
				}
			}
			if len(leave) == 0 {
				continue
			}
			changed = true
			// Leavers get their own class(es); a single new class here is
			// refined further in later rounds if needed.
			nr := lowestTag(leave)
			for _, n := range leave {
				rep[n] = nr
			}
		}
	}

	// Renumber surviving representatives densely per base from 0 (an s-DTD
	// is self-contained; tag numbers carry no meaning beyond identity).
	survivors := map[string][]Name{}
	for _, n := range names {
		r := rep[n]
		if r == n {
			survivors[n.Base] = append(survivors[n.Base], n)
		}
	}
	final := map[Name]Name{}
	for base, reps := range survivors {
		sort.Slice(reps, func(i, j int) bool { return reps[i].Tag < reps[j].Tag })
		for i, r := range reps {
			final[r] = Name{Base: base, Tag: i}
		}
	}
	target := func(n Name) Name { return final[rep[n]] }

	out := New(target(s.Root))
	seen := map[Name]bool{}
	for _, n := range names {
		tn := target(n)
		if seen[tn] {
			continue
		}
		seen[tn] = true
		t := s.Types[n]
		if t.PCDATA {
			out.Declare(tn, t)
			continue
		}
		model := regex.Rename(t.Model, target)
		out.Declare(tn, dtd.M(automata.ReduceBudget(model, bud)))
	}
	return out
}

func lowestTag(members []Name) Name {
	r := members[0]
	for _, n := range members[1:] {
		if n.Tag < r.Tag {
			r = n
		}
	}
	return r
}
