package infer_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/load"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/xmas"
)

// refNormalize is (*sdtd.SDTD).Normalize as it was when its
// bookkeeping was six maps — classOf, rep, groups, survivors, final, seen —
// kept as the reference the dense version is compared against. The
// partition refinement is the same; the maps made the order in which
// classes are visited random, which the result does not depend on while
// every equivalence check can finish.
func refNormalize(s *sdtd.SDTD, bud *budget.Budget) *sdtd.SDTD {
	names := s.Names()
	rep := map[regex.Name]regex.Name{}
	classOf := map[string][]regex.Name{}
	keyOf := func(n regex.Name) string {
		if s.Types[n].PCDATA {
			return n.Base + "\x00pcdata"
		}
		return n.Base + "\x00model"
	}
	for _, n := range names {
		k := keyOf(n)
		classOf[k] = append(classOf[k], n)
	}
	for _, members := range classOf {
		r := refLowestTag(members)
		for _, n := range members {
			rep[n] = r
		}
	}
	rewrite := func(e regex.Expr) regex.Expr {
		return regex.Rename(e, func(n regex.Name) regex.Name {
			if r, ok := rep[n]; ok {
				return r
			}
			return n
		})
	}
	for changed := true; changed; {
		changed = false
		groups := map[regex.Name][]regex.Name{}
		for _, n := range names {
			groups[rep[n]] = append(groups[rep[n]], n)
		}
		for r, members := range groups {
			if len(members) < 2 || s.Types[r].PCDATA {
				continue
			}
			base := rewrite(s.Types[r].Model)
			var leave []regex.Name
			for _, n := range members {
				same := n == r
				if !same {
					eq, err := automata.Equivalent(base, rewrite(s.Types[n].Model), bud)
					same = err == nil && eq
				}
				if !same {
					leave = append(leave, n)
				}
			}
			if len(leave) == 0 {
				continue
			}
			changed = true
			nr := refLowestTag(leave)
			for _, n := range leave {
				rep[n] = nr
			}
		}
	}
	survivors := map[string][]regex.Name{}
	for _, n := range names {
		if rep[n] == n {
			survivors[n.Base] = append(survivors[n.Base], n)
		}
	}
	final := map[regex.Name]regex.Name{}
	for base, reps := range survivors {
		sort.Slice(reps, func(i, j int) bool { return reps[i].Tag < reps[j].Tag })
		for i, r := range reps {
			final[r] = regex.Name{Base: base, Tag: i}
		}
	}
	target := func(n regex.Name) regex.Name { return final[rep[n]] }
	out := sdtd.New(target(s.Root))
	seen := map[regex.Name]bool{}
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
		out.Declare(tn, dtd.M(automata.Reduce(regex.Rename(t.Model, target), bud)))
	}
	return out
}

func refLowestTag(members []regex.Name) regex.Name {
	r := members[0]
	for _, n := range members[1:] {
		if n.Tag < r.Tag {
			r = n
		}
	}
	return r
}

// specializedCases is, for each of the 94 cases internal/load's infer.golden
// pins (the paper's examples; every schema family at every Width/Depth in
// 6–8, conditioned on one child of entry as a regular child and as a
// qualifier), the s-DTD inference holds just before it normalizes.
func specializedCases(t *testing.T) map[string]*sdtd.SDTD {
	const q12 = `papers = SELECT P
WHERE <department> <gradStudent> <publication> P:<title|author/> </publication> </gradStudent> </department>`
	texts := map[string][2]string{
		"paper/Q2-D1":   {infer.D1Text, infer.Q2Text},
		"paper/Q3-D1":   {infer.D1Text, infer.Q3Text},
		"paper/Q12-D11": {infer.D11Text, q12},
		"paper/Q12-D1":  {infer.D1Text, q12},
	}
	k := 0
	for _, fam := range load.Families() {
		for width := 6; width <= 8; width++ {
			for depth := 6; depth <= 8; depth++ {
				d, err := load.Synthesize(load.SchemaOptions{Seed: int64(1100 + k), Family: fam, Root: "probe", Width: width, Depth: depth})
				if err != nil {
					t.Fatal(err)
				}
				children := regex.Names(d.Types["entry"].Model)
				child := children[k%len(children)].Base
				k++
				for _, cond := range []string{"<" + child + "/>", "[<" + child + "/>]"} {
					texts[fmt.Sprintf("%s/w%d-d%d/%s", fam, width, depth, cond)] = [2]string{
						d.String(), "V = SELECT X WHERE <probe> X:<entry>" + cond + "</entry> </probe>"}
				}
			}
		}
	}
	out := map[string]*sdtd.SDTD{}
	for name, c := range texts {
		src, err := dtd.Parse(c[0])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := infer.Specialized(xmas.MustParse(c[1]), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	if len(out) != 94 {
		t.Fatalf("%d cases, want the golden file's 94", len(out))
	}
	return out
}

// TestNormalizeMatchesReference: the dense Normalize answers what the
// map version answers, to the byte, on what inference asks it — without a
// budget, and with one that was spent before the call, where every
// equivalence the syntax does not settle counts as a difference and nothing
// is reduced.
func TestNormalizeMatchesReference(t *testing.T) {
	spent := func() *budget.Budget {
		b := budget.New(budget.Limits{MaxStates: 1})
		_ = b.ChargeStates(2)
		return b
	}
	collapsed := 0
	for name, s := range specializedCases(t) {
		for _, bud := range []func() *budget.Budget{func() *budget.Budget { return nil }, spent} {
			got, want := s.Normalize(bud()), refNormalize(s, bud())
			if got.String() != want.String() {
				t.Errorf("%s (budget %v):\n%s\nthe reference:\n%s\nfrom:\n%s", name, bud() != nil, got, want, s)
			}
			if len(got.Types) < len(s.Types) {
				collapsed++
			}
		}
	}
	if collapsed == 0 {
		t.Error("no case had a specialization to collapse: the comparison compared nothing")
	}
	// Shapes inference does not produce: a class that splits in two rounds,
	// tags with gaps, a PCDATA and a model specialization of one base, and a
	// declaration order that is not the sorted one; and, last, classes where a
	// member compared after a leaver mentions that leaver — it must still be
	// renamed under the partition the round started with, or s and s^2 (both
	// "one s^1") are split and never merged again.
	for _, text := range []string{
		`<!DOCTYPE r [
		  <!ELEMENT r (a^5, a^2, a^9, a^7, b^3, b)>
		  <!ELEMENT a^9 (b^3)> <!ELEMENT a^2 (b)> <!ELEMENT a^5 (b^3, b)> <!ELEMENT a^7 (b, b^3)>
		  <!ELEMENT b^3 (c^1)> <!ELEMENT b (c^4)> <!ELEMENT c^4 (#PCDATA)> <!ELEMENT c^1 (#PCDATA)>
		]>`,
		`<!DOCTYPE r^2 [
		  <!ELEMENT x^3 (y^1 | y^2)> <!ELEMENT r^2 (x^1, x^3, r^1?)> <!ELEMENT r^1 (x^3, x^1, r^2?)>
		  <!ELEMENT x^1 (y^2 | y^1)> <!ELEMENT y^1 (#PCDATA)> <!ELEMENT y^2 (z*)> <!ELEMENT z (#PCDATA)>
		]>`,
		`<!DOCTYPE r [
		  <!ELEMENT r (s, s^1, s^2)> <!ELEMENT s (s^1)> <!ELEMENT s^1 (t)> <!ELEMENT s^2 (s^1)>
		  <!ELEMENT t (#PCDATA)>
		]>`,
		`<!DOCTYPE r [
		  <!ELEMENT r (s, s^1, s^2, s^3, s^4)> <!ELEMENT s (s^1)> <!ELEMENT s^1 (t)> <!ELEMENT s^2 (s^1)>
		  <!ELEMENT s^3 (s^2)> <!ELEMENT s^4 (s^4 | s^1)> <!ELEMENT t (#PCDATA)>
		]>`,
	} {
		s, err := sdtd.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Normalize(nil), refNormalize(s, nil); got.String() != want.String() {
			t.Errorf("normalized:\n%s\nthe reference:\n%s\nfrom:\n%s", got, want, s)
		}
	}
}
