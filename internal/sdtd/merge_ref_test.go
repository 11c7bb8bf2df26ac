package sdtd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/regex"
)

// refMerge is (*SDTD).Merge as it was when it grouped the specializations
// in a map of slices keyed by base, kept as the reference the sorted-index
// version is compared against.
func refMerge(s *SDTD, bud *budget.Budget) (*dtd.DTD, []MergeEvent, error) {
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

// randomMergeInput builds an s-DTD for the Merge comparison: up to six
// bases with one to four specializations each, declared in a shuffled
// order so a base's specializations interleave with other bases'. A base
// is PCDATA or element content throughout, except that one in five bases
// mixes the two (Merge's error). Models come from a pool of three per base,
// so specializations with equal images are common. One s-DTD in ten loses a
// declaration to a delete, which makes Names rebuild its order.
func randomMergeInput(rng *rand.Rand) *SDTD {
	bases := []string{"a", "b", "c", "d", "e", "f"}[:1+rng.Intn(6)]
	atom := func() regex.Expr {
		return regex.NmT(bases[rng.Intn(len(bases))], rng.Intn(3))
	}
	var model func(depth int) regex.Expr
	model = func(depth int) regex.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return atom()
		}
		switch rng.Intn(5) {
		case 0:
			return regex.Cat(model(depth-1), model(depth-1))
		case 1:
			return regex.Or(model(depth-1), model(depth-1))
		case 2:
			return regex.Rep(model(depth - 1))
		case 3:
			return regex.Maybe(model(depth - 1))
		}
		return regex.Rep1(model(depth - 1))
	}
	type decl struct {
		n Name
		t dtd.Type
	}
	var decls []decl
	for _, b := range bases {
		pool := []regex.Expr{model(3), model(3), model(3)}
		kind := rng.Intn(5) // 0: PCDATA, 1: mixed kinds, else element content
		for _, tag := range rng.Perm(4)[:1+rng.Intn(4)] {
			t := dtd.M(pool[rng.Intn(len(pool))])
			if kind == 0 || (kind == 1 && rng.Intn(2) == 0) {
				t = dtd.PC()
			}
			decls = append(decls, decl{regex.T(b, tag), t})
		}
	}
	rng.Shuffle(len(decls), func(i, j int) { decls[i], decls[j] = decls[j], decls[i] })
	s := New(regex.N("root"))
	s.Declare(s.Root, dtd.M(regex.Rep(atom())))
	for _, d := range decls {
		s.Declare(d.n, d.t)
	}
	if rng.Intn(10) == 0 {
		delete(s.Types, decls[rng.Intn(len(decls))].n)
	}
	return s
}

// TestMergeMatchesReference: on seeded random s-DTDs, Merge declares the
// same DTD text, emits the same events and fails with the same error as the
// map-based reference.
func TestMergeMatchesReference(t *testing.T) {
	const cases = 5000
	rng := rand.New(rand.NewSource(1))
	var multi, single, clashes, distinct int
	for i := 0; i < cases; i++ {
		s := randomMergeInput(rng)
		text := s.String()
		got, gotEv, gotErr := s.Merge(nil)
		want, wantEv, wantErr := refMerge(s, nil)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("case %d: error %v, reference %v\n%s", i, gotErr, wantErr, text)
		}
		if wantErr != nil {
			clashes++
			continue
		}
		if got.String() != want.String() {
			t.Fatalf("case %d: DTD\n%s\nreference\n%s\nfrom\n%s", i, got, want, text)
		}
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("case %d: events %v, reference %v\n%s", i, gotEv, wantEv, text)
		}
		multi += len(wantEv)
		single += len(want.Types) - len(wantEv)
		for _, ev := range wantEv {
			if ev.Distinct {
				distinct++
			}
		}
	}
	// The comparison is only as good as the shapes it saw.
	for what, n := range map[string]int{"multi-spec bases": multi, "single-spec bases": single, "PCDATA/model clashes": clashes, "distinct merges": distinct} {
		if n < cases/10 {
			t.Errorf("only %d %s over %d s-DTDs", n, what, cases)
		}
	}
	t.Logf("%d s-DTDs: %d multi-spec bases (%d distinct), %d single-spec bases, %d clashes", cases, multi, distinct, single, clashes)
}
