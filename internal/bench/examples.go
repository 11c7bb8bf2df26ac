package bench

import (
	"fmt"
	"io"

	"repro/internal/automata"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/infer"
	"repro/internal/regex"
)

// The experiments of this file put the paper's own examples — content models
// a handful of names long — to the automata package: every question runs
// with a nil budget, which is unlimited and cannot fail, so the error of each
// call is dropped.

func init() {
	register(&Experiment{
		ID:    "E1",
		Title: "Tightest plain view DTD for Q2 over D1",
		Paper: "Example 3.1, DTD (D2): order and cardinality discovery, type refinement",
		Run:   runE1,
	})
	register(&Experiment{
		ID:    "E2",
		Title: "Disjunction removal for Q3 over D1",
		Paper: "Example 3.2, DTD (D3)",
		Run:   runE2,
	})
	register(&Experiment{
		ID:    "E3",
		Title: "Tight specialized view DTD for Q2 over D1",
		Paper: "Example 3.4, s-DTD (D4); footnote 8's redundant specialization collapses",
		Run:   runE3,
	})
	register(&Experiment{
		ID:    "E4",
		Title: "Recursive views: rejection and the no-tightest-DTD chain",
		Paper: "Example 3.5, types T6 ⊋ T7 ⊋ T8; Section 4.4 footnote 9",
		Run:   runE4,
	})
	register(&Experiment{
		ID:    "E5",
		Title: "Type refinement refine(name,(journal|conference)*, journal)",
		Paper: "Example 4.1 over DTD (D9)",
		Run:   runE5,
	})
	register(&Experiment{
		ID:    "E6",
		Title: "Tagged refinement with two distinct journals (J1 != J2)",
		Paper: "Example 4.2 (Q7): the two-order disjunction",
		Run:   runE6,
	})
	register(&Experiment{
		ID:    "E7",
		Title: "Merging the s-DTD back to a plain DTD",
		Paper: "Example 4.3: Merge(D4) = (D10), simplified; non-tightness signalled",
		Run:   runE7,
	})
	register(&Experiment{
		ID:    "E8",
		Title: "Result-list type inference through a 4-step path",
		Paper: "Example 4.4 (Q12 over D11): papers : (title, author*)*",
		Run:   runE8,
	})
}

// compareRow checks one inferred type against the paper's and records it.
func compareRow(t *table, pass *bool, name, got, want string) {
	ok, _ := automata.Equivalent(regex.MustParse(got), regex.MustParse(want), nil)
	check(pass, ok)
	t.add(name, got, want, mark(ok))
}

func runE1(w io.Writer, cfg Config) (*Outcome, error) {
	res, err := infer.Infer(mustQuery(Q2), mustDTD(D1))
	if err != nil {
		return nil, err
	}
	out := &Outcome{Pass: true}
	t := &table{header: []string{"element", "inferred type", "paper (D2, sound form)", "verdict"}}
	expected := map[string]string{
		"withJournals": "professor*, gradStudent*",
		"professor":    "firstName, lastName, publication, publication+, teaches",
		"gradStudent":  "firstName, lastName, publication, publication+",
		"publication":  "title, author+, (journal | conference)",
	}
	for _, name := range []string{"withJournals", "professor", "gradStudent", "publication"} {
		compareRow(t, &out.Pass, name, res.DTD.Types[name].Model.String(), expected[name])
	}
	t.write(w, "    ")
	check(&out.Pass, res.Class == infer.Satisfiable)
	check(&out.Pass, res.NonTight)
	out.Notes = append(out.Notes,
		"paper's (D2) prints professor+, gradStudent+; the conditions are satisfiable, not valid, so the sound root type uses * (DESIGN.md §5.1)",
		"professors precede gradStudents in the root type: order discovered as in the paper",
		fmt.Sprintf("classification: %s; merge flagged non-tightness: %v", res.Class, res.NonTight))
	return out, nil
}

func runE2(w io.Writer, cfg Config) (*Outcome, error) {
	res, err := infer.Infer(mustQuery(Q3), mustDTD(D1))
	if err != nil {
		return nil, err
	}
	out := &Outcome{Pass: true}
	t := &table{header: []string{"element", "inferred type", "paper (D3, sound form)", "verdict"}}
	compareRow(t, &out.Pass, "publist", res.DTD.Types["publist"].Model.String(), "publication*")
	compareRow(t, &out.Pass, "publication", res.DTD.Types["publication"].Model.String(), "title, author+, journal")
	t.write(w, "    ")
	_, confDeclared := res.DTD.Types["conference"]
	check(&out.Pass, !confDeclared)
	check(&out.Pass, !res.NonTight)
	out.Notes = append(out.Notes,
		"the (journal|conference) disjunction was removed exactly as in Example 3.2",
		"conference is unreachable in the view and was pruned",
		"paper prints publication+; the sound form is publication* (a non-CS department yields an empty view)")
	return out, nil
}

func runE3(w io.Writer, cfg Config) (*Outcome, error) {
	res, err := infer.Infer(mustQuery(Q2), mustDTD(D1))
	if err != nil {
		return nil, err
	}
	out := &Outcome{Pass: true}
	s := res.SDTD
	fmt.Fprintf(w, "    inferred specialized view DTD:\n")
	for _, n := range s.Names() {
		fmt.Fprintf(w, "      <%s : %s>\n", n, s.Types[n])
	}
	// Two publication specializations (footnote 8: the redundant third
	// collapsed), one of them journal-only.
	tags := s.Specializations("publication")
	check(&out.Pass, len(tags) == 2)
	journalOnly := false
	for _, tg := range tags {
		m := s.Types[regex.T("publication", tg)].Model
		if eq, _ := automata.Equivalent(regex.Image(m), regex.MustParse("title, author+, journal"), nil); eq {
			journalOnly = true
		}
	}
	check(&out.Pass, journalOnly)
	// professor requires two journal-only publications among others.
	profWant := "firstName, lastName, publication*, publication^1, publication*, publication^1, publication*, teaches"
	prof := s.Types[regex.N("professor")].Model
	ok, _ := automata.Equivalent(prof, regex.MustParse(profWant), nil)
	check(&out.Pass, ok)
	out.Notes = append(out.Notes,
		fmt.Sprintf("professor type ≡ D4's (two publication¹ among publication*): %v", ok),
		fmt.Sprintf("publication specializations after normalization: %d (paper's footnote 8 predicts the third collapses)", len(tags)))
	return out, nil
}

func runE4(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}
	src := mustDTD(SectionDTD)
	q := mustQuery(QRecursive)
	_, err := infer.Infer(q, src)
	check(&out.Pass, err == infer.ErrRecursivePath)
	out.Notes = append(out.Notes, fmt.Sprintf("inference rejects the recursive view: %v", err))

	mk := func(model string) *regex.Expr { e := regex.MustParse(model); return &e }
	t6 := mk("(prolog | conclusion)*")
	t7 := mk("(prolog, (prolog | conclusion)*, conclusion)?")
	t8 := mk("(prolog, (prolog, (prolog | conclusion)*, conclusion)*, conclusion)?")
	t := &table{header: []string{"pair", "strictly tighter", "verdict"}}
	strictly := func(a, b *regex.Expr) bool {
		ab, _ := automata.Contains(*a, *b, nil)
		ba, _ := automata.Contains(*b, *a, nil)
		return ab && !ba
	}
	c76, c87 := strictly(t7, t6), strictly(t8, t7)
	check(&out.Pass, c76)
	check(&out.Pass, c87)
	t.add("T7 vs T6", fmt.Sprint(c76), mark(c76))
	t.add("T8 vs T7", fmt.Sprint(c87), mark(c87))
	t.write(w, "    ")

	// Every chain member is sound for sampled views.
	g, err := gen.New(src, gen.Options{Seed: cfg.Seed, MaxDepth: 8})
	if err != nil {
		return nil, err
	}
	trials := 200
	if cfg.Quick {
		trials = 40
	}
	unsound := 0
	for i := 0; i < trials; i++ {
		view, err := engine.Eval(q, g.Document())
		if err != nil {
			return nil, err
		}
		word := make([]regex.Name, len(view.Root.Children))
		for i, k := range view.Root.Children {
			word[i] = regex.N(k.Name)
		}
		for _, ty := range []*regex.Expr{t6, t7, t8} {
			if ok, _ := automata.MatchExpr(*ty, word, nil); !ok {
				unsound++
			}
		}
	}
	check(&out.Pass, unsound == 0)
	out.Notes = append(out.Notes,
		fmt.Sprintf("%d sampled views; all satisfied T6, T7 and T8 (0 soundness violations)", trials),
		"the view language (balanced prolog/conclusion sequences) is not regular: the chain never bottoms out, so no tightest DTD exists")
	return out, nil
}

func runE5(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}
	src := mustDTD(D9)
	base := src.Types["professor"].Model
	got := regex.Simplify(infer.RefineName(base, "journal"), nil)
	want := regex.MustParse("name, (journal|conference)*, journal, (journal|conference)*")
	ok, _ := automata.Equivalent(got, want, nil)
	check(&out.Pass, ok)
	t := &table{header: []string{"step", "expression"}}
	t.add("input type", base.String())
	t.add("refine(…, journal)", got.String())
	t.add("paper's result", want.String())
	t.write(w, "    ")
	out.Notes = append(out.Notes, fmt.Sprintf("language equivalence with Example 4.1's result: %v", ok))
	return out, nil
}

func runE6(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}
	base := mustDTD(D9).Types["professor"].Model
	r1 := infer.Refine(base, map[string]regex.Name{"journal": regex.T("journal", 1)}, nil)
	r2 := infer.Refine(r1, map[string]regex.Name{"journal": regex.T("journal", 2)}, nil)
	want := regex.MustParse(
		"(name, (journal|conference)*, journal^1, (journal|conference)*, journal^2, (journal|conference)*) | " +
			"(name, (journal|conference)*, journal^2, (journal|conference)*, journal^1, (journal|conference)*)")
	ok, _ := automata.Equivalent(r2, want, nil)
	check(&out.Pass, ok)
	t := &table{header: []string{"step", "expression"}}
	t.add("input type", base.String())
	t.add("after refine(…, journal^1)", regex.Simplify(r1, nil).String())
	t.add("after refine(…, journal^2)", regex.Simplify(r2, nil).String())
	t.write(w, "    ")
	out.Notes = append(out.Notes,
		fmt.Sprintf("equivalent to Example 4.2's two-order disjunction: %v", ok),
		"journal^1 cannot host the second refinement (Definition 4.2's base case), forcing two distinct occurrences")
	return out, nil
}

func runE7(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}
	res, err := infer.Infer(mustQuery(Q2), mustDTD(D1))
	if err != nil {
		return nil, err
	}
	merged, events, err := res.SDTD.Merge(nil)
	if err != nil {
		return nil, err
	}
	t := &table{header: []string{"element", "merged+simplified type", "expected (≡ D10 simplified)", "verdict"}}
	compareRow(t, &out.Pass, "professor", merged.Types["professor"].Model.String(),
		"firstName, lastName, publication, publication, publication*, teaches")
	compareRow(t, &out.Pass, "publication", merged.Types["publication"].Model.String(),
		"title, author+, (journal|conference)")
	t.write(w, "    ")
	distinct := 0
	for _, ev := range events {
		if ev.Distinct {
			distinct++
			out.Notes = append(out.Notes, "merge signal: "+ev.String())
		}
	}
	check(&out.Pass, distinct >= 1)
	out.Notes = append(out.Notes,
		"the publication⁰/publication¹ merge re-introduces the (journal|conference) disjunction — the inference module informs the user, as Section 4.3 requires",
		"paper says (D10) 'can be simplified to (D2)'; language-wise the merged professor keeps ≥2 publications, which D2's publication+ further loosens")
	return out, nil
}

func runE8(w io.Writer, cfg Config) (*Outcome, error) {
	out := &Outcome{Pass: true}
	res, err := infer.Infer(mustQuery(Q12), mustDTD(D11))
	if err != nil {
		return nil, err
	}
	got := res.DTD.Types["papers"].Model
	tight := regex.MustParse("(title, author*)+")
	paperForm := regex.MustParse("(title, author*)*")
	okTight, _ := automata.Equivalent(got, tight, nil)
	okSound, _ := automata.Contains(got, paperForm, nil)
	check(&out.Pass, okTight)
	check(&out.Pass, okSound)
	t := &table{header: []string{"quantity", "value"}}
	t.add("inferred papers type", got.String())
	t.add("paper's result", "(title, author*)*")
	t.add("contained in paper's", fmt.Sprint(okSound))
	t.add("classification", res.Class.String())
	t.write(w, "    ")
	out.Notes = append(out.Notes,
		"our validity analysis yields (title, author*)+ — strictly tighter than the paper's (title, author*)* and still sound: D11 guarantees ≥1 gradStudent with exactly one publication with exactly one title (EXPERIMENTS.md E8)")
	return out, nil
}
