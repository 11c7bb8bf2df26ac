package mediator

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/sdtd"
)

// UnionSDTDs combines the per-source view s-DTDs of a union view into one
// s-DTD whose root content model is the concatenation of the parts' root
// content models (the union view document lists each part's picks in
// order). Same-named types from different sources may genuinely differ —
// site A's professor need not look like site B's — so every part type is
// re-tagged into a fresh specialization of the union s-DTD, and the final
// Normalize pass, under the view definition's budget, collapses the ones
// that turn out to be equivalent (exhaustion keeps the unproven ones apart:
// sound, looser). This is precisely where s-DTDs shine: a plain DTD would be
// forced to merge the sources' types immediately and lose tightness.
func UnionSDTDs(root regex.Name, parts []*sdtd.SDTD, bud *budget.Budget) (*sdtd.SDTD, error) {
	out := sdtd.New(root)
	nextTag := map[string]int{}
	var rootModels []regex.Expr
	for i, p := range parts {
		rootType, ok := p.Types[p.Root]
		if !ok {
			return nil, fmt.Errorf("mediator: part %d s-DTD lacks its root type", i)
		}
		if rootType.PCDATA {
			return nil, fmt.Errorf("mediator: part %d root is PCDATA; cannot union", i)
		}
		// Fresh tags for every non-root name of this part.
		rename := map[regex.Name]regex.Name{}
		for _, n := range p.Names() {
			if n == p.Root {
				continue
			}
			nextTag[n.Base]++
			rename[n] = regex.T(n.Base, nextTag[n.Base])
		}
		mapName := func(n regex.Name) regex.Expr {
			if r, ok := rename[n]; ok {
				return regex.At(r)
			}
			return regex.At(n)
		}
		for _, n := range p.Names() {
			if n == p.Root {
				continue
			}
			t := p.Types[n]
			if t.PCDATA {
				out.Declare(rename[n], t)
			} else {
				out.Declare(rename[n], dtd.M(regex.Map(t.Model, mapName)))
			}
		}
		rootModels = append(rootModels, regex.Map(rootType.Model, mapName))
	}
	out.Declare(root, dtd.M(regex.Simplify(regex.Cat(rootModels...))))
	// Reorder so the root is declared first (cosmetic but deterministic).
	normalized := out.Normalize(bud)
	if errs := normalized.Check(); len(errs) > 0 {
		return nil, fmt.Errorf("mediator: union s-DTD inconsistent: %v", errs[0])
	}
	return normalized, nil
}
