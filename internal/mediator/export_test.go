package mediator

import "context"

// What the external tests of this directory (package mediator_test, which may
// import internal/load where this package's own tests may not) need of the
// package's insides.

// PlanText plans a query text against the named view as Read does, with
// pruning on. It reports whether the plan was found rather than made, and
// how many of the view's parts the plan leaves out.
func (m *Mediator) PlanText(ctx context.Context, viewName string, text []byte) (hit bool, pruned int, err error) {
	v, err := m.View(viewName)
	if err != nil {
		return false, 0, err
	}
	plan, hit, _, err := m.planFor(ctx, v, nil, text, true, m.InferenceBudget())
	if err != nil {
		return false, 0, err
	}
	return hit, len(plan.pruned), nil
}
