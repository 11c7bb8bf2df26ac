// Delta maintenance: per-source invalidation over the static view→source
// dependency index. Invalidate (mediator.go) remains the blunt instrument —
// every source generation bumps. InvalidateSource is the scoped form: it
// bumps the generation of one source and of the views re-exported as sources
// (AsSource) that transitively depend on it, and nothing else — the
// generation fence makes exactly the part slots over those sources stale, so
// the next materialization of an affected view refetches only them and
// serves every other part from its slot. The two differ in which
// generations they bump and in nothing else; what a refetch then costs is
// decided by what it brings back (evalPart). Answers stay bit-identical to
// full rematerialization (differential-tested).
package mediator

import (
	"fmt"
	"sort"
)

// InvalidateSource announces a change of one source: view parts over it
// (directly, or through stacked views of this mediator) become stale,
// while every other cached part result stays valid. It returns the sorted
// names of the affected views and ErrUnknownSource when no such source is
// registered. Running computations of the stale parts are detached exactly
// as in Invalidate: they answer their waiting callers but are not kept.
func (m *Mediator) InvalidateSource(source string) ([]string, error) {
	m.mu.Lock()
	if _, ok := m.wrappers[source]; !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("mediator: %w %s", ErrUnknownSource, source)
	}
	affected := map[string]bool{}
	seen := map[string]bool{source: true}
	work := []string{source}
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		m.srcGen[src]++
		for vn := range m.deps[src] {
			if affected[vn] {
				continue
			}
			affected[vn] = true
			// Transitive closure through stacked mediators: a view exposed
			// with AsSource is itself a source of this mediator, so views
			// over it inherit the staleness.
			for wname, w := range m.wrappers {
				if vs, ok := w.(*viewSource); ok && vs.m == m && vs.v.Name == vn && !seen[wname] {
					seen[wname] = true
					work = append(work, wname)
				}
			}
		}
	}
	m.mu.Unlock()
	m.stats.add(&m.stats.SourceInvalidations, 1)
	views := make([]string, 0, len(affected))
	for vn := range affected {
		views = append(views, vn)
	}
	sort.Strings(views)
	return views, nil
}
