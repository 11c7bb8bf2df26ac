package mediator

import (
	"net/http"
	"slices"
	"strings"
)

// Provenance reports how an answer departs from a complete, live evaluation
// of every part of its view. It is the one such record: QueryStats embeds
// it, a forward's FetchNote gathers the owner's across a cluster hop, and
// internal/serve turns it into the X-Mix-* response headers and back. The
// three source lists are sorted and pairwise disjoint.
type Provenance struct {
	// Degraded is true when at least one part was dropped because its
	// source's circuit breaker was open. The document then misses that
	// source's elements — still sound against the view DTD whenever the
	// per-part lists are independently optional, and never cached, so the
	// next materialization after the breaker closes is complete.
	Degraded bool
	// DegradedSources names the sources whose parts were dropped.
	DegradedSources []string
	// PrunedSources names the sources whose parts were proven unable to
	// contribute to the query at hand and were therefore never fetched (a
	// source is named only if every one of its parts was pruned). Pruning
	// is NOT degradation: the answer is exactly what the unpruned
	// evaluation would produce, the kept parts are cached as in any
	// materialization, and no breaker is involved.
	PrunedSources []string
	// StaleSources names the sources whose parts came from a ReplicaSet's
	// last-known-good document: every replica failed, so the part is
	// present and DTD-valid but possibly outdated. A stale part is never
	// cached — the next materialization retries the replicas — and does
	// not mark the result Degraded (nothing is missing).
	StaleSources []string
}

// EachHeader advertises p on a response through set, called once per header
// in this order: X-Mix-Degraded ("true") with X-Mix-Degraded-Sources,
// X-Mix-Pruned-Sources and X-Mix-Stale-Sources, each only when it has
// something to say.
func (p Provenance) EachHeader(set func(name, value string)) {
	if p.Degraded {
		set("X-Mix-Degraded", "true")
	}
	setCSV(set, "X-Mix-Degraded-Sources", p.DegradedSources)
	setCSV(set, "X-Mix-Pruned-Sources", p.PrunedSources)
	setCSV(set, "X-Mix-Stale-Sources", p.StaleSources)
}

func setCSV(set func(name, value string), name string, sources []string) {
	if len(sources) > 0 {
		set(name, strings.Join(sources, ","))
	}
}

// FromHeaders merges what EachHeader set on a response into p: the
// degraded flag is sticky, the lists become duplicate-free unions.
func (p *Provenance) FromHeaders(h http.Header) {
	if h.Get("X-Mix-Degraded") == "true" {
		p.Degraded = true
	}
	p.DegradedSources = mergeCSV(p.DegradedSources, h.Get("X-Mix-Degraded-Sources"))
	p.PrunedSources = mergeCSV(p.PrunedSources, h.Get("X-Mix-Pruned-Sources"))
	p.StaleSources = mergeCSV(p.StaleSources, h.Get("X-Mix-Stale-Sources"))
}

// mergeCSV appends the comma-separated names of csv to have, keeping the
// result duplicate-free and insertion-ordered. A header the peer did not send
// merges nothing and costs nothing.
func mergeCSV(have []string, csv string) []string {
	if csv == "" {
		return have
	}
	for _, n := range splitCSV(csv) {
		if !slices.Contains(have, n) {
			have = append(have, n)
		}
	}
	return have
}

// splitCSV splits a comma-separated header value, trimming blanks.
func splitCSV(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
