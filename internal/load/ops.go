package load

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"
)

// OpKind is one kind of operation in the mixed stream.
type OpKind string

const (
	// OpQuery posts a plain (qualifier-free) query to the load view.
	OpQuery OpKind = "query"
	// OpQualified posts a query with existential qualifiers or child
	// conditions — the shapes satisfiability pruning and the simplifier
	// act on; some are prunable against part of a heterogeneous fleet.
	OpQualified OpKind = "qualified"
	// OpMaterialize fetches the whole materialized view.
	OpMaterialize OpKind = "materialize"
	// OpInfer posts a DTD + view definition to /infer (inference as a
	// service, the CPU-bound request class).
	OpInfer OpKind = "infer"
	// OpInvalidate flushes every cached view part, forcing the next
	// materialize/query to re-fetch every source.
	OpInvalidate OpKind = "invalidate"
	// OpInvalidateSource delta-invalidates one randomly chosen source
	// ({"source": name} body): only the views depending on it recompute,
	// and only their parts over that source re-fetch — the traffic that
	// exercises the per-part cache and the dependency index.
	OpInvalidateSource OpKind = "invalidate-source"
)

// OpKinds returns every operation kind in canonical order.
func OpKinds() []OpKind {
	return []OpKind{OpQuery, OpQualified, OpMaterialize, OpInfer, OpInvalidate, OpInvalidateSource}
}

// MixEntry weights one operation kind in the stream.
type MixEntry struct {
	Kind   OpKind
	Weight int
}

// DefaultMix is the standard read-heavy serving mix: mostly queries, a
// qualified-query tier, periodic materializations and inferences, and
// rare cache invalidations — global and per-source in equal measure (the
// refresh traffic that makes singleflight, generation counters and delta
// maintenance earn their keep).
func DefaultMix() []MixEntry {
	return []MixEntry{
		{OpQuery, 8},
		{OpQualified, 4},
		{OpMaterialize, 2},
		{OpInfer, 1},
		{OpInvalidate, 1},
		{OpInvalidateSource, 1},
	}
}

// ParseMix parses a "kind=weight,kind=weight" flag value.
func ParseMix(s string) ([]MixEntry, error) {
	var out []MixEntry
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		kind, weightStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("load: bad mix entry %q (want kind=weight)", part)
		}
		var weight int
		if _, err := fmt.Sscanf(weightStr, "%d", &weight); err != nil {
			return nil, fmt.Errorf("load: bad weight in mix entry %q", part)
		}
		if !slices.Contains(OpKinds(), OpKind(kind)) {
			return nil, fmt.Errorf("load: unknown op kind %q in mix", kind)
		}
		if weight < 0 {
			return nil, fmt.Errorf("load: negative weight for %q", kind)
		}
		out = append(out, MixEntry{Kind: OpKind(kind), Weight: weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("load: empty mix")
	}
	return out, nil
}

// Op is one scheduled operation of the open-loop stream: what to send and
// when to send it, both fixed by the seed before the run starts.
type Op struct {
	// Kind classifies the operation for reporting and SLO evaluation.
	Kind OpKind
	// Method and Path address the serve.Handler endpoint; Body is the
	// request payload ("" for GETs).
	Method, Path, Body string
	// At is the scheduled send time as an offset from run start. The
	// schedule is open-loop: send times derive from the target rate alone,
	// never from completions, so a slow server faces mounting concurrency
	// instead of a conveniently self-throttling client.
	At time.Duration
}

// payloads are the request pools the planner draws from; built once per
// harness so the stream depends only on the seed and the fleet layout.
type payloads struct {
	plain     []string // plain query bodies
	qualified []string // qualified/conditioned query bodies
	infer     []string // /infer bodies (DOCTYPE + view definition)
	sources   []string // source names for invalidate-source bodies
	view      string   // view name
}

// plan produces the deterministic operation stream: n = rate × duration
// operations at constant spacing, kinds drawn from the weighted mix,
// payloads drawn uniformly from the pools, all under one seeded PRNG.
func plan(seed int64, rps float64, duration time.Duration, mix []MixEntry, p *payloads) []Op {
	n := int(rps * duration.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rps)
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		kind := OpQuery
		if total > 0 {
			w := rng.Intn(total)
			for _, m := range mix {
				if w < m.Weight {
					kind = m.Kind
					break
				}
				w -= m.Weight
			}
		}
		op := Op{Kind: kind, At: time.Duration(i) * interval}
		switch kind {
		case OpQuery:
			op.Method, op.Path = "POST", "/views/"+p.view+"/query"
			op.Body = p.plain[rng.Intn(len(p.plain))]
		case OpQualified:
			op.Method, op.Path = "POST", "/views/"+p.view+"/query"
			op.Body = p.qualified[rng.Intn(len(p.qualified))]
		case OpMaterialize:
			op.Method, op.Path = "GET", "/views/"+p.view
		case OpInfer:
			op.Method, op.Path = "POST", "/infer"
			op.Body = p.infer[rng.Intn(len(p.infer))]
		case OpInvalidate:
			op.Method, op.Path = "POST", "/invalidate"
		case OpInvalidateSource:
			op.Method, op.Path = "POST", "/invalidate"
			if len(p.sources) > 0 {
				op.Body = fmt.Sprintf("{\"source\": %q}", p.sources[rng.Intn(len(p.sources))])
			}
			// With no known sources (remote target whose /sources listing
			// failed) the empty body degrades to a global invalidate.
		}
		ops = append(ops, op)
	}
	return ops
}
