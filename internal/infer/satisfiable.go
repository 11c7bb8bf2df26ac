package infer

import (
	"context"
	"encoding/binary"
	"sort"

	"repro/internal/automata/cache"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmas"
)

// Verdict is the answer of a satisfiability test of a query's tree
// condition against a DTD. Its three values split the paper's Class along
// the only line that matters for fetch pruning: may the view be non-empty?
type Verdict int

const (
	// VerdictUnknown: the test could not decide (budget exhausted,
	// degraded classification, recursive path). Callers MUST treat it as
	// potentially satisfiable — fetch anyway, never skip unsoundly.
	VerdictUnknown Verdict = iota
	// VerdictUnsatisfiable: a proof that no document valid under the DTD
	// satisfies the condition. Always safe to act on.
	VerdictUnsatisfiable
	// VerdictSatisfiable: some valid document satisfies the condition.
	VerdictSatisfiable
)

func (v Verdict) String() string {
	switch v {
	case VerdictUnsatisfiable:
		return "unsatisfiable"
	case VerdictSatisfiable:
		return "satisfiable"
	}
	return "unknown"
}

// Satisfiability decides whether the query's tree condition is satisfiable
// by some document valid under src. Variables and "!=" constraints are
// ignored — an overapproximation, so VerdictUnsatisfiable remains a proof
// for the full query; text values are ignored too (a witness can always
// carry the required string).
//
// The decision runs in two tiers. The fast tier works on the occurrence
// structure of the content models (internal/infer/tractable.go): it is
// exact on duplicate-free and disjunction-capsuled models — the classes
// covering almost all real-world DTDs — and one-sided (proofs of
// unsatisfiability only) elsewhere. When the fast tier cannot decide, the
// full inference classifier runs under the budget attached to ctx
// (budget.NewContext); exhaustion or degradation yields VerdictUnknown,
// never an unsound skip.
func Satisfiability(ctx context.Context, q *xmas.Query, src *dtd.DTD) Verdict {
	if q == nil || q.Root == nil || src == nil {
		return VerdictUnknown
	}
	if errs := src.Check(); len(errs) > 0 {
		return VerdictUnknown
	}
	if q.Root.HasRecursive() {
		// The classifier does not handle recursive paths (Section 4.4) and
		// the occurrence rules only see one level; stay conservative.
		return VerdictUnknown
	}
	info := dtdInfoFor(src)
	if !q.Root.MatchesName(src.Root) || !info.realizable[src.Root] {
		return VerdictUnsatisfiable
	}
	f := &fastChecker{info: info, memo: map[fastKey]tri{}}
	switch f.condSat(q.Root, src.Root) {
	case triYes:
		return VerdictSatisfiable
	case triNo:
		return VerdictUnsatisfiable
	}
	return satisfiabilityFull(ctx, q, src)
}

// satisfiabilityFull runs the inference classifier (Section 4.2) under the
// context's budget. Degradation only ever loosens a classification toward
// Satisfiable, so an Unsatisfiable answer is a proof even from a degraded
// run; a Satisfiable answer from a degraded run is demoted to Unknown (a
// larger budget might still prove unsatisfiability, and Unknown keeps the
// verdict out of the cache).
func satisfiabilityFull(ctx context.Context, q *xmas.Query, src *dtd.DTD) Verdict {
	in := newInferencer(ctx, q, src)
	cls := in.queryClass()
	if err := in.err(); err != nil {
		return VerdictUnknown
	}
	if cls == Unsatisfiable {
		return VerdictUnsatisfiable
	}
	in.mu.Lock()
	nDegraded := len(in.degraded)
	in.mu.Unlock()
	if in.bud.Err() != nil || nDegraded > 0 {
		return VerdictUnknown
	}
	return VerdictSatisfiable
}

type tri int8

const (
	triUnknown tri = iota
	triNo
	triYes
)

type fastKey struct {
	c *xmas.Cond
	n string
}

// maxAssignments bounds the per-condition search over child-to-name
// assignments; beyond it the fast tier gives up (VerdictUnknown) and the
// budgeted classifier decides. Query conditions have a handful of children
// so the bound only trips on wildcard conditions over very wide DTDs.
const maxAssignments = 4096

// fastChecker decides condition satisfiability on the occurrence
// structure. condSat(c, n) asks: can some valid element named n satisfy c?
type fastChecker struct {
	info *dtdInfo
	memo map[fastKey]tri
}

func (f *fastChecker) condSat(c *xmas.Cond, n string) tri {
	key := fastKey{c, n}
	if v, ok := f.memo[key]; ok {
		return v
	}
	v := f.condSatUncached(c, n)
	f.memo[key] = v
	return v
}

func (f *fastChecker) condSatUncached(c *xmas.Cond, n string) tri {
	if !f.info.realizable[n] {
		return triNo
	}
	if c.HasText {
		if f.info.pcdata[n] {
			return triYes // the witness carries exactly the required string
		}
		return triNo
	}
	if len(c.Children) == 0 {
		return triYes
	}
	if f.info.pcdata[n] {
		return triNo // subconditions can never match inside character content
	}
	mi := f.info.models[n]
	if mi == nil {
		return triNo // defensive: realizable element content always has a model
	}

	// Options per child: the occurring names it could match, with the
	// recursive verdict for each. An option-less child is a proof of
	// unsatisfiability (no child element can ever witness it).
	type option struct {
		base string
		r    tri
	}
	opts := make([][]option, len(c.Children))
	combos := 1
	for i, cc := range c.Children {
		for _, b := range mi.bases {
			if !cc.MatchesName(b) {
				continue
			}
			if r := f.condSat(cc, b); r != triNo {
				opts[i] = append(opts[i], option{base: b, r: r})
			}
		}
		if len(opts[i]) == 0 {
			return triNo
		}
		combos *= len(opts[i])
		if combos > maxAssignments {
			return triUnknown
		}
	}

	// Enumerate assignments of children to names. For the word-level test,
	// a regular child needs its own position (the distinct-children
	// semantics); a qualifier needs only presence for refutations — it may
	// share a witness — but a dedicated position for affirmations, since a
	// shared child would additionally have to satisfy both conditions.
	idx := make([]int, len(c.Children))
	anySurvives := false
	for {
		needs := map[string]int{}
		quals := map[string]int{}
		allYes := true
		for i, cc := range c.Children {
			o := opts[i][idx[i]]
			if cc.Qualifier {
				quals[o.base]++
			} else {
				needs[o.base]++
			}
			if o.r != triYes {
				allYes = false
			}
		}
		relaxed := map[string]int{}
		dedicated := map[string]int{}
		for b, k := range needs {
			relaxed[b], dedicated[b] = k, k
		}
		for b, k := range quals {
			if relaxed[b] == 0 {
				relaxed[b] = 1
			}
			dedicated[b] += k
		}
		if needsRealizable(mi, relaxed, false) {
			anySurvives = true
			if allYes && mi.exact() && needsRealizable(mi, dedicated, true) {
				return triYes
			}
		}
		// Next assignment.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(opts[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	if !anySurvives {
		return triNo // every assignment is refuted by a model-independent proof
	}
	return triUnknown
}

// --- verdict cache -----------------------------------------------------

// DefaultSatisfiabilityCacheCapacity bounds the process-wide verdict
// cache. Entries are small (a key string and an int) so the bound is
// generous; distinct (query skeleton, DTD) pairs in a mediator workload
// number in the dozens.
const DefaultSatisfiabilityCacheCapacity = 4096

var satCache = cache.New(DefaultSatisfiabilityCacheCapacity)

// SatisfiabilityCached is Satisfiability through the process-wide verdict
// cache, keyed on the query's condition skeleton (names, structure, text
// and qualifier flags — not variables, text values or "!=" constraints,
// which do not affect the verdict) and the DTD's content (regex.Key of
// every model). Definitive verdicts are cached; Unknown never is — one
// budget's opinion must not shadow the answer a later, larger budget
// reaches, so its joiners ask for themselves. The second result reports
// whether the verdict was served from cache.
func SatisfiabilityCached(ctx context.Context, q *xmas.Query, src *dtd.DTD) (Verdict, bool) {
	if q == nil || q.Root == nil || src == nil {
		return VerdictUnknown, false
	}
	v, led, err := satCache.GetOrCompute(ctx, satisfiabilityKey(q, src), func() (any, bool, error) {
		verdict := Satisfiability(ctx, q, src)
		return verdict, verdict != VerdictUnknown, nil
	})
	if err != nil {
		return VerdictUnknown, false
	}
	return v.(Verdict), !led
}

// SatisfiabilityCacheStats snapshots the verdict cache's counters (the
// prune_verdict_hits/misses surfaced at /metrics). Misses include Unknown
// verdicts, which are recomputed every time by design.
func SatisfiabilityCacheStats() cache.Stats { return satCache.Stats() }

// PurgeSatisfiabilityCache empties the verdict cache (tests, and operators
// rotating DTDs out of service).
func PurgeSatisfiabilityCache() { satCache.Purge() }

// ResetSatisfiabilityCacheStats zeroes the verdict cache counters without
// touching entries.
func ResetSatisfiabilityCacheStats() { satCache.ResetStats() }

// dtdInfoCache memoizes analyzeDTD by DTD content. Its counters are not
// exported: the prune_verdict_* metrics must count verdict lookups only.
var dtdInfoCache = cache.New(128)

func dtdInfoFor(d *dtd.DTD) *dtdInfo {
	key := string(appendDTDKey(make([]byte, 0, 128), d))
	v, _, err := dtdInfoCache.GetOrCompute(context.Background(), key, func() (any, bool, error) {
		return analyzeDTD(d), true, nil
	})
	if err != nil {
		return analyzeDTD(d) // unreachable: the compute cannot fail
	}
	return v.(*dtdInfo)
}

// ClassifyDTD reports the DTD's tractable class (reported by mixquery
// -sat and the pruning span events).
func ClassifyDTD(d *dtd.DTD) DTDClass { return dtdInfoFor(d).class }

// satisfiabilityKey builds the verdict-cache key: a 'S'-tagged pair of the
// condition skeleton bytecode and the DTD bytecode. Both encodings are
// prefix codes (count- and length-framed like regex.Key), so the
// concatenation is injective.
func satisfiabilityKey(q *xmas.Query, src *dtd.DTD) string {
	b := make([]byte, 0, 256)
	b = append(b, 'S')
	b = appendCondKey(b, q.Root)
	b = appendDTDKey(b, src)
	return string(b)
}

// appendCondKey encodes the satisfiability-relevant skeleton of a
// condition tree: flags (recursive, has-text, qualifier), the sorted name
// disjunction, and the children as a multiset (each child encoded then
// sorted bytewise — sibling order never affects satisfiability, so
// reordered queries share a cache entry). Variables, ID variables and the
// text value are deliberately absent.
func appendCondKey(b []byte, c *xmas.Cond) []byte {
	var flags byte
	if c.Recursive {
		flags |= 1
	}
	if c.HasText {
		flags |= 2
	}
	if c.Qualifier {
		flags |= 4
	}
	b = append(b, 'C', flags)
	names := append([]string(nil), c.Names...)
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = binary.AppendUvarint(b, uint64(len(n)))
		b = append(b, n...)
	}
	kids := make([]string, len(c.Children))
	for i, k := range c.Children {
		kids[i] = string(appendCondKey(nil, k))
	}
	sort.Strings(kids)
	b = binary.AppendUvarint(b, uint64(len(kids)))
	for _, k := range kids {
		b = append(b, k...)
	}
	return b
}

// appendDTDKey encodes a DTD's content: root, then every declared name
// (sorted) with its kind and content-model bytecode.
func appendDTDKey(b []byte, d *dtd.DTD) []byte {
	b = append(b, 'D')
	b = binary.AppendUvarint(b, uint64(len(d.Root)))
	b = append(b, d.Root...)
	names := d.Names() // a copy: sorting must not reorder the DTD's own
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = binary.AppendUvarint(b, uint64(len(n)))
		b = append(b, n...)
		t := d.Types[n]
		if t.PCDATA {
			b = append(b, 'p')
			continue
		}
		b = append(b, 'm')
		b = regex.AppendKey(b, t.Model)
	}
	return b
}
