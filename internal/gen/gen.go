// Package gen generates random valid documents from a DTD — the synthetic
// workload substrate for soundness testing (Definition 3.1 quantifies over
// all source documents; we sample) and for the benchmark harness. The
// generator walks each content model's DFA, choosing uniformly among
// transitions whose subtrees fit the remaining depth budget and stopping at
// accepting states with a probability that grows the sequences only
// moderately; when the budget is exhausted it switches to a precomputed
// minimal completion policy, which guarantees termination even for
// recursive DTDs.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// Options controls document generation.
type Options struct {
	// Seed seeds the deterministic PRNG.
	Seed int64
	// MaxDepth bounds element nesting softly; past it the generator takes
	// minimal completions. Default 12.
	MaxDepth int
	// LengthBias in (0,1]: probability of stopping at an accepting state
	// per step once at least one symbol has been emitted; higher = shorter
	// child sequences. Default 0.35.
	LengthBias float64
	// TextPool supplies PCDATA values; a value is picked uniformly.
	TextPool []string
	// AssignIDs gives every generated element a unique ID.
	AssignIDs bool
}

func (o Options) withDefaults() Options {
	if o.MaxDepth == 0 {
		o.MaxDepth = 12
	}
	if o.LengthBias == 0 {
		o.LengthBias = 0.35
	}
	if len(o.TextPool) == 0 {
		o.TextPool = []string{"CS", "EE", "alpha", "beta", "gamma", "x1", "t42"}
	}
	return o
}

// validate rejects option values that would silently produce degenerate
// corpora: a LengthBias outside (0,1] either never stops growing child
// sequences (≤ 0 after defaulting is impossible, but negatives reach here
// before defaulting) or is a meaningless probability above 1, and a
// negative MaxDepth forces every element onto the minimal-completion path,
// collapsing all documents to the same skeleton. Zero values still mean
// "use the default".
func (o Options) validate() error {
	if o.LengthBias < 0 || o.LengthBias > 1 {
		return fmt.Errorf("gen: LengthBias must be in (0,1] (0 for the default), got %v", o.LengthBias)
	}
	if o.MaxDepth < 0 {
		return fmt.Errorf("gen: MaxDepth must be positive (0 for the default), got %d", o.MaxDepth)
	}
	return nil
}

// policy is the per-name walking machinery: the content model DFA, plain
// shortest-distance-to-accept, the min-max completion cost R (the smallest
// c such that an accepting path exists using only symbols whose subtree
// cost is ≤ c), and a forced-move table that follows an R-optimal
// completion and provably terminates.
type policy struct {
	dfa  *automata.DFA
	dist []int // shortest #moves to acceptance; -1 unreachable
	r    []int // min over accepting paths of max symbol cost; -1 unreachable
	next []int // forced move (alphabet index) on an R-optimal path; -1 at acceptance
}

// Generator produces random documents valid under a fixed DTD.
type Generator struct {
	dtd      *dtd.DTD
	opts     Options
	rng      *rand.Rand
	policies map[string]*policy
	// cost[n] = minimal element-tree depth needed to realize name n;
	// -1 for unrealizable names.
	cost map[string]int
}

// New builds a generator for the DTD. It fails when the document type is
// unrealizable — no finite valid document exists at all.
func New(d *dtd.DTD, opts Options) (*Generator, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if errs := d.Check(); len(errs) > 0 {
		return nil, fmt.Errorf("gen: inconsistent DTD: %v", errs[0])
	}
	g := &Generator{
		dtd:      d,
		opts:     opts.withDefaults(),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		policies: map[string]*policy{},
		cost:     map[string]int{},
	}
	g.computeCosts()
	if g.cost[d.Root] < 0 {
		return nil, fmt.Errorf("gen: document type %s is unrealizable", d.Root)
	}
	return g, nil
}

// computeCosts computes the minimal realization depth of each name: 1 for
// PCDATA, and 1 + the minimal over accepting words of the maximal child
// cost otherwise. Names left at -1 are unrealizable.
func (g *Generator) computeCosts() {
	for _, n := range g.dtd.Names() {
		g.cost[n] = -1
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.dtd.Names() {
			t := g.dtd.Types[n]
			var c int
			if t.PCDATA {
				c = 1
			} else {
				body := g.minWordCost(t.Model)
				if body < 0 {
					continue
				}
				c = 1 + body
			}
			if g.cost[n] == -1 || c < g.cost[n] {
				g.cost[n] = c
				changed = true
			}
		}
	}
}

// minWordCost returns the minimal over words w ∈ L(e) of the max cost of
// the names in w (0 for the empty word), or -1 when no word over currently
// realizable names exists. It is exact for the fixpoint in computeCosts
// because it is monotone in g.cost.
func (g *Generator) minWordCost(e regex.Expr) int {
	switch v := e.(type) {
	case regex.Empty:
		return 0
	case regex.Fail:
		return -1
	case regex.Atom:
		return g.cost[v.Name.Base] // -1 when unrealizable
	case regex.Opt, regex.Star:
		return 0
	case regex.Plus:
		return g.minWordCost(v.Sub)
	case regex.Concat:
		worst := 0
		for _, it := range v.Items {
			c := g.minWordCost(it)
			if c < 0 {
				return -1
			}
			if c > worst {
				worst = c
			}
		}
		return worst
	case regex.Alt:
		best := -1
		for _, it := range v.Items {
			c := g.minWordCost(it)
			if c >= 0 && (best < 0 || c < best) {
				best = c
			}
		}
		return best
	}
	panic(fmt.Sprintf("gen: unknown node %T", e))
}

func (g *Generator) policy(name string) *policy {
	if p, ok := g.policies[name]; ok {
		return p
	}
	// Restrict to realizable names so walks never enter dead symbols. The
	// generator is an offline tool over DTDs of the caller's choosing: no
	// budget, and a nil one cannot fail.
	d, _ := automata.FromExpr(g.dtd.Types[name].Model, nil)
	d = d.RestrictTo(func(n regex.Name) bool { return g.cost[n.Base] >= 0 })
	p := &policy{dfa: d, dist: d.DistToAccept()}
	p.r = g.completionCost(d)
	p.next = g.forcedMoves(d, p.r)
	g.policies[name] = p
	return p
}

// completionCost computes R[s]: the minimal over accepting paths from s of
// the maximal symbol cost on the path (0 when s accepts), by fixpoint
// relaxation: R[s] = min over moves of max(cost(sym), R[next]).
func (g *Generator) completionCost(d *automata.DFA) []int {
	const inf = 1 << 30
	r := make([]int, d.NumStates())
	for s := range r {
		if d.Accept[s] {
			r[s] = 0
		} else {
			r[s] = inf
		}
	}
	for changed := true; changed; {
		changed = false
		for s := range r {
			if d.Accept[s] {
				continue
			}
			best := r[s]
			for ai := range d.Alphabet {
				c := g.cost[d.Alphabet[ai].Base]
				if c < 0 {
					continue
				}
				next := d.Trans[s][ai]
				if r[next] >= inf {
					continue
				}
				v := c
				if r[next] > v {
					v = r[next]
				}
				if v < best {
					best = v
				}
			}
			if best < r[s] {
				r[s] = best
				changed = true
			}
		}
	}
	for s := range r {
		if r[s] >= inf {
			r[s] = -1
		}
	}
	return r
}

// forcedMoves computes, for every non-accepting state with finite R, a
// transition on an R-optimal path that strictly approaches acceptance: a
// BFS backward from accepting states inside the subgraph of moves with
// max(cost(sym), R[next]) ≤ R[s]. Following these moves terminates in at
// most NumStates steps.
func (g *Generator) forcedMoves(d *automata.DFA, r []int) []int {
	next := make([]int, d.NumStates())
	depth := make([]int, d.NumStates())
	for s := range next {
		next[s] = -1
		depth[s] = -1
		if d.Accept[s] {
			depth[s] = 0
		}
	}
	for changed := true; changed; {
		changed = false
		for s := range next {
			if d.Accept[s] || r[s] < 0 {
				continue
			}
			for ai := range d.Alphabet {
				c := g.cost[d.Alphabet[ai].Base]
				if c < 0 {
					continue
				}
				ns := d.Trans[s][ai]
				if r[ns] < 0 || depth[ns] < 0 {
					continue
				}
				v := c
				if r[ns] > v {
					v = r[ns]
				}
				if v > r[s] {
					continue // not on an R-optimal path
				}
				if depth[s] < 0 || depth[ns]+1 < depth[s] {
					depth[s] = depth[ns] + 1
					next[s] = ai
					changed = true
				}
			}
		}
	}
	return next
}

// Document generates one random valid document.
func (g *Generator) Document() *xmlmodel.Document {
	root := g.Element(g.dtd.Root, g.opts.MaxDepth)
	doc := &xmlmodel.Document{DocType: g.dtd.Root, Root: root}
	if g.opts.AssignIDs {
		// Error impossible: all IDs are fresh.
		_ = root.AssignIDs("e")
	}
	return doc
}

// Element generates a random element of the given name within the depth
// budget. The name must be realizable (New rejects DTDs whose document
// type is not; other names are reached only through realizable models).
func (g *Generator) Element(name string, depth int) *xmlmodel.Element {
	t := g.dtd.Types[name]
	if t.PCDATA {
		return xmlmodel.NewText(name, g.opts.TextPool[g.rng.Intn(len(g.opts.TextPool))])
	}
	p := g.policy(name)
	e := xmlmodel.NewElement(name)
	state := p.dfa.Start
	emitted := 0
	forced := depth <= g.cost[name]
	for {
		if p.dfa.Accept[state] {
			if forced || (emitted > 0 && g.rng.Float64() < g.opts.LengthBias) {
				return e
			}
		}
		var sym int
		if forced {
			sym = p.next[state]
			if sym < 0 {
				return e // accepting (or no completion; cannot happen for realizable names)
			}
		} else {
			// Random choice among in-budget live moves.
			var moves []int
			for ai := range p.dfa.Alphabet {
				ns := p.dfa.Trans[state][ai]
				c := g.cost[p.dfa.Alphabet[ai].Base]
				if c >= 0 && c <= depth-1 && p.dist[ns] >= 0 {
					moves = append(moves, ai)
				}
			}
			if len(moves) == 0 {
				// Nothing fits the budget: finish minimally from here.
				forced = true
				continue
			}
			sym = moves[g.rng.Intn(len(moves))]
		}
		child := g.Element(p.dfa.Alphabet[sym].Base, depth-1)
		e.Children = append(e.Children, child)
		state = p.dfa.Trans[state][sym]
		emitted++
	}
}

// Corpus generates n documents.
func (g *Generator) Corpus(n int) []*xmlmodel.Document {
	out := make([]*xmlmodel.Document, n)
	for i := range out {
		out[i] = g.Document()
	}
	return out
}

// Describe summarizes a corpus for logging: count, total and mean element
// counts.
func Describe(docs []*xmlmodel.Document) string {
	total := 0
	for _, d := range docs {
		total += d.Root.Size()
	}
	mean := 0.0
	if len(docs) > 0 {
		mean = float64(total) / float64(len(docs))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d documents, %d elements total, %.1f mean", len(docs), total, mean)
	return b.String()
}
