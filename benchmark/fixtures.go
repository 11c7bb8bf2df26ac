package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// source is one synthesized source: its schema and one or two sized
// documents, pre-serialized exactly as a lower mediator would serve them
// (DOCTYPE with internal subset, then the document).
type source struct {
	name   string
	family load.Family
	dtd    *dtd.DTD
	docs   []*xmlmodel.Document // one per version
	bodies []string             // served bytes, one per version
}

// view is one union view over a run of consecutive sources, with the
// query pools reads draw from.
type view struct {
	name      string
	sources   []*source
	plain     []string // plain and text-selective queries (opQuery)
	qualified []string // existential / child-conditioned queries (opQualified)
}

// queries returns the view's whole query pool, plain first.
func (v *view) queries() []string {
	return append(append([]string(nil), v.plain...), v.qualified...)
}

// partQuery is the view-definition query of one part: pick every entry of
// the source.
func partQuery(src string) string {
	return fmt.Sprintf(`SELECT X WHERE <%s> X:<entry/> </%s>`, src, src)
}

// fixtures are a workload's seed-determined inputs. The program under
// test receives only these; nothing in the serving path sees the seed.
type fixtures struct {
	w        *workload
	seed     int64
	sources  []*source
	views    []*view
	inferHot []string // the hot /infer payload pool
	kinds    []opKind // mix expanded by weight
}

// Sized documents: gen.Options gives no size control (depth 10 / bias 0.12
// yields 15 MB for one family and 274 B for another), so documents are
// grown entry by entry to a byte target instead.
const (
	entryDepth = 6
	entryBias  = 0.35
	// selectiveNames is how many of the name texts the selective queries
	// ask for, in turn.
	selectiveNames = 4
)

// nameText is the i-th of the workload's distinct <name> texts. A query
// that selects on one of them answers with about 1/w.nameValues of the
// entries.
func nameText(i int) string { return fmt.Sprintf("t%d", 40+i) }

func buildFixtures(w *workload, seed int64) (*fixtures, error) {
	fx := &fixtures{w: w, seed: seed}
	versions := 1
	if w.versioned() {
		versions = 2
	}
	fams := load.Families()
	n := w.views * w.sourcesPerView
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("site%d", i)
		fam := fams[i%len(fams)]
		// The fleet's schemas are the same for every seed (so are the query
		// pools derived from them); the seed draws the documents.
		d, err := load.Synthesize(load.SchemaOptions{Seed: int64(i), Family: fam, Root: name})
		if err != nil {
			return nil, err
		}
		s := &source{name: name, family: fam, dtd: d}
		for v := 0; v < versions; v++ {
			doc, err := sizedDocument(d, seed*1000+int64(i)+int64(v)*500, w.docBytes, w.nameValues)
			if err != nil {
				return nil, fmt.Errorf("source %s: %w", name, err)
			}
			s.docs = append(s.docs, doc)
			s.bodies = append(s.bodies, dtd.MarshalDocument(doc, d, 2))
		}
		fx.sources = append(fx.sources, s)
	}
	for vi := 0; vi < w.views; vi++ {
		v := &view{name: fmt.Sprintf("v%d", vi), sources: fx.sources[vi*w.sourcesPerView : (vi+1)*w.sourcesPerView]}
		entry := func(conds string) string {
			if conds == "" {
				return fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry/> </%s>`, v.name, v.name)
			}
			return fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry>%s</entry> </%s>`, v.name, conds, v.name)
		}
		// named(i) is the condition of the i-th selective query: entries
		// whose name is one of the first selectiveNames texts, in turn.
		named := func(i int) string { return fmt.Sprintf("<name>%s</name>", nameText(i%selectiveNames)) }
		if w.selective {
			for i := 0; i < selectiveNames; i++ {
				v.plain = append(v.plain, entry(named(i)))
			}
		} else {
			v.plain = []string{entry(""), entry("<name/>"), entry(named(2))}
		}
		// One qualified pair per distinct entry child across the view's
		// sources: some hold everywhere, some only in part of the fleet —
		// those prune.
		seen := map[string]bool{}
		var children []string
		for _, s := range v.sources {
			for _, c := range modelNames(s.dtd.Types["entry"].Model) {
				if !seen[c] {
					seen[c] = true
					children = append(children, c)
				}
			}
		}
		sort.Strings(children)
		for i, c := range children {
			sel := ""
			if w.selective {
				sel = named(i)
			}
			v.qualified = append(v.qualified,
				entry(fmt.Sprintf("%s [<%s/>] ", sel, c)),
				entry(fmt.Sprintf("%s<%s/>", sel, c)))
		}
		fx.views = append(fx.views, v)
	}
	for _, m := range w.mix {
		for i := 0; i < m.weight; i++ {
			fx.kinds = append(fx.kinds, m.kind)
		}
	}
	if err := fx.buildInferPool(); err != nil {
		return nil, err
	}
	return fx, nil
}

// sizedDocument grows a document under d to about target serialized
// bytes: entries first, then (where the root model has them) auctions for
// the last tenth. An entry larger than a quarter of the target is redrawn
// so that even the smallest documents hold several.
func sizedDocument(d *dtd.DTD, seed int64, target, nameValues int) (*xmlmodel.Document, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, 64)
	for i := range pool {
		pool[i] = fmt.Sprintf("w%d", rng.Intn(1000))
	}
	g, err := gen.New(d, gen.Options{Seed: seed, MaxDepth: entryDepth, LengthBias: entryBias, TextPool: pool})
	if err != nil {
		return nil, err
	}
	_, hasAuctions := d.Types["auction"]
	entryTarget := target
	if hasAuctions {
		entryTarget = target * 9 / 10
	}
	root := xmlmodel.NewElement(d.Root)
	size, ids := 0, 0
	// IDs are given as elements are drawn, so that the size counted is the
	// size served: an id attribute on every element is a third of the bytes.
	number := func(e *xmlmodel.Element) {
		e.Walk(func(x *xmlmodel.Element) bool { x.ID = fmt.Sprintf("e%d", ids); ids++; return true })
	}
	number(root)
	grow := func(name string, until int) {
		for size < until {
			var e *xmlmodel.Element
			for try := 0; try < 50; try++ {
				e = g.Element(name, entryDepth)
				// 10 bytes per element stands in for the id not yet given.
				if len(xmlmodel.MarshalElement(e, 2))+10*e.Size() <= target/4 {
					break
				}
			}
			number(e)
			root.Children = append(root.Children, e)
			size += len(xmlmodel.MarshalElement(e, 2))
		}
	}
	grow("entry", entryTarget)
	if hasAuctions {
		grow("auction", target)
	}
	for _, e := range root.Children {
		if e.Name == "entry" && len(e.Children) > 0 && e.Children[0].Name == "name" {
			e.Children[0].Text = nameText(rng.Intn(nameValues))
		}
	}
	doc := &xmlmodel.Document{DocType: d.Root, Root: root}
	load.LinkRefs(doc, seed)
	if err := d.Validate(doc); err != nil {
		return nil, fmt.Errorf("generated document invalid: %w", err)
	}
	return doc, nil
}

// modelNames collects the distinct atom names of a content model in
// first-occurrence order.
func modelNames(e regex.Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(regex.Expr)
	walk = func(e regex.Expr) {
		switch v := e.(type) {
		case regex.Atom:
			if !seen[v.Name.Base] {
				seen[v.Name.Base] = true
				out = append(out, v.Name.Base)
			}
		case regex.Opt:
			walk(v.Sub)
		case regex.Star:
			walk(v.Sub)
		case regex.Plus:
			walk(v.Sub)
		case regex.Concat:
			for _, it := range v.Items {
				walk(it)
			}
		case regex.Alt:
			for _, it := range v.Items {
				walk(it)
			}
		}
	}
	walk(e)
	return out
}

// inferHotPool is the size of the hot /infer payload pool: small enough
// that the automata and verdict caches hold all of it.
const inferHotPool = 8

// buildInferPool builds the hot (DTD, view definition) payloads. A
// workload that posts to /infer gets synthesized ones: all five families
// at Width/Depth 6–8, each with a view definition that conditions on one
// child of entry, alternately as a regular child and as an existential
// qualifier. Any other workload's pool is what its own set-up infers —
// each view part against its source DTD — which is what the traced run
// prices inference on there.
func (fx *fixtures) buildInferPool() error {
	if !fx.w.has(opInferHot) {
		for _, s := range fx.sources {
			fx.inferHot = append(fx.inferHot, s.dtd.String()+"\nV = "+partQuery(s.name))
		}
		return nil
	}
	fams := load.Families()
	for i := 0; i < inferHotPool; i++ {
		d, err := load.Synthesize(load.SchemaOptions{
			Seed: fx.seed*1000 + 100 + int64(i), Family: fams[i%len(fams)], Root: "probe",
			Width: 6 + i%3, Depth: 6 + (i/3)%3,
		})
		if err != nil {
			return err
		}
		children := modelNames(d.Types["entry"].Model)
		child := children[i%len(children)]
		cond := fmt.Sprintf("<%s/>", child)
		if i%2 == 1 {
			cond = "[" + cond + "]"
		}
		fx.inferHot = append(fx.inferHot,
			d.String()+"\n"+fmt.Sprintf(`V = SELECT X WHERE <probe> X:<entry>%s</entry> </probe>`, cond))
	}
	return nil
}

// identifier matches the tokens of a payload that may be element names.
// Element names start with a lower-case letter; the DTD keywords, the view
// name and the pick variable are upper-case.
var identifier = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// uniquePayload derives from hot payload i a payload no cache has seen:
// every element name gets the prefix k<op>_, so content-model keys never
// repeat across ops and the automata LRU has to evict.
func (fx *fixtures) uniquePayload(i int, op int64) string {
	prefix := fmt.Sprintf("k%d_", op)
	return identifier.ReplaceAllStringFunc(fx.inferHot[i], func(tok string) string {
		if tok[0] >= 'a' && tok[0] <= 'z' {
			return prefix + tok
		}
		return tok
	})
}

// op is one planned operation. Everything is symbolic (indices into the
// fixtures), so a plan is the same wherever the servers happen to listen.
type op struct {
	index   int64
	kind    opKind
	view    int // reads and materialize
	query   int // index into view.queries() for reads; hot payload for infer ops
	source  int // invalidate-source
	node    int // entry node (round-robin)
	payload string
}

// readOp is the read of view vi's query qi (an index into queries()) sent
// to node; it is not part of the plan.
func (fx *fixtures) readOp(vi, qi, node int) op {
	v := fx.views[vi]
	o := op{index: -1, kind: opQuery, view: vi, query: qi, node: node}
	if qi >= len(v.plain) {
		o.kind = opQualified
	}
	o.payload = v.queries()[qi]
	return o
}

// opAt returns operation i of the plan — a pure function of (seed, i), so
// a plan has no fixed length and every phase draws from one sequence. The
// plan is stratified: each cycle of len(kinds) operations holds every kind
// exactly as often as the mix weighs it, in an order shuffled per cycle,
// and each kind walks its views and payload pools round-robin. Whatever
// stretch of the plan a run executes therefore has the mix's composition,
// and cost per operation does not depend on how far the run got.
func (fx *fixtures) opAt(i int64) op {
	n := int64(len(fx.kinds))
	cycle, pos := i/n, int(i%n)
	order := rand.New(rand.NewSource(fx.seed*1_000_003 + cycle)).Perm(int(n))
	kind := fx.kinds[order[pos]]
	// nth is how many operations of this kind the plan holds before i.
	nth := int64(0)
	for p := 0; p < pos; p++ {
		if fx.kinds[order[p]] == kind {
			nth++
		}
	}
	for _, k := range fx.kinds {
		if k == kind {
			nth += cycle
		}
	}
	o := op{index: i, kind: kind, node: int(i % int64(fx.w.nodes))}
	o.view = int(nth % int64(len(fx.views)))
	v := fx.views[o.view]
	turn := int(nth / int64(len(fx.views))) // how often this kind has come back to the view
	switch kind {
	case opQuery:
		o.query = turn % len(v.plain)
		o.payload = v.plain[o.query]
	case opQualified:
		k := turn % len(v.qualified)
		o.query = len(v.plain) + k
		o.payload = v.qualified[k]
	case opInvalidateSource:
		o.source = int(nth % int64(len(fx.sources)))
	case opInferHot:
		o.query = int(nth % int64(len(fx.inferHot)))
		o.payload = fx.inferHot[o.query]
	case opInferUnique:
		o.query = int(nth % int64(len(fx.inferHot)))
		o.payload = fx.uniquePayload(o.query, i)
	}
	return o
}

// digestOps is how much of the plan the input digest covers.
const digestOps = 4096

// digest is the SHA-256 of everything the run feeds the program: corpora
// (both versions), schemas, query and payload pools, and the first
// digestOps operations of the plan.
func (fx *fixtures) digest() string {
	h := sha256.New()
	for _, s := range fx.sources {
		fmt.Fprintf(h, "source %s %s\n", s.name, s.family)
		for _, b := range s.bodies {
			io.WriteString(h, b)
		}
	}
	for _, v := range fx.views {
		fmt.Fprintf(h, "view %s\n%s\n", v.name, strings.Join(v.queries(), "\n"))
	}
	for _, p := range fx.inferHot {
		fmt.Fprintf(h, "infer\n%s\n", p)
	}
	for i := int64(0); i < digestOps; i++ {
		o := fx.opAt(i)
		fmt.Fprintf(h, "%d %s v%d q%d s%d n%d %d\n", i, o.kind, o.view, o.query, o.source, o.node, len(o.payload))
	}
	return hex.EncodeToString(h.Sum(nil))
}
