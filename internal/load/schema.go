// Package load is the sustained-traffic harness: it synthesizes
// XMark-class source schemas and corpora (layered on internal/gen), drives
// a mediator with an open-loop mixed operation stream at a target request
// rate, and asserts latency/error SLOs against the /metrics histograms the
// serving path already exports. cmd/mixload is the CLI; the nightly CI run
// uploads its report as an artifact.
//
// The schema synthesizer follows the XMark auction-site generator's
// recipe (xmlgen's schema.c, see SNIPPETS.md): realistic DTDs are not
// random DTDs but parameterized instances of a few structural families —
// recursive mixed-content chains (text/bold/emph/keyword), deep optional
// chains (the person-profile shape), wide disjunctions (category regions),
// and IDREF-shaped cross-links (bidder → person). Each family stresses a
// different part of the mediator: recursion stresses the generator's
// completion policy and validation, optional chains and disjunctions
// stress inference and satisfiability pruning, cross-links produce the
// join-shaped documents real feeds have.
package load

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// Family selects one XMark-class structural schema family.
type Family string

const (
	// FamilyRecursive emits mutually recursive mixed-content markup:
	// description → (txt | parlist), parlist → listitem+, listitem →
	// (txt | parlist), and txt/bold/emph/keyword each containing any mix
	// of the markup names — xmlgen's text/bold/emph recursion.
	FamilyRecursive Family = "recursive"
	// FamilyOptional emits a deep chain of optional elements — profile₀
	// contains profile₁?, which contains profile₂?, … — the XMark person
	// profile shape that makes every level's presence independent.
	FamilyOptional Family = "optional"
	// FamilyDisjunctive emits wide disjunctions at two levels — entry kind
	// = (v₀ | … | v_w) and venue = (c₀ | … | c_w) — the category/region
	// shape that blows up naive class enumeration.
	FamilyDisjunctive Family = "disjunctive"
	// FamilyIDRef emits IDREF-shaped cross-links: entries own items,
	// auctions reference sellers/buyers/items by ID-valued leaves, filled
	// with real element IDs by LinkRefs.
	FamilyIDRef Family = "idref"
	// FamilyMixed blends the other four under one entry type — the closest
	// analogue of the full XMark site document.
	FamilyMixed Family = "mixed"
)

// Families returns all schema families in their canonical rotation order.
func Families() []Family {
	return []Family{FamilyRecursive, FamilyOptional, FamilyDisjunctive, FamilyIDRef, FamilyMixed}
}

// ParseFamily resolves a family name (as accepted by cmd/mixload flags).
func ParseFamily(s string) (Family, error) {
	for _, f := range Families() {
		if string(f) == s {
			return f, nil
		}
	}
	return "", fmt.Errorf("load: unknown schema family %q (want one of %s)", s, familyList())
}

func familyList() string {
	names := make([]string, 0, len(Families()))
	for _, f := range Families() {
		names = append(names, string(f))
	}
	return strings.Join(names, ", ")
}

// SchemaOptions parameterizes Synthesize.
type SchemaOptions struct {
	// Seed drives the synthesizer's structural choices (synonym picks,
	// extra-field placement). Same options, same DTD.
	Seed int64
	// Family selects the structural family; default FamilyMixed.
	Family Family
	// Root is the document type name; default "site".
	Root string
	// Depth is the length of optional chains (FamilyOptional, FamilyMixed);
	// default 4, minimum 1.
	Depth int
	// Width is the branching factor of disjunctions and the number of
	// recursive markup names; default 4, minimum 2.
	Width int
}

func (o SchemaOptions) withDefaults() SchemaOptions {
	if o.Family == "" {
		o.Family = FamilyMixed
	}
	if o.Root == "" {
		o.Root = "site"
	}
	if o.Depth < 1 {
		o.Depth = 4
	}
	if o.Width < 2 {
		o.Width = 4
	}
	return o
}

// extraFields is the synonym pool for the per-source optional extra leaf —
// the seed picks one, so a fleet of synthesized sources is heterogeneous
// the way E14's rotating site schemas are, and qualified queries naming an
// extra another source lacks become prunable against this one.
var extraFields = []string{"grant", "award", "badge", "homepage", "phone"}

// Synthesize builds one XMark-class source DTD. Every synthesized DTD
// shares the same outer shape — Root (entry*), entry (name, …) — so a
// union view can pick entry elements across a heterogeneous fleet, while
// the inner structure is family- and seed-specific. The result always
// passes dtd.Check and is realizable (gen.New accepts it).
func Synthesize(opts SchemaOptions) (*dtd.DTD, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	d := dtd.New(opts.Root)
	extra := extraFields[rng.Intn(len(extraFields))]

	entryParts := []regex.Expr{regex.Nm("name")}
	declareLeaf(d, "name")

	switch opts.Family {
	case FamilyRecursive:
		entryParts = append(entryParts, regex.Plus{Sub: regex.Nm("description")})
		declareRecursiveText(d, opts.Width)
	case FamilyOptional:
		entryParts = append(entryParts, regex.Opt{Sub: regex.Nm("profile0")})
		declareOptionalChain(d, opts.Depth, extra)
	case FamilyDisjunctive:
		entryParts = append(entryParts, regex.Nm("kind"))
		declareDisjunction(d, opts.Width)
	case FamilyIDRef:
		entryParts = append(entryParts, regex.Star{Sub: regex.Nm("itm")})
		declareAuctions(d)
	case FamilyMixed:
		entryParts = append(entryParts,
			regex.Opt{Sub: regex.Nm("profile0")},
			regex.Star{Sub: regex.Nm("description")},
			regex.Opt{Sub: regex.Nm("kind")},
		)
		declareOptionalChain(d, (opts.Depth+1)/2, extra)
		declareRecursiveText(d, opts.Width)
		declareDisjunction(d, opts.Width)
	default:
		return nil, fmt.Errorf("load: unknown schema family %q", opts.Family)
	}

	// The seed-picked extra leaf rides on every entry, optionally.
	entryParts = append(entryParts, regex.Opt{Sub: regex.Nm(extra)})
	declareLeaf(d, extra)
	d.Declare("entry", dtd.M(regex.Concat{Items: entryParts}))

	rootModel := regex.Expr(regex.Star{Sub: regex.Nm("entry")})
	if opts.Family == FamilyIDRef || opts.Family == FamilyMixed {
		rootModel = regex.Concat{Items: []regex.Expr{
			regex.Star{Sub: regex.Nm("entry")},
			regex.Star{Sub: regex.Nm("auction")},
		}}
		declareAuctions(d)
	}
	d.Declare(opts.Root, dtd.M(rootModel))

	if errs := d.Check(); len(errs) > 0 {
		return nil, fmt.Errorf("load: synthesized DTD inconsistent: %v", errs[0])
	}
	return d, nil
}

func declareLeaf(d *dtd.DTD, names ...string) {
	for _, n := range names {
		if _, ok := d.Types[n]; !ok {
			d.Declare(n, dtd.PC())
		}
	}
}

// declareRecursiveText emits the text/bold/emph/keyword recursion: txt and
// every markup name contain any mix of word and the markup names; parlist
// and listitem add list-shaped recursion above them.
func declareRecursiveText(d *dtd.DTD, width int) {
	if _, ok := d.Types["description"]; ok {
		return
	}
	markup := markupNames(width)
	mix := make([]regex.Expr, 0, len(markup)+1)
	mix = append(mix, regex.Nm("word"))
	for _, m := range markup {
		mix = append(mix, regex.Nm(m))
	}
	content := regex.Star{Sub: regex.Or(mix...)}
	d.Declare("description", dtd.M(regex.Or(regex.Nm("txt"), regex.Nm("parlist"))))
	d.Declare("parlist", dtd.M(regex.Plus{Sub: regex.Nm("listitem")}))
	d.Declare("listitem", dtd.M(regex.Or(regex.Nm("txt"), regex.Nm("parlist"))))
	d.Declare("txt", dtd.M(content))
	for _, m := range markup {
		d.Declare(m, dtd.M(content))
	}
	declareLeaf(d, "word")
}

// markupNames keeps xmlgen's canonical bold/emph/keyword for the first
// three and numbers the rest.
func markupNames(width int) []string {
	base := []string{"bold", "emph", "keyword"}
	if width <= len(base) {
		return base[:width]
	}
	out := append([]string(nil), base...)
	for i := len(base); i < width; i++ {
		out = append(out, fmt.Sprintf("markup%d", i))
	}
	return out
}

// declareOptionalChain emits profile0 … profile{depth-1}, each level a
// required leaf, an optional extra, and the optional next level.
func declareOptionalChain(d *dtd.DTD, depth int, extra string) {
	if _, ok := d.Types["profile0"]; ok {
		return
	}
	for i := 0; i < depth; i++ {
		leaf := fmt.Sprintf("field%d", i)
		parts := []regex.Expr{regex.Nm(leaf), regex.Opt{Sub: regex.Nm(extra)}}
		if i+1 < depth {
			parts = append(parts, regex.Opt{Sub: regex.Nm(fmt.Sprintf("profile%d", i+1))})
		}
		d.Declare(fmt.Sprintf("profile%d", i), dtd.M(regex.Concat{Items: parts}))
		declareLeaf(d, leaf, extra)
	}
}

// declareDisjunction emits the two-level wide disjunction: kind is one of
// width variants, each variant a title plus one of width venues.
func declareDisjunction(d *dtd.DTD, width int) {
	if _, ok := d.Types["kind"]; ok {
		return
	}
	variants := make([]regex.Expr, width)
	for i := range variants {
		v := fmt.Sprintf("variant%d", i)
		variants[i] = regex.Nm(v)
		venues := make([]regex.Expr, width)
		for j := range venues {
			c := fmt.Sprintf("venue%d", j)
			venues[j] = regex.Nm(c)
			declareLeaf(d, c)
		}
		d.Declare(v, dtd.M(regex.Concat{Items: []regex.Expr{regex.Nm("title"), regex.Or(venues...)}}))
		declareLeaf(d, "title")
	}
	d.Declare("kind", dtd.M(regex.Or(variants...)))
}

// declareAuctions emits the cross-link shape: auctions point at entries
// and items through ID-valued leaves (sellerref/buyerref/itemref), which
// LinkRefs fills with real element IDs after generation.
func declareAuctions(d *dtd.DTD) {
	if _, ok := d.Types["auction"]; ok {
		return
	}
	d.Declare("auction", dtd.M(regex.Concat{Items: []regex.Expr{
		regex.Nm("sellerref"),
		regex.Opt{Sub: regex.Nm("buyerref")},
		regex.Plus{Sub: regex.Nm("itemref")},
	}}))
	d.Declare("itm", dtd.M(regex.Nm("iname")))
	declareLeaf(d, "sellerref", "buyerref", "itemref", "iname")
}

// LinkRefs rewrites every *ref leaf's text to a real element ID from the
// document, turning the IDREF-shaped leaves into actual cross-links; the
// choice is driven by the seed, so linked corpora stay deterministic. It
// is a no-op on documents without IDs or without ref leaves.
func LinkRefs(doc *xmlmodel.Document, seed int64) {
	var ids []string
	doc.Root.Walk(func(e *xmlmodel.Element) bool {
		if e.ID != "" {
			ids = append(ids, e.ID)
		}
		return true
	})
	if len(ids) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	doc.Root.Walk(func(e *xmlmodel.Element) bool {
		if e.IsText && strings.HasSuffix(e.Name, "ref") {
			e.Text = ids[rng.Intn(len(ids))]
		}
		return true
	})
}

// Source is one synthesized load-harness source: its schema, its
// generated document, and the family it came from.
type Source struct {
	Name   string
	Family Family
	DTD    *dtd.DTD
	Doc    *xmlmodel.Document
}

// SourceOptions parameterizes BuildSource.
type SourceOptions struct {
	Schema SchemaOptions
	// Gen tunes the document generator; its Seed is ignored in favor of
	// Schema.Seed so one seed fixes the whole source.
	Gen gen.Options
}

// BuildSource synthesizes one source: schema first, then a document valid
// under it, with cross-links filled for the idref-shaped families.
func BuildSource(name string, opts SourceOptions) (*Source, error) {
	opts.Schema.Root = name
	d, err := Synthesize(opts.Schema)
	if err != nil {
		return nil, err
	}
	gopts := opts.Gen
	gopts.Seed = opts.Schema.Seed
	g, err := gen.New(d, gopts)
	if err != nil {
		return nil, fmt.Errorf("load: source %s: %w", name, err)
	}
	doc := g.Document()
	if gopts.AssignIDs {
		LinkRefs(doc, opts.Schema.Seed)
	}
	return &Source{Name: name, Family: opts.Schema.Family, DTD: d, Doc: doc}, nil
}
