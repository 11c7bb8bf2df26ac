// Package oracle is the differential oracle of the serving tier: it checks
// that every read path of the mediator behind internal/serve — on one node,
// and across the cluster hop — answers what a naive mediator answers over the
// same documents.
//
// The reference is a fresh mediator per vector of source versions, built on
// first use and never invalidated (a reused mediator carries what it computed
// across invalidations, which is what is under test): pruning off, its sources
// StaticSources over documents parsed into trees and then validated, its
// answers QueryUnsimplified's — the whole view walked, no plan, no memo, no
// kept byte.
//
// A subject is a serve.Handler over a mediator whose sources say "unchanged"
// in one of four ways (Subject.Kind): tagged HTTPSources reading an httptest
// origin that serves each source's current version, so every fetch is the
// streaming ParseValid and every refetch a conditional request; untagged
// ones, revalidated by their bytes; ones reading a lower mediator's views of
// the origin; or in-memory wrappers behind a breaker and in a replica set. A
// hop subject is a forwarder in front of a tagged owner (HopSubjects). Check
// drives subjects — of every kind, pruning on or off, budget funded or
// starved, on one node or across the hop — through plan misses,
// plan hits by canonical key and by text, first, found-once, rendered and
// copied reads, and no, no-op, real and wholesale invalidations, and asserts
// that
//   - every body is byte-equal to the reference's serialization (a starved
//     or stacked subject's view document under its own, looser DTD);
//   - every GET /views/{name} body validates against the DTD in its own
//     prologue (Definition 3.1);
//   - equal ETags carry equal bytes, and only a real invalidation moves a
//     view document's tag;
//   - a single node's 200 declares a Content-Length exactly when no run of
//     it was streamed on the read, a forwarder's at most; either is the
//     body's length, and a 304 declares none;
//   - a starved analysis or view definition compiles nothing, and an analysis
//     that exhausted its budget is not kept;
//   - a funded view's s-DTD is Canonical;
//   - across the hop, each read is the one fetch the view's history calls
//     for, under the owner's tag, and its plan and answer are found as the
//     read's ordinal says (hop.check);
//   - after every invalidation of an untagged, stacked or guarded subject,
//     concurrent readers, some cancelled, are held to the same, and in a
//     guarded subject's fault phase a partial answer names its sources and
//     carries no ETag (burst, faults).
//
// CheckInfer does the same for POST /infer: a memo miss, a memo hit and a
// direct InferContext render are the same bytes.
package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/budget"
	"repro/internal/cluster"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/regex"
	"repro/internal/sdtd"
	"repro/internal/serve"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Source is one source of a fleet: its DTD and the documents it serves in
// turn, as text without a DOCTYPE.
type Source struct {
	Name string
	DTD  *dtd.DTD
	Docs []string
}

// View is a union view over sources of the fleet; a part names its source
// by the fleet's name for it.
type View struct {
	Name  string
	Parts []mediator.ViewPart
}

// Fleet is what the oracle checks a mediator over.
type Fleet struct {
	Sources []Source
	Views   []View
}

// starvedBudget is the budget of a starved subject: one automaton state, which no
// analysis that compiles anything can pay for.
var starvedBudget = budget.Limits{MaxStates: 1}

var background = context.Background()

// Reference answers as the naive mediator does. It is safe for concurrent
// use.
type Reference struct {
	fleet *Fleet
	mu    sync.Mutex
	meds  map[string]*mediator.Mediator
	memo  map[string][2]string
}

// NewReference is the reference over a fleet.
func NewReference(f *Fleet) *Reference {
	return &Reference{fleet: f, meds: map[string]*mediator.Mediator{}, memo: map[string][2]string{}}
}

// mediator is the reference mediator of one vector of versions (versions[i]
// is the version of Sources[i] served; -1 leaves the source, and its parts,
// out), built on first use. The caller holds r.mu.
func (r *Reference) mediator(versions []int) (*mediator.Mediator, error) {
	key := fmt.Sprint(versions)
	if m, ok := r.meds[key]; ok {
		return m, nil
	}
	m := mediator.New("reference")
	m.SetPruning(false)
	for i, s := range r.fleet.Sources {
		if versions[i] < 0 {
			continue
		}
		doc, _, err := xmlmodel.Parse(s.Docs[versions[i]])
		if err != nil {
			return nil, fmt.Errorf("oracle: %s version %d: %w", s.Name, versions[i], err)
		}
		src, err := mediator.NewStaticSource(s.Name, doc, s.DTD) // validates the tree
		if err != nil {
			return nil, err
		}
		if err := m.AddSource(src); err != nil {
			return nil, err
		}
	}
	for _, v := range r.fleet.Views {
		var parts []mediator.ViewPart
		for _, p := range v.Parts {
			if versions[r.sourceIndex(p.Source)] >= 0 {
				parts = append(parts, p)
			}
		}
		if len(parts) == 0 {
			continue
		}
		if _, err := m.DefineUnionView(v.Name, parts); err != nil {
			return nil, err
		}
	}
	r.meds[key] = m
	return m, nil
}

func (r *Reference) sourceIndex(name string) int {
	return slices.IndexFunc(r.fleet.Sources, func(s Source) bool { return s.Name == name })
}

// Answer is what the handler sends for text over the given versions: for a
// query, its answer; for "", the view document, and the DTD prologue it goes
// out under. A reference mediator never changes, so answers are remembered.
func (r *Reference) Answer(versions []int, view, text string) (prologue, body string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := fmt.Sprint(versions) + "\x00" + view + "\x00" + text
	if out, ok := r.memo[key]; ok {
		return out[0], out[1], nil
	}
	m, err := r.mediator(versions)
	if err != nil {
		return "", "", err
	}
	var doc *xmlmodel.Document
	if text == "" {
		var v *mediator.View
		if v, err = m.View(view); err != nil {
			return "", "", err
		}
		prologue = v.DTDText
		doc, err = m.Materialize(background, view)
	} else {
		var q *xmas.Query
		if q, err = xmas.Parse(text); err != nil {
			return "", "", err
		}
		doc, err = m.QueryUnsimplified(background, view, q)
	}
	if err != nil {
		return "", "", err
	}
	body = xmlmodel.MarshalElement(doc.Root, 2)
	r.memo[key] = [2]string{prologue, body}
	return prologue, body, nil
}

// Oracle is a fleet's origin, its reference and the subjects over them.
type Oracle struct {
	fleet    *Fleet
	ref      *Reference
	srv      *httptest.Server
	mem      *http.Client // the origin at http://origin, in memory (network)
	versions []atomic.Int32
}

// New starts the fleet's origin: GET /views/{source}/dtd is the source's DTD
// and GET /views/{source} its current version under that DOCTYPE, tagged with
// the version and answered 304 to that tag; under /untagged the same, with
// no tag.
func New(f *Fleet) *Oracle {
	o := &Oracle{fleet: f, ref: NewReference(f), versions: make([]atomic.Int32, len(f.Sources))}
	mux := http.NewServeMux()
	for i, s := range f.Sources {
		prologue := s.DTD.String() + "\n"
		schema := func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(prologue)) }
		mux.HandleFunc("GET /views/"+s.Name+"/dtd", schema)
		mux.HandleFunc("GET /untagged/views/"+s.Name+"/dtd", schema)
		mux.HandleFunc("GET /untagged/views/"+s.Name, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(prologue + s.Docs[o.versions[i].Load()]))
		})
		mux.HandleFunc("GET /views/"+s.Name, func(w http.ResponseWriter, r *http.Request) {
			v := o.versions[i].Load()
			tag := `"` + s.Name + "-" + strconv.Itoa(int(v)) + `"`
			w.Header().Set("ETag", tag)
			if r.Header.Get("If-None-Match") == tag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			w.Write([]byte(prologue + s.Docs[v]))
		})
	}
	o.srv = httptest.NewServer(mux)
	o.mem = &http.Client{Transport: &network{members: map[string]http.Handler{"origin": mux}}}
	return o
}

// Close stops the origin.
func (o *Oracle) Close() { o.srv.Close() }

// Reference is the oracle's reference.
func (o *Oracle) Reference() *Reference { return o.ref }

// Versions is the version each source serves now.
func (o *Oracle) Versions() []int {
	out := make([]int, len(o.versions))
	for i := range o.versions {
		out[i] = int(o.versions[i].Load())
	}
	return out
}

// Serve makes source i serve version v from now on. Nothing is invalidated.
func (o *Oracle) Serve(i, v int) { o.versions[i].Store(int32(v)) }

// Subject is a mediator under test and the handler in front of it: the one
// Check asks. On a hop subject they are the forwarder's, and the owner is
// another handler over another mediator (HopSubjects).
type Subject struct {
	Kind             string
	Pruning, Starved bool
	Mediator         *mediator.Mediator
	Handler          *serve.Handler
	// owner is the handler whose POST /invalidate invalidates the subject's
	// sources: Handler, or a hop subject's owner.
	owner *serve.Handler
	// below is a stacked subject's lower handler, and lower the names its
	// mediator knows the fleet's sources by.
	below *serve.Handler
	lower []string
	hop   *hop
	// sources are the names the owner's mediator knows the fleet's sources
	// by, in fleet order.
	sources []string
	// tags maps every ETag the handler sent to the body it sent with it, and
	// held is the view document's since the last real invalidation.
	tags map[string]string
	held string
}

func (s *Subject) String() string {
	return fmt.Sprintf("%s, pruning %v, starved %v, across the hop %v", s.Kind, s.Pruning, s.Starved, s.hop != nil)
}

// Source is the name the subject's mediator knows source i of the fleet by.
func (s *Subject) Source(i int) string { return s.sources[i] }

// NewSubject builds a mediator over HTTPSources reading the origin, defines
// the fleet's views on it — under a one-state budget when starved is set —
// and puts a handler in front of it.
func (o *Oracle) NewSubject(pruning, starved bool) (*Subject, error) {
	return o.newSubject(KindTagged, pruning, starved, 0)
}

// newSubject is NewSubject over the sources of a kind (wrappers).
func (o *Oracle) newSubject(kind string, pruning, starved bool, seed int64) (*Subject, error) {
	m := mediator.New("subject")
	m.SetPruning(pruning)
	if starved {
		m.SetInferenceBudget(starvedBudget)
	}
	s := &Subject{Kind: kind, Pruning: pruning, Starved: starved, Mediator: m, tags: map[string]string{}}
	wrappers, err := o.wrappers(s, seed)
	if err != nil {
		return nil, err
	}
	for _, w := range wrappers {
		if err := m.AddSource(w); err != nil {
			return nil, err
		}
		s.sources = append(s.sources, w.Name())
	}
	for _, v := range o.fleet.Views {
		parts := slices.Clone(v.Parts)
		for i := range parts {
			src := o.ref.sourceIndex(parts[i].Source)
			parts[i].Source = s.sources[src]
			if kind == KindStacked { // the source's root is under the lower view's
				q := *parts[i].Query
				q.Root = &xmas.Cond{Names: []string{stackedView(src)}, Children: []*xmas.Cond{q.Root}}
				parts[i].Query = &q
			}
		}
		if starved {
			automata.PurgeCache() // a resident automaton is free
		}
		cached := automata.CacheStats().Size
		defined, err := m.DefineUnionView(v.Name, parts)
		switch {
		case err != nil:
			return nil, err
		case !starved:
			err = Canonical(defined.SDTD)
		case automata.CacheStats().Size != cached:
			err = fmt.Errorf("oracle: defining view %s under %+v left %d automata resident", v.Name, starvedBudget, automata.CacheStats().Size-cached)
		}
		if err != nil {
			return nil, err
		}
	}
	s.Handler = serve.New(m, serve.WithTracer(nil))
	s.owner = s.Handler
	return s, nil
}

// invalidate posts to /invalidate of a stacked subject's lower mediator and
// then of the owner: source i, or wholesale for i < 0. real says whether
// some source serves another document since the subject last fetched it.
func (s *Subject) invalidate(i int, real bool) error {
	for level, h := range []*serve.Handler{s.below, s.owner} {
		body, want := "", http.StatusNoContent
		if h == nil {
			continue
		} else if i >= 0 {
			body, want = fmt.Sprintf(`{"source": %q}`, [][]string{s.lower, s.sources}[level][i]), http.StatusOK
		}
		if rec := send(h, http.MethodPost, "/invalidate", body, ""); rec.Code != want {
			return fmt.Errorf("oracle: %s: POST /invalidate %s: %d %s", s, body, rec.Code, rec.Body)
		}
	}
	if real {
		s.held = ""
	}
	if s.hop != nil && real && s.hop.want == "" {
		s.hop.want = "226"
	}
	return nil
}

// Subjects are the four tagged subjects of the pruning and budget axes, the
// starved ones first: a query's first analysis on them finds no automaton
// resident.
func (o *Oracle) Subjects() ([]*Subject, error) { return o.subjects([]bool{true, false}, KindTagged) }

// KindSubjects are the funded subjects of the untagged, stacked and guarded
// kinds, pruning on and off.
func (o *Oracle) KindSubjects() ([]*Subject, error) {
	return o.subjects([]bool{false}, KindUntagged, KindStacked, KindGuarded)
}

func (o *Oracle) subjects(starved []bool, kinds ...string) ([]*Subject, error) {
	var out []*Subject
	for _, kind := range kinds {
		for _, starved := range starved {
			for _, pruning := range []bool{true, false} {
				s, err := o.newSubject(kind, pruning, starved, 0)
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// How a request meets the plan memo (Step.Plan): what was sent, not what the
// memo did with it — a starved subject keeps no plan to hit.
const (
	PlanNone = "none" // GET /views/{name}: no query
	PlanMiss = "miss" // a text the subject has not seen
	PlanKey  = "key"  // another spelling of one it has: found by the canonical key
	PlanText = "text" // a text it has seen: found by the text

	planConcurrent = "concurrent" // a burst's read, among others (burst)
)

// A read's ordinal since its query was first asked or its document last
// changed (Step.Read): the first evaluates, the second finds the picks once,
// the third renders their bytes, the fourth and later copy them.
const (
	ReadFirst = iota
	ReadFoundOnce
	ReadRendered
	ReadCopied
)

var readNames = [...]string{"first", "found-once", "rendered", "copied"}

// The invalidation a read follows (Step.Inval).
const (
	InvalNone = "none"
	InvalNoOp = "no-op" // the sources were asked again and serve what they served
	InvalReal = "real"  // one source serves its next document
	InvalAll  = "all"   // every source serves its next document
)

// Step is one request of a Check: what it was sent under and what came back.
type Step struct {
	Subject     *Subject
	View, Query string // Query "" is GET /views/{View}
	Plan        string
	Read        int
	Inval       string
	Changed     int   // the source a real invalidation moved; -1 for none, or all
	Versions    []int // what the sources served
	Status      int
	Body, Tag   string
	Header      http.Header
	Want        string // the reference's body
	// Before and After are the subject's mediator stats around the request.
	Before, After mediator.Stats
}

// Tally counts the requests of each value of each axis — the subject's kind,
// whether it is across the hop and, if it is, the forwarder's fetch among
// them — the conditional reads, the starved analyses that were not kept, and
// what each kind is for (kindAxes).
type Tally map[string]int

// axes are the values every subject exercises, nodeAxes those a subject on
// one node adds, hopAxes the forwarder's fetches a hop subject adds, and
// kindAxes those of each kind (the tagged kind's on one node).
var (
	axes = []string{"pruning=true", "pruning=false", "starved=false",
		"plan=" + PlanNone, "plan=" + PlanMiss, "plan=" + PlanKey, "plan=" + PlanText,
		"read=first", "read=found-once", "read=rendered", "read=copied",
		"invalidation=" + InvalNone, "invalidation=" + InvalNoOp, "invalidation=" + InvalReal, "invalidation=" + InvalAll,
		"conditional reads"}
	nodeAxes = []string{"declared lengths", "chunked answers"}
	hopAxes  = []string{"hop=lease", "hop=304", "hop=226", "hop=200", "hop=restart"}
	kindAxes = map[string][]string{
		KindTagged:   {"starved=true", "starved analyses not kept"},
		KindUntagged: {"untagged refetches of bodies held", "cancelled readers"},
		KindStacked:  {"stacked refetches answered 304", "cancelled readers"},
		KindGuarded:  {"dropped parts", "stale parts", "cancelled readers"},
	}
)

// Vacuous names every value exercised fewer than min times: of the axes
// every subject exercises, and of those of the kinds of subject checked.
func (t Tally) Vacuous(min int) error {
	want := slices.Clone(axes)
	if t["across the hop=false"] > 0 {
		want = append(want, nodeAxes...)
	}
	if t["across the hop=true"] > 0 {
		want = append(want, hopAxes...)
	}
	for kind, extra := range kindAxes {
		if kind == KindTagged && t["kind="+kind] > t["across the hop=true"] || kind != KindTagged && t["kind="+kind] > 0 {
			want = append(want, extra...)
		}
	}
	slices.Sort(want)
	var weak []string
	for _, k := range slices.Compact(want) {
		if t[k] < min {
			weak = append(weak, fmt.Sprintf("%s (%d)", k, t[k]))
		}
	}
	if len(weak) > 0 {
		return fmt.Errorf("oracle: vacuous, exercised fewer than %d times: %s", min, strings.Join(weak, ", "))
	}
	return nil
}

// Check asks every query of view (a text; "" for the view document) of every
// subject: four times, then twice in another spelling (a view document: once
// with If-None-Match), once more after an invalidation that changes nothing,
// and then, each source in turn made to serve its next version, four times
// after that source's invalidation. Then it asks the last text (one whose
// picks are a root child's is answered from a forwarder's memos, which a
// restart must not carry) four times after each of three more changes: of
// the first source with two documents, every hop subject's owner restarted
// first; of it again; and of every source at once, invalidated wholesale;
// and checks each subject's endpoints (checkEndpoints). Every invalidation
// is a POST /invalidate to the subject's owner, followed on an untagged,
// stacked or guarded subject by a burst of concurrent readers; each guarded
// subject then runs its fault phase. Before each query it empties the
// process-wide automata and satisfiability caches: a resident automaton is
// free, and a starved subject must pay for what it compiles. Each request is
// checked as the package comment says, counted in tally and handed to
// observe, whose error ends the check. The sources stay where the last change
// left them.
func (o *Oracle) Check(subjects []*Subject, view string, queries []string, tally Tally, observe func(*Step) error) error {
	rng := rand.New(rand.NewSource(int64(len(queries))))
	invalidate := func(s *Subject, i int, inval, text string) error {
		err := s.invalidate(i, inval != InvalNoOp)
		if err == nil && s.Kind != KindTagged {
			err = o.burst(s, view, inval, []string{"", text}, rng, false, tally)
		}
		return err
	}
	ask := func(s *Subject, text, body, plan string, read int, inval string, changed int, ifNoneMatch string) (*Step, error) {
		if text == "" {
			plan = PlanNone
		}
		st := &Step{Subject: s, View: view, Query: text, Plan: plan, Read: read, Inval: inval, Changed: changed, Versions: o.Versions()}
		if err := o.do(st, body, ifNoneMatch, tally); err != nil {
			return nil, err
		}
		tally["kind="+s.Kind]++
		tally["across the hop="+strconv.FormatBool(s.hop != nil)]++
		tally["pruning="+strconv.FormatBool(s.Pruning)]++
		tally["starved="+strconv.FormatBool(s.Starved)]++
		tally["plan="+plan]++
		tally["read="+readNames[read]]++
		tally["invalidation="+inval]++
		if observe != nil {
			return st, observe(st)
		}
		return st, nil
	}
	// change moves source i, if it has two documents, to its next one — and
	// for InvalAll every other source that has two — and on every subject
	// invalidates what moved, one source by name or all wholesale, restarts
	// its owner then if restart is set and it is across the hop, and asks
	// text four times.
	change := func(text, inval string, i int, restart bool) error {
		if len(o.fleet.Sources[i].Docs) < 2 {
			return nil
		}
		for j, src := range o.fleet.Sources {
			if j == i || inval == InvalAll && len(src.Docs) > 1 {
				o.Serve(j, (o.Versions()[j]+1)%len(src.Docs))
			}
		}
		changed := i
		if inval == InvalAll {
			changed = -1
		}
		for _, s := range subjects {
			err := invalidate(s, changed, inval, text)
			if err == nil && restart && s.hop != nil {
				s.hop.want, err = "restart", s.hop.restart()
			}
			for read := ReadFirst; read <= ReadCopied && err == nil; read++ {
				_, err = ask(s, text, text, PlanText, read, inval, changed, "")
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for qi, text := range queries {
		automata.PurgeCache()
		infer.PurgeSatisfiabilityCache()
		for _, s := range subjects {
			var last *Step
			var err error
			for read := ReadFirst; read <= ReadCopied && err == nil; read++ {
				plan := PlanText
				if read == ReadFirst {
					plan = PlanMiss
				}
				last, err = ask(s, text, text, plan, read, InvalNone, -1, "")
			}
			if err == nil && text == "" {
				_, err = ask(s, text, text, PlanNone, ReadCopied, InvalNone, -1, last.Tag)
			}
			for _, plan := range []string{PlanKey, PlanText} {
				if err == nil && text != "" {
					_, err = ask(s, text, "  "+strings.ReplaceAll(text, "\n", " \n ")+"\n", plan, ReadCopied, InvalNone, -1, "")
				}
			}
			if i := -1; err == nil {
				if s.Pruning {
					i = qi % len(s.sources)
				}
				err = invalidate(s, i, InvalNoOp, text)
			}
			if err == nil {
				_, err = ask(s, text, text, PlanText, ReadCopied, InvalNoOp, -1, "")
			}
			if err != nil {
				return err
			}
		}
		for i := range o.fleet.Sources {
			if err := change(text, InvalReal, i, false); err != nil {
				return err
			}
		}
	}
	var err error
	first := slices.IndexFunc(o.fleet.Sources, func(s Source) bool { return len(s.Docs) > 1 })
	for row, inval := range []string{InvalReal, InvalReal, InvalAll} {
		if err == nil && first >= 0 {
			err = change(queries[len(queries)-1], inval, first, row == 0)
		}
	}
	for _, s := range subjects {
		if err == nil {
			err = s.checkEndpoints(view)
		}
		if err == nil && s.Kind == KindGuarded {
			err = o.faults(s, view, queries, tally)
		}
		stats := s.Mediator.Stats()
		tally[s.Kind+" refetches of bodies held"] += int(stats.UnchangedBodies)
		tally[s.Kind+" refetches answered 304"] += int(stats.NotModified)
	}
	return err
}

// checkEndpoints sends s a text that does not parse, twice: a 400 each time,
// a hop subject's the same bytes as its owner's, and no plan is kept or
// found. A hop subject's forwarder must also send the owner's DTD, s-DTD and
// outline of view, under the hop path, and refuse a revocation it cannot
// read.
func (s *Subject) checkEndpoints(view string) error {
	before := s.Mediator.Stats()
	for try := 0; try < 2; try++ {
		got, own := send(s.Handler, http.MethodPost, "/views/"+view+"/query", "r = SELECT", ""), send(s.owner, http.MethodPost, "/views/"+view+"/query", "r = SELECT", "")
		if got.Code != http.StatusBadRequest || got.Code != own.Code || got.Body.String() != own.Body.String() {
			return fmt.Errorf("oracle: %s: a text that does not parse: %d %q, the owner %d %q", s, got.Code, got.Body, own.Code, own.Body)
		}
	}
	if after := s.Mediator.Stats(); after.PlanCacheSize != before.PlanCacheSize || after.PlanTextHits+after.PlanHits != before.PlanTextHits+before.PlanHits {
		return fmt.Errorf("oracle: %s: a text that does not parse left or found a plan", s)
	}
	if s.hop == nil {
		return nil
	}
	for _, suffix := range []string{"/dtd", "/sdtd", "/outline"} {
		own, fwd := send(s.owner, http.MethodGet, "/views/"+view+suffix, "", ""), send(s.Handler, http.MethodGet, "/views/"+view+suffix, "", "")
		if own.Code != http.StatusOK || fwd.Code != own.Code || fwd.Body.String() != own.Body.String() || fwd.Header().Get(mediator.ForwardHeader) != forwarder {
			return fmt.Errorf("oracle: %s: GET /views/%s%s: the owner answered %d, the forwarder %d under %s %q, the same bytes %v", s, view, suffix,
				own.Code, fwd.Code, mediator.ForwardHeader, fwd.Header().Get(mediator.ForwardHeader), fwd.Body.String() == own.Body.String())
		}
	}
	if rec := send(s.Handler, http.MethodPost, cluster.RevokePath, "{", ""); rec.Code != http.StatusBadRequest {
		return fmt.Errorf("oracle: %s: a revocation the forwarder cannot read: %d", s, rec.Code)
	}
	return nil
}

// target is where text goes over view: a query, or for "" the document.
func target(view, text string) (method, path string) {
	if text == "" {
		return http.MethodGet, "/views/" + view
	}
	return http.MethodPost, "/views/" + view + "/query"
}

// send sends h a request, with If-None-Match ifNoneMatch unless it is "".
func send(h http.Handler, method, path, body, ifNoneMatch string) *httptest.ResponseRecorder {
	return sendContext(background, h, method, path, body, ifNoneMatch)
}

// sendContext is send under ctx. The request is built: httptest.NewRequest
// parses one, at many times the cost.
func sendContext(ctx context.Context, h http.Handler, method, path, body, ifNoneMatch string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r, err := http.NewRequestWithContext(ctx, method, path, strings.NewReader(body))
	if err != nil {
		panic(err)
	}
	r.RequestURI = path
	if ifNoneMatch != "" {
		r.Header.Set("If-None-Match", ifNoneMatch)
	}
	h.ServeHTTP(rec, r)
	return rec
}

// do sends st's request and checks what came back.
func (o *Oracle) do(st *Step, body, ifNoneMatch string, tally Tally) error {
	s := st.Subject
	cached := automata.CacheStats().Size
	st.Before = s.Mediator.Stats()
	method, path := target(st.View, st.Query)
	rec := send(s.Handler, method, path, body, ifNoneMatch)
	st.After = s.Mediator.Stats()
	st.Status, st.Body, st.Header, st.Tag = rec.Code, rec.Body.String(), rec.Header(), rec.Header().Get("ETag")
	return o.verify(st, ifNoneMatch, automata.CacheStats().Size-cached, tally)
}

// verify checks what came back for st, compiled the automata its read left
// resident. A concurrent read's Content-Length is only checked for the
// body's length: what the subject's stats say of it is every reader's.
func (o *Oracle) verify(st *Step, ifNoneMatch string, compiled int, tally Tally) error {
	s := st.Subject
	fail := func(format string, args ...any) error {
		return fmt.Errorf("oracle: %s, view %s, plan %s, read %s, invalidation %s, versions %v: %s\nquery:\n%s",
			s, st.View, st.Plan, readNames[st.Read], st.Inval, st.Versions, fmt.Sprintf(format, args...), st.Query)
	}

	prologue, doc, err := o.ref.Answer(st.Versions, st.View, st.Query)
	if err != nil {
		return err
	}
	// A starved definition, and one across a level, is sound but looser: its
	// own DTD heads the body.
	if (s.Starved || s.Kind == KindStacked) && st.Query == "" {
		v, err := s.Mediator.View(st.View)
		if err != nil {
			return err
		}
		prologue = v.DTDText
	}
	st.Want = st.Body // when it is the reference's: no concatenation per request
	if len(st.Body) != len(prologue)+len(doc) || st.Body[:len(prologue)] != prologue || st.Body[len(prologue):] != doc {
		st.Want = prologue + doc
	}
	switch {
	case ifNoneMatch != "" && ifNoneMatch == st.Tag:
		if st.Status != http.StatusNotModified || st.Body != "" || s.tags[st.Tag] != st.Want {
			return fail("a conditional read of the current tag %s: status %d, %d bytes", st.Tag, st.Status, len(st.Body))
		}
		tally["conditional reads"]++
	case st.Status != http.StatusOK || st.Body != st.Want:
		return fail("status %d, the body differs from the reference's serialization\n got %q\nwant %q", st.Status, st.Body, st.Want)
	case st.Query != "" && st.Tag != "":
		return fail("a query's answer carries the ETag %s", st.Tag)
	case st.Query == "" && st.Tag == "":
		return fail("the view document carries no ETag")
	case st.Query == "":
		// Only a real invalidation moves the tag s holds (a burst's failed
		// read clears it). A tag sent before came with these bytes, which
		// were validated then.
		held, seen := s.tags[st.Tag]
		if seen && held != st.Want || s.held != "" && st.Tag != s.held {
			return fail("the ETag %s was sent with other bytes before, or moved from %s with no source changed", st.Tag, s.held)
		}
		s.tags[st.Tag], s.held = st.Want, st.Tag
		if seen {
			break
		}
		if _, d, err := dtd.ParseDocument(st.Body); err != nil || d == nil || d.ValidateStream(st.Body) != nil {
			return fail("the body does not validate against the DTD in its own prologue (Definition 3.1)")
		}
	}
	switch declared, ok := st.Header["Content-Length"]; {
	case st.Status == http.StatusNotModified:
		if ok {
			return fail("a 304 declares Content-Length %s", declared[0])
		}
	case (s.hop != nil || st.Plan == planConcurrent) && !ok: // a forwarder's memos are the owner's type, not its mediator's, and a burst's stats are every reader's: no counter says what streamed
	case s.hop == nil && st.Plan != planConcurrent && streamed(st, doc):
		if ok {
			return fail("Content-Length %s on an answer that streamed a run", declared[0])
		}
		tally["chunked answers"]++
	case !ok:
		return fail("no Content-Length on an answer whose every run came from bytes")
	case declared[0] != strconv.Itoa(len(st.Body)):
		return fail("Content-Length %s on a body of %d bytes", declared[0], len(st.Body))
	default:
		tally["declared lengths"]++
	}
	if s.Starved && st.After.PlanMisses > st.Before.PlanMisses {
		// Nothing is compiled behind the budget's back (a read that computes a
		// part validates what it fetches, which is not analysis), and an
		// analysis that exhausted it is one budget's opinion: never kept.
		if compiled != 0 && st.After.CacheMisses == st.Before.CacheMisses {
			return fail("an analysis under %+v left %d automata resident", starvedBudget, compiled)
		}
		if st.After.BudgetExhaustions > st.Before.BudgetExhaustions {
			if st.After.PlanCacheSize != st.Before.PlanCacheSize {
				return fail("an analysis that exhausted its budget was kept: plan_cache_size %d -> %d", st.Before.PlanCacheSize, st.After.PlanCacheSize)
			}
			tally["starved analyses not kept"]++
		}
	}
	if s.hop != nil {
		if err := s.hop.check(st, s.owner, tally); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

// streamed reports whether the subject streamed a run of the answer doc
// (indented by 2, the body without its prologue) on the read st: whether less
// of what doc holds between its root's tags came from bytes a memo kept or
// rendered on the read than is there. An answer whose every run did has a
// length known before its first byte, and only such an answer declares it.
func streamed(st *Step, doc string) bool {
	open, close := strings.IndexByte(doc, '>')+1, strings.LastIndex(doc, "</")
	runs := max(close-open-1, 0) // less the newline after the open tag
	fromBytes := st.After.AnswerBytesCopied - st.Before.AnswerBytesCopied +
		st.After.AnswerBytesRendered - st.Before.AnswerBytesRendered
	return fromBytes < int64(runs)
}

// Canonical reports whether Normalize's result on an s-DTD does not depend
// on how its specializations are numbered: normalizing it, and a copy whose
// tags are rotated within each base, leaves as many specializations. The
// coarsest partition of the specializations into equivalent ones is unique,
// so how many classes a normalization finds must not depend on the order it
// meets them in.
func Canonical(s *sdtd.SDTD) error {
	tags := map[string][]int{}
	for _, n := range s.Names() {
		tags[n.Base] = append(tags[n.Base], n.Tag)
	}
	for _, ts := range tags {
		slices.Sort(ts)
	}
	rotate := func(n regex.Name) regex.Name {
		ts := tags[n.Base]
		if i := slices.Index(ts, n.Tag); i >= 0 {
			n.Tag = ts[(i+1)%len(ts)]
		}
		return n
	}
	rotated := sdtd.New(rotate(s.Root))
	for _, n := range s.Names() {
		t := s.Types[n]
		if !t.PCDATA {
			t = dtd.M(regex.Rename(t.Model, rotate))
		}
		rotated.Declare(rotate(n), t)
	}
	if n, m := len(s.Normalize(nil).Types), len(rotated.Normalize(nil).Types); n != m {
		return fmt.Errorf("oracle: the s-DTD normalizes to %d specializations, to %d once its tags are rotated:\n%s", n, m, s)
	}
	return nil
}
