// Package oracle is the differential oracle of a single node: it checks that
// every read path of the mediator behind internal/serve answers what a naive
// mediator answers over the same documents.
//
// The reference is a fresh mediator per vector of source versions, built on
// first use and never invalidated (a reused mediator carries what it computed
// across invalidations, which is what is under test): pruning off, its sources
// StaticSources over documents parsed into trees and then validated, its
// answers QueryUnsimplified's — the whole view walked, no plan, no memo, no
// kept byte.
//
// The subject is a serve.Handler over a mediator whose sources are
// HTTPSources reading an httptest origin that serves each source's current
// version, so every fetch is the streaming ParseValid and every refetch a
// conditional request. Check drives subjects — pruning on or off, budget
// funded or starved — through plan misses, plan hits by canonical key and by
// text, first, found-once, rendered and copied reads, and no, no-op and real
// invalidations, and asserts that
//   - every body is byte-equal to the reference's serialization;
//   - every GET /views/{name} body validates against the DTD in its own
//     prologue (Definition 3.1);
//   - equal ETags carry equal bytes;
//   - a 200 declares a Content-Length exactly when no run of it was streamed
//     on the read, and then the body's length; a 304 declares none;
//   - a starved analysis or view definition compiles nothing, and an analysis
//     that exhausted its budget is not kept;
//   - a funded view's s-DTD is Canonical.
//
// CheckInfer does the same for POST /infer: a memo miss, a memo hit and a
// direct InferContext render are the same bytes.
package oracle

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/budget"
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
	versions []atomic.Int32
}

// New starts the fleet's origin: GET /views/{source}/dtd is the source's DTD
// and GET /views/{source} its current version under that DOCTYPE, tagged with
// the version and answered 304 to that tag.
func New(f *Fleet) *Oracle {
	o := &Oracle{fleet: f, ref: NewReference(f), versions: make([]atomic.Int32, len(f.Sources))}
	mux := http.NewServeMux()
	for i, s := range f.Sources {
		prologue := s.DTD.String() + "\n"
		mux.HandleFunc("GET /views/"+s.Name+"/dtd", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(prologue))
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

// Subject is a mediator under test and the handler in front of it.
type Subject struct {
	Pruning, Starved bool
	Mediator         *mediator.Mediator
	Handler          *serve.Handler
	// sources are the names the mediator knows the fleet's sources by, in
	// fleet order.
	sources []string
	// tags maps every ETag the handler sent to the body it sent with it.
	tags map[string]string
}

func (s *Subject) String() string { return fmt.Sprintf("pruning %v, starved %v", s.Pruning, s.Starved) }

// Source is the name the subject's mediator knows source i of the fleet by.
func (s *Subject) Source(i int) string { return s.sources[i] }

// NewSubject builds a mediator over HTTPSources reading the origin, defines
// the fleet's views on it — under a one-state budget when starved is set —
// and puts a handler in front of it.
func (o *Oracle) NewSubject(pruning, starved bool) (*Subject, error) {
	m := mediator.New("subject")
	m.SetPruning(pruning)
	if starved {
		m.SetInferenceBudget(starvedBudget)
	}
	s := &Subject{Pruning: pruning, Starved: starved, Mediator: m, tags: map[string]string{}}
	for _, src := range o.fleet.Sources {
		w, err := mediator.NewHTTPSource(o.srv.Client(), o.srv.URL, src.Name)
		if err != nil {
			return nil, err
		}
		if err := m.AddSource(w); err != nil {
			return nil, err
		}
		s.sources = append(s.sources, w.Name())
	}
	for _, v := range o.fleet.Views {
		parts := slices.Clone(v.Parts)
		for i := range parts {
			parts[i].Source = s.sources[o.ref.sourceIndex(parts[i].Source)]
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
	return s, nil
}

// Subjects are the four subjects of the pruning and budget axes, the starved
// ones first: a query's first analysis on them finds no automaton resident.
func (o *Oracle) Subjects() ([]*Subject, error) {
	var out []*Subject
	for _, starved := range []bool{true, false} {
		for _, pruning := range []bool{true, false} {
			s, err := o.NewSubject(pruning, starved)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
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
)

// Step is one request of a Check: what it was sent under and what came back.
type Step struct {
	Subject     *Subject
	View, Query string // Query "" is GET /views/{View}
	Plan        string
	Read        int
	Inval       string
	Changed     int   // the source a real invalidation moved; -1 for none
	Versions    []int // what the sources served
	Status      int
	Body, Tag   string
	Header      http.Header
	Want        string // the reference's body
	// Before and After are the subject's mediator stats around the request.
	Before, After mediator.Stats
}

// Tally counts the requests of each value of each axis, the conditional
// reads, and the starved analyses that were not kept.
type Tally map[string]int

var axes = []string{"pruning=true", "pruning=false", "starved=true", "starved=false",
	"plan=" + PlanNone, "plan=" + PlanMiss, "plan=" + PlanKey, "plan=" + PlanText,
	"read=first", "read=found-once", "read=rendered", "read=copied",
	"invalidation=" + InvalNone, "invalidation=" + InvalNoOp, "invalidation=" + InvalReal,
	"conditional reads", "starved analyses not kept", "declared lengths", "chunked answers"}

// Vacuous names every value exercised fewer than min times.
func (t Tally) Vacuous(min int) error {
	var weak []string
	for _, k := range axes {
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
// after that source's invalidation. Before each query it empties the
// process-wide automata and satisfiability caches: a resident automaton is
// free, and a starved subject must pay for what it compiles. Each request is
// checked as the package comment says, counted in tally and handed to
// observe, whose error ends the check. The sources stay where the last change
// left them.
func (o *Oracle) Check(subjects []*Subject, view string, queries []string, tally Tally, observe func(*Step) error) error {
	for qi, text := range queries {
		automata.PurgeCache()
		infer.PurgeSatisfiabilityCache()
		ask := func(s *Subject, body, plan string, read int, inval string, changed int, ifNoneMatch string) (*Step, error) {
			if text == "" {
				plan = PlanNone
			}
			st := &Step{Subject: s, View: view, Query: text, Plan: plan, Read: read, Inval: inval, Changed: changed, Versions: o.Versions()}
			if err := o.do(st, body, ifNoneMatch, tally); err != nil {
				return nil, err
			}
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
		for _, s := range subjects {
			var last *Step
			var err error
			for read := ReadFirst; read <= ReadCopied && err == nil; read++ {
				plan := PlanText
				if read == ReadFirst {
					plan = PlanMiss
				}
				last, err = ask(s, text, plan, read, InvalNone, -1, "")
			}
			if err == nil && text == "" {
				_, err = ask(s, text, PlanNone, ReadCopied, InvalNone, -1, last.Tag)
			}
			for _, plan := range []string{PlanKey, PlanText} {
				if err == nil && text != "" {
					_, err = ask(s, "  "+strings.ReplaceAll(text, "\n", " \n ")+"\n", plan, ReadCopied, InvalNone, -1, "")
				}
			}
			if err == nil && s.Pruning {
				_, err = s.Mediator.InvalidateSource(s.sources[qi%len(s.sources)])
			} else if err == nil {
				s.Mediator.Invalidate()
			}
			if err == nil {
				_, err = ask(s, text, PlanText, ReadCopied, InvalNoOp, -1, "")
			}
			if err != nil {
				return err
			}
		}
		for i, src := range o.fleet.Sources {
			if len(src.Docs) < 2 {
				continue
			}
			o.Serve(i, (o.Versions()[i]+1)%len(src.Docs))
			for _, s := range subjects {
				_, err := s.Mediator.InvalidateSource(s.sources[i])
				for read := ReadFirst; read <= ReadCopied && err == nil; read++ {
					_, err = ask(s, text, PlanText, read, InvalReal, i, "")
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// do sends st's request and checks what came back.
func (o *Oracle) do(st *Step, body, ifNoneMatch string, tally Tally) error {
	s := st.Subject
	req := httptest.NewRequest(http.MethodPost, "/views/"+st.View+"/query", strings.NewReader(body))
	if st.Query == "" {
		req = httptest.NewRequest(http.MethodGet, "/views/"+st.View, nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
	}
	rec, cached := httptest.NewRecorder(), automata.CacheStats().Size
	st.Before = s.Mediator.Stats()
	s.Handler.ServeHTTP(rec, req)
	st.After = s.Mediator.Stats()
	compiled := automata.CacheStats().Size - cached
	st.Status, st.Body, st.Header, st.Tag = rec.Code, rec.Body.String(), rec.Header(), rec.Header().Get("ETag")
	fail := func(format string, args ...any) error {
		return fmt.Errorf("oracle: %s, view %s, plan %s, read %s, invalidation %s, versions %v: %s\nquery:\n%s",
			s, st.View, st.Plan, readNames[st.Read], st.Inval, st.Versions, fmt.Sprintf(format, args...), st.Query)
	}

	prologue, doc, err := o.ref.Answer(st.Versions, st.View, st.Query)
	if err != nil {
		return err
	}
	if s.Starved && st.Query == "" { // a starved definition is sound but looser: its own DTD heads the body
		v, err := s.Mediator.View(st.View)
		if err != nil {
			return err
		}
		prologue = v.DTDText
	}
	st.Want = prologue + doc
	switch {
	case ifNoneMatch != "" && ifNoneMatch == st.Tag:
		if st.Status != http.StatusNotModified || st.Body != "" || s.tags[st.Tag] != st.Want {
			return fail("a conditional read of the current tag %s: status %d, %d bytes", st.Tag, st.Status, len(st.Body))
		}
		tally["conditional reads"]++
	case st.Status != http.StatusOK || st.Body != st.Want:
		return fail("status %d, the body differs from the reference's serialization\n got %q\nwant %q", st.Status, st.Body, st.Want)
	case st.Query == "" && st.Tag == "":
		return fail("the view document carries no ETag")
	case st.Query == "":
		if _, d, err := dtd.ParseDocument(st.Body); err != nil || d == nil || d.ValidateStream(st.Body) != nil {
			return fail("the body does not validate against the DTD in its own prologue (Definition 3.1)")
		}
	}
	switch declared, ok := st.Header["Content-Length"]; {
	case st.Status == http.StatusNotModified:
		if ok {
			return fail("a 304 declares Content-Length %s", declared[0])
		}
	case streamed(st, doc):
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
	if held, ok := s.tags[st.Tag]; ok && held != st.Want {
		return fail("the ETag %s was sent with other bytes before", st.Tag)
	} else if st.Tag != "" {
		s.tags[st.Tag] = st.Want
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
