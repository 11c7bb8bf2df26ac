package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// oracle holds the expected answer of every read, computed on the naive
// path: static sources, pruning off, QueryUnsimplified, no cache. A union
// view's answer is the concatenation, in part order, of what each part
// contributes, so answers are stored per (query, source, version) and an
// expected response is assembled for whatever versions were current.
type oracle struct {
	fx *fixtures
	// chunks[view][query][source][version] is the serialized run of
	// children the source contributes to the query's answer; query index
	// len(view.queries()) is the materialization.
	chunks [][][][]string
	// viewDTD[view] is the inferred view DTD text a materialization is
	// served under, from a single-node reference mediator.
	viewDTD []string
	// inferHot[i] is the expected /infer response for hot payload i.
	inferHot []string

	versions *versionClock
}

func buildOracle(fx *fixtures) (*oracle, error) {
	o := &oracle{fx: fx, versions: newVersionClock(len(fx.sources))}
	ref := mediator.New("reference")
	ref.SetPruning(false)
	for _, v := range fx.views {
		var parts []mediator.ViewPart
		for _, s := range v.sources {
			src, err := mediator.NewStaticSource(s.name, s.docs[0], s.dtd)
			if err != nil {
				return nil, err
			}
			if err := ref.AddSource(src); err != nil {
				return nil, err
			}
			parts = append(parts, mediator.ViewPart{Source: s.name, Query: xmas.MustParse(partQuery(s.name))})
		}
		rv, err := ref.DefineUnionView(v.name, parts)
		if err != nil {
			return nil, err
		}
		o.viewDTD = append(o.viewDTD, rv.DTD.String()+"\n")

		queries := v.queries()
		perQuery := make([][][]string, len(queries)+1)
		for qi := range perQuery {
			perQuery[qi] = make([][]string, len(v.sources))
		}
		for si, s := range v.sources {
			for ver := range s.docs {
				// One naive mediator per (source, version): a one-part view
				// of the same name, so a query against the union view parses
				// against it unchanged.
				m := mediator.New("naive")
				m.SetPruning(false)
				src, err := mediator.NewStaticSource(s.name, s.docs[ver], s.dtd)
				if err != nil {
					return nil, err
				}
				if err := m.AddSource(src); err != nil {
					return nil, err
				}
				if _, err := m.DefineUnionView(v.name, []mediator.ViewPart{{Source: s.name, Query: xmas.MustParse(partQuery(s.name))}}); err != nil {
					return nil, err
				}
				for qi, text := range queries {
					m.Invalidate()
					res, err := m.QueryUnsimplified(background, v.name, xmas.MustParse(text))
					if err != nil {
						return nil, fmt.Errorf("oracle: %s over %s: %w", text, s.name, err)
					}
					perQuery[qi][si] = append(perQuery[qi][si], childrenChunk(res.Root))
				}
				m.Invalidate()
				doc, err := m.Materialize(background, v.name)
				if err != nil {
					return nil, err
				}
				perQuery[len(queries)][si] = append(perQuery[len(queries)][si], childrenChunk(doc.Root))
			}
		}
		o.chunks = append(o.chunks, perQuery)
	}
	for _, p := range fx.inferHot {
		want, err := expectedInfer(p)
		if err != nil {
			return nil, err
		}
		o.inferHot = append(o.inferHot, want)
	}
	return o, nil
}

// childrenChunk serializes an element's children as they appear inside
// its own serialization: one indented child per line run.
func childrenChunk(root *xmlmodel.Element) string {
	if len(root.Children) == 0 {
		return ""
	}
	s := xmlmodel.MarshalElement(root, 2)
	s = strings.TrimPrefix(s, "<"+root.Name+">\n")
	return strings.TrimSuffix(s, "</"+root.Name+">\n")
}

// expectedInfer computes the /infer response for a payload by calling the
// inference entry point directly and rendering the result in the
// endpoint's format.
func expectedInfer(payload string) (string, error) {
	cut := strings.Index(payload, "]>")
	src, err := dtd.Parse(payload[:cut+2])
	if err != nil {
		return "", err
	}
	q, err := xmas.Parse(payload[cut+2:])
	if err != nil {
		return "", err
	}
	res, err := infer.InferContext(background, q, src)
	if err != nil {
		return "", err
	}
	return renderInfer(res), nil
}

// renderInfer renders an inference result in the /infer endpoint's format.
func renderInfer(res *infer.Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "-- specialized view DTD")
	fmt.Fprintln(&b, res.SDTD)
	fmt.Fprintln(&b, "-- plain view DTD")
	fmt.Fprintln(&b, res.DTD)
	fmt.Fprintf(&b, "-- classification: %s\n", res.Class)
	if res.Degraded {
		fmt.Fprintf(&b, "-- degraded: %s (sound but not tightest; loose names: %s)\n",
			res.DegradedReason, strings.Join(res.DegradedNames, ", "))
	}
	for _, ev := range res.Merges {
		if ev.Distinct {
			fmt.Fprintf(&b, "-- warning: %s\n", ev)
		}
	}
	return b.String()
}

// versionClock tracks which version of each source is current and which
// sources have an invalidation in flight, so that a read can be held to
// exactly the versions it could legitimately have seen.
type versionClock struct {
	mu       sync.Mutex
	current  []int8
	inflight []int32
	epoch    []uint32 // bumped when an invalidation starts
}

func newVersionClock(n int) *versionClock {
	return &versionClock{current: make([]int8, n), inflight: make([]int32, n), epoch: make([]uint32, n)}
}

// readStamp is what a read records before it is sent.
type readStamp struct {
	current []int8
	busy    []bool
	epoch   []uint32
}

func (c *versionClock) stamp() readStamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := readStamp{current: append([]int8(nil), c.current...), epoch: append([]uint32(nil), c.epoch...), busy: make([]bool, len(c.current))}
	for i, n := range c.inflight {
		st.busy[i] = n > 0
	}
	return st
}

// admissible returns, per source, the bit set of versions a read stamped
// with st and finishing now may show: bit v for version v. A source whose
// invalidation overlapped the read may show either version; every other
// source must show the version current when the read began — a read
// issued after an invalidation's 2xx therefore must see the new version.
func (c *versionClock) admissible(st readStamp) []uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint8, len(st.current))
	for i := range out {
		if st.busy[i] || st.epoch[i] != c.epoch[i] {
			out[i] = 3
		} else {
			out[i] = 1 << uint(st.current[i])
		}
	}
	return out
}

// begin marks an invalidation of source i as in flight and switches the
// leaf to the other version — under the clock's lock, so two overlapping
// invalidations of one source cannot leave leaf and clock disagreeing.
// end marks the invalidation complete.
func (c *versionClock) begin(i int, leafVersion *atomic.Int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight[i]++
	c.epoch[i]++
	c.current[i] ^= 1
	leafVersion.Store(int32(c.current[i]))
}

func (c *versionClock) end(i int) {
	c.mu.Lock()
	c.inflight[i]--
	c.mu.Unlock()
}

// matchAnswer reports whether body is head, then an element named root
// whose children are, source by source, one of the admissible versions'
// chunks. chunks[source][version]; allowed[source] is a version bit set.
func matchAnswer(body, head, root string, chunks [][]string, allowed []uint8) bool {
	rest, ok := strings.CutPrefix(body, head)
	if !ok {
		return false
	}
	rest, ok = strings.CutPrefix(rest, "<"+root+">")
	if !ok {
		return false
	}
	tail := "</" + root + ">\n"
	// An element with children breaks the line after its start tag; one
	// without does not.
	rest, hasChildren := strings.CutPrefix(rest, "\n")
	var walk func(si int, rest string, any bool) bool
	walk = func(si int, rest string, any bool) bool {
		if si == len(chunks) {
			return rest == tail && any == hasChildren
		}
		for ver, chunk := range chunks[si] {
			if allowed[si]&(1<<uint(ver)) == 0 || !strings.HasPrefix(rest, chunk) {
				continue
			}
			if walk(si+1, rest[len(chunk):], any || chunk != "") {
				return true
			}
		}
		return false
	}
	return walk(0, rest, false)
}

// checkRead verifies a query or materialization response against the
// oracle. allowed covers all sources of the fixtures.
func (o *oracle) checkRead(op op, body string, allowed []uint8) bool {
	v := o.fx.views[op.view]
	first := op.view * o.fx.w.sourcesPerView
	viewAllowed := allowed[first : first+len(v.sources)]
	if op.kind == opMaterialize {
		return matchAnswer(body, o.viewDTD[op.view], v.name, o.chunks[op.view][len(o.chunks[op.view])-1], viewAllowed)
	}
	return matchAnswer(body, "", "r", o.chunks[op.view][op.query], viewAllowed)
}

// explainRead says how a rejected read differs from what was admissible:
// which version of each source the body actually shows, if any combination
// of versions matches it at all.
func (o *oracle) explainRead(op op, body string, allowed []uint8) string {
	v := o.fx.views[op.view]
	first := op.view * o.fx.w.sourcesPerView
	head, root, chunks := "", "r", o.chunks[op.view][op.query]
	if op.kind == opMaterialize {
		head, root, chunks = o.viewDTD[op.view], v.name, o.chunks[op.view][len(o.chunks[op.view])-1]
	}
	any := make([]uint8, len(v.sources))
	for i := range any {
		any[i] = 3
	}
	if !matchAnswer(body, head, root, chunks, any) {
		return fmt.Sprintf("the %d-byte answer matches no combination of source versions", len(body))
	}
	var shown []string
	for si := range v.sources {
		for ver := uint8(1); ver <= 2; ver++ {
			only := append([]uint8(nil), any...)
			only[si] = ver
			if chunks[si][0] != chunks[si][len(chunks[si])-1] && matchAnswer(body, head, root, chunks, only) {
				shown = append(shown, fmt.Sprintf("%s shows v%d, admissible %02b", v.sources[si].name, ver-1, allowed[first+si]))
			}
		}
	}
	return "the answer is a valid one for other versions: " + strings.Join(shown, "; ")
}

// inferSample is the share of unique-payload /infer responses recomputed
// directly: op indices divisible by it. Hot payloads are always checked.
const inferSample = 16

// checkInfer verifies an /infer response; unique payloads are recomputed
// on a deterministic 1-in-inferSample sample and otherwise only required
// to be a complete response.
func (o *oracle) checkInfer(op op, body string) bool {
	if op.kind == opInferHot {
		return body == o.inferHot[op.query]
	}
	if op.index%inferSample != 0 {
		return strings.HasPrefix(body, "-- specialized view DTD\n") && strings.Contains(body, "\n-- classification: ")
	}
	want, err := expectedInfer(op.payload)
	return err == nil && body == want
}

// checkSoundness re-validates a served materialization against the view
// DTD it was served with (Definition 3.1: every view document satisfies
// the inferred view DTD).
func checkSoundness(body string) error {
	_, d, err := dtd.ParseDocument(body)
	if err != nil {
		return err
	}
	if d == nil {
		return fmt.Errorf("materialization carries no DTD")
	}
	return d.ValidateStream(body)
}
