package mediator

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/automata/cache"
	"repro/internal/xmlmodel"
)

// The part slot explored: every order, within a budget, of the events of one
// view of two parts, part i over source i — two readers, A and B, each
// reading the whole view, B's context ending when it likes; their fetches
// ending live, dropped, stale, failed, panicked or cancelled; invalidations,
// of one source or of all; a source change, announced or not. The decisions
// are the slot's (slot.go), each landing goes through the calc's flight, and
// the fetch, the documents and a read's fan-out (a part's failure ends the
// read's context) are modelled here. After every event these properties are
// checked, and a violation fails with the shortest trace that reaches one:
//
//	(a) an answer's live parts come from documents no older than the last
//	    invalidation of their source before the read began;
//	(b) a no-op invalidation does not move the tag: a part's latest calc
//	    that lands complete over the document the one before it landed over
//	    carries that one's version — unless a claim found the part's latest
//	    calc still running, and so gave its own leader no predecessor;
//	(c) a reader whose context is alive never receives its leader's own
//	    failure;
//	(d) no state has a reader still reading and no enabled event;
//	(e) a slot holds one result: a landed calc, or a predecessor;
//	(f) a hit hands out only a complete, live result: never one that landed
//	    an error, a dropped part or a last-known-good document.

// fetchEnd is how a leader's fetch ends.
type fetchEnd uint8

const (
	endLive      fetchEnd = iota // the source's current document
	endDropped                   // the source's breaker is open
	endStale                     // a last-known-good copy
	endFailed                    // the source failed
	endPanicked                  // the wrapper panicked
	endCancelled                 // the leader's context ended first: its own failure
)

var endName = []string{"live", "dropped", "stale", "failed", "panicked", "cancelled"}

// A reader's part, once claimed, is led, waited on, or done.
const (
	partLeading = iota + 1
	partWaiting
	partDone
)

// slotDocs are the two versions of each source's document.
var slotDocs = [2][2]*xmlmodel.Document{{{}, {}}, {{}, {}}}

// landed is how a calc landed: its result, whether the slot sent its joiners
// back to claim, and how its fetch ended.
type landed struct {
	res  partResult
	redo bool
	end  fetchEnd
}

type readerPart struct {
	state int
	calc  *partCalc
	res   partResult // a leader's predecessor until it lands
	err   error
}

type slotReader struct {
	reads              int8 // left
	reading, cancelled bool
	floor              [2]int
	parts              [2]readerPart
}

type slotWorld struct {
	slots         [2]partSlot
	gen           [2]uint64    // per source
	doc           [2]int       // the version of each source's document
	floor         [2]int       // each source's document at its last invalidation
	latest        [2]*partCalc // the calc of each part's latest lead
	want          [2]*landed   // how the latest calc before it landed complete
	invs, changes int8         // left
	faults        int8         // fetches that may still end neither live nor cancelled
	readers       [2]slotReader
	// landings is how each calc landed, shared by every world of a search: a
	// landed calc is never written again, so worlds share it, and only a
	// running one is a world's own.
	landings map[*partCalc]*landed
}

type slotEvent struct {
	kind string
	r, i int
	end  fetchEnd
}

var slotEventText = map[string]string{
	"read": "%[1]c reads the view", "land": "%[1]c's fetch of part %[2]d ends %[3]s",
	"wake": "%[1]c stops waiting on part %[2]d", "cancel": "%[1]c's context ends",
	"change": "source %[2]d changes", "invalidate": "source %[2]d is invalidated",
}

func (e slotEvent) String() string {
	if e.kind == "invalidate" && e.i < 0 {
		return "every source is invalidated"
	}
	return fmt.Sprintf(slotEventText[e.kind], 'A'+e.r, e.i, endName[e.end])
}

// slotBudget bounds a trace: the reads of A and of B, the fetches that end
// neither live nor cancelled, the invalidations and the source changes.
type slotBudget struct{ readsA, readsB, faults, invs, changes int8 }

func newSlotWorld(b slotBudget) *slotWorld {
	w := &slotWorld{invs: b.invs, changes: b.changes, faults: b.faults, landings: map[*partCalc]*landed{}}
	w.readers[0].reads, w.readers[1].reads = b.readsA, b.readsB
	return w
}

func (w *slotWorld) events() (es []slotEvent) {
	for r := range w.readers {
		rd := &w.readers[r]
		if !rd.reading {
			if rd.reads > 0 {
				es = append(es, slotEvent{kind: "read", r: r})
			}
			continue
		}
		if r == 1 && !rd.cancelled {
			es = append(es, slotEvent{kind: "cancel", r: r})
		}
		for i, p := range rd.parts {
			if p.state == partWaiting && (w.landings[p.calc] != nil || rd.cancelled) {
				es = append(es, slotEvent{kind: "wake", r: r, i: i})
			}
			if p.state != partLeading {
				continue
			}
			ends := []fetchEnd{endLive}
			if rd.cancelled {
				ends = append(ends, endCancelled)
			} else if w.faults > 0 {
				ends = append(ends, endDropped, endStale, endFailed, endPanicked)
			}
			for _, end := range ends {
				es = append(es, slotEvent{kind: "land", r: r, i: i, end: end})
			}
		}
	}
	for i := -1; i < 2 && w.invs > 0; i++ {
		es = append(es, slotEvent{kind: "invalidate", i: i})
	}
	for i := 0; i < 2 && w.changes > 0; i++ {
		es = append(es, slotEvent{kind: "change", i: i})
	}
	return es
}

// apply runs e on w, and returns the property it broke.
func (w *slotWorld) apply(e slotEvent) (err error) {
	rd := &w.readers[e.r]
	switch e.kind {
	case "read":
		rd.reads--
		rd.reading, rd.cancelled, rd.floor = true, false, w.floor
		for i := range rd.parts {
			if err = w.claim(e.r, i); err != nil {
				return err
			}
		}
	case "land":
		if e.end != endLive && e.end != endCancelled {
			w.faults--
		}
		err = w.land(e.r, e.i, e.end)
	case "wake":
		err = w.wake(e.r, e.i)
	case "cancel":
		rd.cancelled = true
	case "invalidate":
		w.invs--
		for s := range w.gen {
			if e.i < 0 || e.i == s {
				w.gen[s]++
				w.floor[s] = w.doc[s]
			}
		}
	case "change":
		w.changes--
		w.doc[e.i]++
	}
	if err == nil && rd.reading {
		err = w.finish(e.r)
	}
	for i, s := range w.slots {
		if err == nil && s.calc != nil && w.landings[s.calc] != nil && !reflect.ValueOf(s.prev).IsZero() {
			err = fmt.Errorf("(e) part %d's slot holds a landed calc and a predecessor", i)
		}
	}
	return err
}

// claim is reader r's claim of part i's slot, at the read's start or after
// its leader's failure was the leader's own.
func (w *slotWorld) claim(r, i int) error {
	p := &w.readers[r].parts[i]
	running := w.latest[i] != nil && w.landings[w.latest[i]] == nil
	c, res, lead, hit := w.slots[i].claim(w.gen[i])
	p.calc, p.res, p.err = c, res, nil
	switch {
	case lead:
		if running {
			w.want[i] = nil // the rule: a calc still in flight leaves no predecessor
		}
		p.state, w.latest[i] = partLeading, c
	case hit:
		p.state = partDone
		if l := w.landings[c]; l == nil || l.end != endLive {
			return fmt.Errorf("(f) %c's hit on part %d handed out a calc that has not landed live", 'A'+r, i)
		}
	default:
		p.state = partWaiting
	}
	return nil
}

// slotMu stands for Mediator.mu: the exploration is one goroutine.
var slotMu sync.Mutex

// land ends reader r's fetch of part i as end, and lands its calc through
// the calc's flight, the slot settling it, as resolvePart does.
func (w *slotWorld) land(r, i int, end fetchEnd) error {
	rd := &w.readers[r]
	p := &rd.parts[i]
	c, prev, own, l := p.calc, p.res, rd.cancelled, &landed{end: end}
	compute := func() (partResult, error) {
		res := partResult{ver: c.gen}
		switch end {
		case endDropped:
			return partResult{dropped: true}, nil
		case endFailed:
			return res, errFetch
		case endCancelled:
			return res, context.Canceled
		case endPanicked:
			panic("the wrapper panics")
		}
		doc := slotDocs[i][w.doc[i]]
		if res.stale = end == endStale; prev.carries(doc, res.stale) {
			res.ver, res.answers = prev.ver, prev.answers
		} else {
			res.answers = &AnswerMemo{doc: doc}
		}
		return res, nil
	}
	func() {
		defer func() { _ = recover() }() // the flight has landed a panic (Run)
		p.res, p.err = c.Run(&slotMu, compute, func(res partResult, err error) bool {
			l.res = res
			l.redo, _ = w.slots[i].land(c, w.gen[i], res, err, own)
			return l.redo
		})
	}()
	if end == endPanicked {
		p.res, p.err = partResult{}, cache.ErrComputePanic
	}
	w.landings[c] = l
	if c == w.latest[i] && end == endLive {
		if want := w.want[i]; want != nil && docOf(i, want.res) == docOf(i, l.res) && want.res.ver != l.res.ver {
			return fmt.Errorf("(b) part %d's calc of generation %d landed version %d over the document the one before it landed version %d over",
				i, c.gen, l.res.ver, want.res.ver)
		}
		w.want[i] = l
	}
	w.done(r, i)
	return nil
}

// wake is reader r's wait on part i returning: its calc landed, or r's
// context ended.
func (w *slotWorld) wake(r, i int) error {
	rd := &w.readers[r]
	p := &rd.parts[i]
	ctx, cancel := context.WithCancel(context.Background())
	if cancel(); !rd.cancelled {
		ctx = context.Background()
	}
	res, err, redo := p.calc.Wait(ctx)
	if redo {
		return w.claim(r, i)
	}
	if l := w.landings[p.calc]; err != nil && !rd.cancelled && l != nil && l.end == endCancelled {
		return fmt.Errorf("(c) %c received the failure of part %d's leader, whose context had ended", 'A'+r, i)
	}
	p.res, p.err = res, err
	w.done(r, i)
	return nil
}

// done ends reader r's part i; a failure ends the read's context while
// another part runs, as resolveParts does.
func (w *slotWorld) done(r, i int) {
	rd := &w.readers[r]
	rd.parts[i].state = partDone
	if rd.parts[i].err != nil && rd.parts[1-i].state != partDone {
		rd.cancelled = true
	}
}

// finish ends reader r's read once every part is done, and checks its
// answer.
func (w *slotWorld) finish(r int) error {
	rd := &w.readers[r]
	if rd.parts[0].state != partDone || rd.parts[1].state != partDone {
		return nil
	}
	parts := rd.parts
	rd.reading, rd.parts = false, [2]readerPart{}
	if parts[0].err != nil || parts[1].err != nil {
		return nil // the read failed
	}
	for i, p := range parts {
		if res := p.res; !res.dropped && !res.stale && docOf(i, res) < rd.floor[i] {
			return fmt.Errorf("(a) %c's answer has part %d from document version %d, invalidated when version %d was the source's",
				'A'+r, i, docOf(i, res), rd.floor[i])
		}
	}
	return nil
}

// docOf is the version of source i's document res was evaluated from, or -1.
func docOf(i int, res partResult) int {
	if res.answers == nil {
		return -1
	}
	return slices.Index(slotDocs[i][:], res.answers.doc)
}

// clone copies w, each running calc a new one.
func (w *slotWorld) clone() *slotWorld {
	n := *w
	var made [][2]*partCalc
	remake := func(c *partCalc) *partCalc {
		if c == nil || w.landings[c] != nil {
			return c
		}
		if k := slices.IndexFunc(made, func(m [2]*partCalc) bool { return m[0] == c }); k >= 0 {
			return made[k][1]
		}
		d := &partCalc{gen: c.gen}
		d.Start()
		made = append(made, [2]*partCalc{c, d})
		return d
	}
	for i := range n.slots {
		n.slots[i].calc, n.latest[i] = remake(w.slots[i].calc), remake(w.latest[i])
	}
	for r := range n.readers {
		for i := range n.readers[r].parts {
			n.readers[r].parts[i].calc = remake(w.readers[r].parts[i].calc)
		}
	}
	return &n
}

// key is w's state, its calcs numbered in the order it meets them.
func (w *slotWorld) key() string {
	b := make([]byte, 0, 96)
	var ids []*partCalc
	res := func(i int, r partResult) {
		b = append(b, byte(docOf(i, r)), byte(r.ver), bit(r.dropped)|bit(r.stale)<<1)
	}
	calc := func(i int, c *partCalc) {
		if k := slices.Index(ids, c); k >= 0 || c == nil {
			b = append(b, byte(k))
			return
		}
		ids = append(ids, c)
		if b = append(b, 'c', byte(c.gen)); w.landings[c] != nil {
			b = append(b, byte(w.landings[c].end), bit(w.landings[c].redo))
			res(i, w.landings[c].res)
		}
	}
	for i := range 2 {
		b = append(b, byte(w.gen[i]), byte(w.doc[i]), byte(w.floor[i]), bit(w.want[i] != nil))
		if w.want[i] != nil {
			res(i, w.want[i].res)
		}
		calc(i, w.slots[i].calc)
		res(i, w.slots[i].prev)
		calc(i, w.latest[i])
	}
	b = append(b, byte(w.invs), byte(w.changes), byte(w.faults))
	for _, rd := range w.readers {
		b = append(b, '|', byte(rd.reads), byte(rd.floor[0]), byte(rd.floor[1]), bit(rd.reading)|bit(rd.cancelled)<<1)
		for i, p := range rd.parts {
			b = append(b, byte(p.state), bit(p.err != nil))
			calc(i, p.calc)
			res(i, p.res)
		}
	}
	return string(b)
}

func bit(x bool) byte {
	if x {
		return 1
	}
	return 0
}

// slotNode is the state event e led to from up; its world goes once expanded.
type slotNode struct {
	w  *slotWorld
	e  slotEvent
	up *slotNode
}

func (n *slotNode) trace() (t []slotEvent) {
	for ; n.up != nil; n = n.up {
		t = append(t, n.e)
	}
	slices.Reverse(t)
	return t
}

// exploreSlot searches every state within b breadth first, each once, so the
// first violation it meets is at the end of a shortest trace.
func exploreSlot(b slotBudget) (states int, trace []slotEvent, err error) {
	seen := map[string]bool{}
	for level := []*slotNode{{w: newSlotWorld(b)}}; len(level) > 0; {
		var next []*slotNode
		for _, n := range level {
			es := n.w.events()
			if len(es) == 0 && (n.w.readers[0].reading || n.w.readers[1].reading) {
				return len(seen), n.trace(), errors.New("(d) a reader is still reading and no event is enabled")
			}
			for _, e := range es {
				child := &slotNode{w: n.w.clone(), e: e, up: n}
				if err := child.w.apply(e); err != nil {
					return len(seen), child.trace(), err
				}
				if k := child.w.key(); !seen[k] {
					seen[k] = true
					next = append(next, child)
				}
			}
			n.w = nil
		}
		if len(seen) > 1<<20 {
			return len(seen), nil, errors.New("the model has grown past 1<<20 states")
		}
		level = next
	}
	return len(seen), nil, nil
}

// slotCorners are the budgets explored, each to its end; each known defect of
// the slot needs no more than one of them.
var slotCorners = []slotBudget{
	{readsA: 2, readsB: 1, invs: 2, changes: 1},
	{readsA: 2, readsB: 2, invs: 2},
	{readsA: 1, readsB: 1, faults: 1, invs: 1, changes: 1},
	{readsA: 2, readsB: 1, faults: 1, invs: 1},
	{readsA: 2, faults: 1, invs: 2, changes: 1},
}

func TestPartSlotExplored(t *testing.T) {
	for _, c := range slotCorners {
		start := time.Now()
		states, trace, err := exploreSlot(c)
		t.Logf("budget %+v: %d states, %v", c, states, time.Since(start).Round(time.Millisecond))
		if err != nil {
			var b strings.Builder
			for i, e := range trace {
				fmt.Fprintf(&b, "\n  %2d. %s", i+1, e)
			}
			t.Fatalf("%v, after %d events:%s", err, len(trace), b.String())
		}
	}
}
