package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mediator"
)

// spliceQueries are asked of the six-part view at every step of the splice
// tests: picks from some runs, a condition below the picked member, picks
// below a member, two conditions under the root (no run's alone, so never
// kept), and a recursive one.
var spliceQueries = []string{
	`r = SELECT X WHERE <six> X:<x0|x2|x5/> </six>`,
	`r = SELECT X WHERE <six> X:<x3><note>v1</note></x3> </six>`,
	`r = SELECT N WHERE <six> <x2> N:<name/> </x2> </six>`,
	`r = SELECT X WHERE <six> X:<x1/> <x2 id=Q/> </six> AND X != Q`,
	`r = SELECT N WHERE <six*> N:<note/> </>`,
}

// sameAsOwner fails unless the forwarder's GET /views/six — its bytes and its
// ETag — and its answer to every spliceQueries query are the owner's own.
// The forwarder's GET goes first: it is the read that fetches.
func (p *sixParts) sameAsOwner(t *testing.T, step string) {
	t.Helper()
	fcode, fbody, fh := get(t, p.fwd.URL+"/views/six")
	ocode, obody, oh := get(t, p.owner.URL+"/views/six")
	if fcode != http.StatusOK || ocode != http.StatusOK {
		t.Fatalf("%s: GET /views/six: forwarder %d, owner %d", step, fcode, ocode)
	}
	if fbody != obody {
		t.Errorf("%s: the forwarder's document differs from the owner's:\n%s\nwant\n%s", step, fbody, obody)
	}
	if ftag, otag := fh.Get("ETag"), oh.Get("ETag"); ftag != otag || otag == "" {
		t.Errorf("%s: the forwarder's ETag is %s, the owner's %s", step, ftag, otag)
	}
	for _, q := range spliceQueries {
		fcode, fbody := postBody(t, p.fwd.URL+"/views/six/query", q)
		ocode, obody := postBody(t, p.owner.URL+"/views/six/query", q)
		if fcode != http.StatusOK || ocode != http.StatusOK || fbody != obody {
			t.Errorf("%s: %s: the forwarder answered %d\n%s\nthe owner %d\n%s", step, q, fcode, fbody, ocode, obody)
		}
	}
}

// A forwarder that holds the view's document is sent, after a change, the
// runs of the parts that moved alone (226), and what it serves from the
// document it splices them into — the document, its tag, and every query's
// answer, each run's picks from the run's memo or a walk of the run — is the
// owner's, byte for byte, whichever parts moved: none, the first, the last,
// one in the middle, two apart, all, and a part whose run empties or fills
// from empty.
func TestForwardSpliceMatchesTheOwner(t *testing.T) {
	p := newSixParts(t)
	p.sameAsOwner(t, "first read")
	p.takeSent()
	for _, c := range []struct {
		name  string
		parts []int
		to    int // the document the parts switch to; -1 for the other of 0 and 1
	}{
		{"no part", nil, -1},
		{"the first part", []int{0}, -1},
		{"the last part", []int{5}, -1},
		{"a middle part", []int{3}, -1},
		{"two parts", []int{1, 4}, -1},
		{"every part", []int{0, 1, 2, 3, 4, 5}, -1},
		{"a part emptied", []int{2}, 2},
		{"a part filled from empty", []int{2}, 0},
		{"the first and the last emptied", []int{0, 5}, 2},
		{"the first and the last filled", []int{0, 5}, 1},
	} {
		for _, i := range c.parts {
			v := c.to
			if v < 0 {
				v = 1 - min(int(p.sources[i].at.Load()), 1)
			}
			p.set(t, i, v)
		}
		p.sameAsOwner(t, c.name)
		full, delta, notModified := p.takeSent()
		// The owner's own GET is the one 200; the forwarder's GET fetched, and
		// its queries revalidated what it fetched.
		wantDelta, wantNotModified := int64(1), int64(len(spliceQueries))
		if len(c.parts) == 0 {
			wantDelta, wantNotModified = 0, wantNotModified+1
		}
		if full != 1 || delta != wantDelta || notModified != wantNotModified {
			t.Errorf("%s: the owner answered %d × 200, %d × 226, %d × 304; want 1, %d, %d",
				c.name, full, delta, notModified, wantDelta, wantNotModified)
		}
	}
	if m := p.fwdNode.Metrics(); m.Deltas != 9 {
		t.Errorf("the forwarder spliced %d deltas, want 9", m.Deltas)
	}
}

// Nothing that crosses the hop is trusted: a delta that lies about its runs,
// brings an element its type rejects or a sequence the view's root model
// rejects, is against another tag, or comes from another mediator, is
// refused, and the forwarder fetches the whole document instead — the
// owner's, which it serves. It never serves the spliced one.
func TestForwardSpliceRefusesHostileDeltas(t *testing.T) {
	// lie rewrites the count of part i in the delta's runs header by by.
	lie := func(h http.Header, i, by int) {
		counts := strings.Split(h.Get(mediator.RunsHeader), ",")
		n, _ := strconv.Atoi(counts[i])
		counts[i] = strconv.Itoa(n + by)
		h.Set(mediator.RunsHeader, strings.Join(counts, ","))
	}
	for _, c := range []struct {
		name   string
		tamper func(h http.Header, body string) string
	}{
		{"runs that overstate the part that moved", func(h http.Header, body string) string {
			lie(h, 2, 1)
			return body
		}},
		{"runs that understate the part that moved", func(h http.Header, body string) string {
			lie(h, 2, -1)
			return body
		}},
		{"runs that move an element into a part that did not move", func(h http.Header, body string) string {
			lie(h, 2, -1)
			lie(h, 3, 1)
			return body
		}},
		{"a member that violates its element type", func(h http.Header, body string) string {
			return strings.NewReplacer("<name>", "<note>", "</name>", "</note>").Replace(body)
		}},
		{"members the view's root model rejects where they are", func(h http.Header, body string) string {
			return strings.ReplaceAll(body, "x2", "x4") // valid x4s, in part 2's place
		}},
		{"a delta against another tag", func(h http.Header, body string) string {
			h.Set("Delta-Base", h.Get("ETag"))
			return body
		}},
		{"a delta from another mediator", func(h http.Header, body string) string {
			tag := h.Get("ETag")
			h.Set("ETag", `"0123456789abcdef`+tag[strings.IndexByte(tag, '-'):])
			return body
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newSixParts(t)
			p.sameAsOwner(t, "first read")
			p.tamper.Store(&c.tamper)
			p.takeSent()
			p.set(t, 2, 1)
			p.sameAsOwner(t, "after the change")
			// The forwarder's GET: the tampered delta, then the whole document;
			// then the owner's own GET, and the forwarder's queries, which find
			// the document they fetched unchanged.
			if full, delta, notModified := p.takeSent(); full != 2 || delta != 1 || notModified != int64(len(spliceQueries)) {
				t.Errorf("the owner answered %d × 200, %d × 226, %d × 304; want 2, 1, %d", full, delta, notModified, len(spliceQueries))
			}
			if m := p.fwdNode.Metrics(); m.Deltas != 0 {
				t.Errorf("%d tampered deltas were spliced", m.Deltas)
			}
		})
	}
}

// An owner that restarted has another nonce: the forwarder's tag is none of
// its tags, so it answers the whole document (200), not a delta.
func TestForwardSpliceAfterAnOwnerRestart(t *testing.T) {
	p := newSixParts(t)
	p.sameAsOwner(t, "first read")
	p.restart(t)
	p.set(t, 2, 1)
	p.takeSent()
	p.sameAsOwner(t, "after the restart")
	if full, delta, _ := p.takeSent(); full != 2 || delta != 0 {
		t.Errorf("the restarted owner answered %d × 200 and %d × 226; want 2 and 0", full, delta)
	}
	p.set(t, 3, 1)
	p.sameAsOwner(t, "a change after the restart")
	if full, delta, _ := p.takeSent(); full != 1 || delta != 1 {
		t.Errorf("after the restart a change was sent as %d × 200 and %d × 226; want 1 and 1", full, delta)
	}
}

// Only a cluster member's fetch asks for runs (A-IM), and only such a request
// is answered with them: the owner answers any other GET — a conditional one
// naming an earlier tag included — exactly as it would have, and answers one
// that asks with a tag it cannot take a delta from (another view's part
// count, a list of tags, a weak tag) with the whole document and its runs.
func TestForwardSpliceOnlyForMembersThatAsk(t *testing.T) {
	p := newSixParts(t)
	_, _, h := get(t, p.owner.URL+"/views/six")
	held := h.Get("ETag")
	p.set(t, 2, 1)
	read := func(aim, inm string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, "/views/six", nil)
		if aim != "" {
			r.Header.Set("A-IM", aim)
		}
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		p.ownerH.Load().ServeHTTP(rec, r)
		return rec
	}
	for _, c := range []struct {
		name, aim, inm string
		code           int
		runs           bool
	}{
		{"a plain GET", "", "", http.StatusOK, false},
		{"a GET with an earlier tag", "", held, http.StatusOK, false},
		{"a GET that asks for runs", mediator.RunsIM, "", http.StatusOK, true},
		{"a GET that asks for runs with an earlier tag", mediator.RunsIM, held, http.StatusIMUsed, true},
		{"among other manipulations", "vcdiff, " + mediator.RunsIM + ";q=0.5", held, http.StatusIMUsed, true},
		{"for other manipulations only", "vcdiff", held, http.StatusOK, false},
		{"with another count of parts", mediator.RunsIM, strings.Replace(held, ".", ".1.", 1), http.StatusOK, true},
		{"with a list of tags", mediator.RunsIM, held + `, "x"`, http.StatusOK, true},
		{"with a weak tag", mediator.RunsIM, "W/" + held, http.StatusOK, true},
	} {
		rec := read(c.aim, c.inm)
		_, hasRuns := rec.Header()[mediator.RunsHeader]
		if rec.Code != c.code || hasRuns != c.runs {
			t.Errorf("%s: %d, runs header %v; want %d, %v", c.name, rec.Code, hasRuns, c.code, c.runs)
		}
		delta := rec.Code == http.StatusIMUsed
		if im, base := rec.Header().Get("IM"), rec.Header().Get("Delta-Base"); delta != (im == mediator.RunsIM) || delta != (base == held) {
			t.Errorf("%s: IM %q, Delta-Base %q", c.name, im, base)
		}
		if delta && (strings.Contains(rec.Body.String(), "<six") || strings.Contains(rec.Body.String(), "DOCTYPE")) {
			t.Errorf("%s: a delta that sends the root or the DTD:\n%s", c.name, rec.Body)
		}
	}
	if got := read(mediator.RunsIM, "").Header().Get(mediator.RunsHeader); got != "12,12,13,12,12,12" {
		t.Errorf("the runs of the document are %s, want 12,12,13,12,12,12", got)
	}
}
