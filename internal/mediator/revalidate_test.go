package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The hop revalidates: HTTPSource keeps the last body that passed its checks,
// with its document and the tag it came under; it asks with the tag, and a
// 304 — or the same bytes again — is answered with the document.

// taggingRemote serves view v as a mixserve that tags its documents would:
// the current body under the current ETag, 304 to a request that names it.
// before, when set, may answer a request itself (return true).
type taggingRemote struct {
	mu        sync.Mutex
	tag, body string
	before    func(w http.ResponseWriter, r *http.Request) bool

	full, notModified atomic.Int64
	asked             atomic.Value // the last If-None-Match received (string)
}

func (rm *taggingRemote) set(tag, body string) {
	rm.mu.Lock()
	rm.tag, rm.body = tag, body
	rm.mu.Unlock()
}

func (rm *taggingRemote) serve(w http.ResponseWriter, r *http.Request) {
	rm.mu.Lock()
	tag, body, before := rm.tag, rm.body, rm.before
	rm.mu.Unlock()
	rm.asked.Store(r.Header.Get("If-None-Match"))
	if before != nil && before(w, r) {
		return
	}
	if tag != "" {
		w.Header().Set("ETag", tag)
		if r.Header.Get("If-None-Match") == tag {
			rm.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	rm.full.Add(1)
	io.WriteString(w, body)
}

func membersBody(names ...string) string {
	var b strings.Builder
	b.WriteString(remoteDTD + "\n<members>")
	for _, n := range names {
		fmt.Fprintf(&b, "<professor>%s</professor>", n)
	}
	b.WriteString("</members>\n")
	return b.String()
}

func newTaggingRemote(t *testing.T, opts ...HTTPOption) (*taggingRemote, *HTTPSource) {
	t.Helper()
	rm := &taggingRemote{}
	rm.asked.Store("")
	rm.set(`"v1"`, membersBody("ana"))
	srv := remoteView(rm.serve)
	t.Cleanup(srv.Close)
	src, err := NewHTTPSource(srv.Client(), srv.URL, "v", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rm, src
}

func mustFetch(t *testing.T, src *HTTPSource) *xmlmodel.Document {
	t.Helper()
	doc, err := src.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestHTTPSourceRevalidates(t *testing.T) {
	rm, src := newTaggingRemote(t, WithRetries(0))
	first := mustFetch(t, src)
	if rm.asked.Load() != "" {
		t.Errorf("the first fetch was conditional: If-None-Match %q", rm.asked.Load())
	}
	validated := dtd.StreamValidationStats().Documents

	// Unchanged: 304, and the very document already validated.
	for i := 0; i < 3; i++ {
		if again := mustFetch(t, src); again != first {
			t.Fatalf("fetch %d of an unchanged remote built another document", i)
		}
	}
	if rm.asked.Load() != `"v1"` || rm.full.Load() != 1 || rm.notModified.Load() != 3 {
		t.Errorf("asked %q, %d full responses, %d not modified; want \"v1\", 1, 3", rm.asked.Load(), rm.full.Load(), rm.notModified.Load())
	}
	if got := dtd.StreamValidationStats().Documents - validated; got != 0 {
		t.Errorf("%d documents validated while nothing arrived", got)
	}
	var rep SourceReport
	rep.Collect(NewFaultSource(src)) // from under a decorator, as Stats reads it
	if rep.NotModified != 3 {
		t.Errorf("SourceReport.NotModified = %d, want 3", rep.NotModified)
	}

	// Changed: 200, validated again, and the pair is replaced, not added to.
	rm.set(`"v2"`, membersBody("ana", "bo"))
	second := mustFetch(t, src)
	if second == first || len(second.Root.Children) != 2 {
		t.Fatalf("a changed remote: same document %v, %d children", second == first, len(second.Root.Children))
	}
	if got := dtd.StreamValidationStats().Documents - validated; got != 1 {
		t.Errorf("%d documents validated for one that arrived", got)
	}
	if kept := src.kept.Load(); kept == nil || kept.tag != `"v2"` || kept.doc != second {
		t.Errorf("kept pair after the change: %+v", kept)
	}
	if again := mustFetch(t, src); again != second || rm.asked.Load() != `"v2"` {
		t.Errorf("the fetch after the change: same document %v, asked %q", again == second, rm.asked.Load())
	}
}

// What fails a check never becomes the kept pair: the next fetch still asks
// with the last tag that came with a valid document, and still gets that
// document back.
func TestHTTPSourceKeepsOnlyValidatedDocuments(t *testing.T) {
	rm, src := newTaggingRemote(t, WithRetries(0))
	first := mustFetch(t, src)
	for name, bad := range map[string]string{
		"violates the DTD": remoteDTD + "\n<members><gradStudent>x</gradStudent></members>",
		"unparseable":      remoteDTD + "\n<members><professor>x</members>",
		"malformed subset": "<!DOCTYPE members [ <!BOGUS> ]>\n<members><professor>x</professor></members>",
		"too large":        strings.Repeat("x", maxResponseBytes+1),
	} {
		rm.set(`"bad"`, bad)
		if _, err := src.Fetch(context.Background()); err == nil {
			t.Fatalf("%s: the fetch passed", name)
		} else if name == "too large" && !errors.Is(err, ErrBodyTooLarge) {
			t.Errorf("%s: %v", name, err)
		}
		if kept := src.kept.Load(); kept == nil || kept.tag != `"v1"` || kept.doc != first {
			t.Fatalf("%s: the kept pair is now %+v", name, kept)
		}
	}
	rm.set(`"v1"`, membersBody("ana"))
	if again := mustFetch(t, src); again != first || rm.asked.Load() != `"v1"` {
		t.Errorf("after the bad bodies: same document %v, asked %q", again == first, rm.asked.Load())
	}
}

// A 304 answers a question. Unasked, it is an unusable status like any
// other: the fetch fails at once, typed, without a retry.
func TestHTTPSourceRejectsAnUnasked304(t *testing.T) {
	rm, src := newTaggingRemote(t, WithRetries(3), WithBackoff(time.Millisecond))
	var calls atomic.Int64
	rm.mu.Lock()
	rm.before = func(w http.ResponseWriter, r *http.Request) bool {
		calls.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	rm.mu.Unlock()
	_, err := src.Fetch(context.Background())
	var status *StatusError
	if !errors.As(err, &status) || status.Status != http.StatusNotModified {
		t.Fatalf("err = %v, want a StatusError 304", err)
	}
	if calls.Load() != 1 || src.Retries() != 0 {
		t.Errorf("%d requests, %d retries; want 1 and 0", calls.Load(), src.Retries())
	}
	if src.kept.Load() != nil {
		t.Error("something was kept")
	}
}

// A conditional fetch retries as any fetch does: 5xx answers back off and
// are retried under the same budget, and the 304 that follows is an answer.
func TestHTTPSourceRetriesAConditionalFetch(t *testing.T) {
	fixed := time.Unix(1, 0)
	budget := NewRetryBudget(RetryBudgetOptions{Capacity: 2, RefillPerSecond: 1, Clock: func() time.Time { return fixed }})
	rm, src := newTaggingRemote(t, WithRetries(5), WithBackoff(time.Millisecond), WithRetryBudget(budget))
	var sleeps atomic.Int64
	src.sleep = func(context.Context, time.Duration) error { sleeps.Add(1); return nil }
	first := mustFetch(t, src)

	var failures atomic.Int64
	failures.Store(2)
	rm.mu.Lock()
	rm.before = func(w http.ResponseWriter, r *http.Request) bool {
		if failures.Add(-1) < 0 {
			return false
		}
		http.Error(w, "transient overload", http.StatusServiceUnavailable)
		return true
	}
	rm.mu.Unlock()
	if again := mustFetch(t, src); again != first {
		t.Fatal("two 503s and a 304 did not return the kept document")
	}
	if src.Retries() != 2 || sleeps.Load() != 2 || rm.notModified.Load() != 1 {
		t.Errorf("%d retries, %d sleeps, %d not modified; want 2, 2, 1", src.Retries(), sleeps.Load(), rm.notModified.Load())
	}
	// The bucket is dry now: a failing conditional fetch gives up after its
	// first attempt, typed by the status it met, and keeps what it has.
	failures.Store(10)
	_, err := src.Fetch(context.Background())
	var status *StatusError
	if !errors.As(err, &status) || status.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want a StatusError 503", err)
	}
	if want := "GET " + src.Name() + ": 503: transient overload"; status.Error() != want {
		t.Errorf("message %q, want %q", status.Error(), want)
	}
	if src.Retries() != 2 || src.kept.Load() == nil || src.kept.Load().doc != first {
		t.Errorf("%d retries, kept %+v", src.Retries(), src.kept.Load())
	}
}

// An untagged remote is revalidated by its bytes: nothing is asked of it, the
// body is read, and a body equal to the held one is answered with the held
// document — exactly as a 304 is. One byte of difference is a new document,
// checked in full; a body that fails a check never replaces the held triple;
// and a remote that starts or stops sending ETags keeps working.
func TestHTTPSourceRevalidatesAnUntaggedRemoteByItsBytes(t *testing.T) {
	rm, src := newTaggingRemote(t, WithRetries(0))
	rm.set("", membersBody("ana"))
	validated := dtd.StreamValidationStats().Documents
	a, b := mustFetch(t, src), mustFetch(t, src)
	if a != b || rm.asked.Load() != "" || rm.full.Load() != 2 {
		t.Fatalf("equal bytes: same document %v, asked %q, %d full responses", a == b, rm.asked.Load(), rm.full.Load())
	}
	if kept := src.kept.Load(); kept == nil || kept.tag != "" || kept.body != membersBody("ana") || kept.doc != a {
		t.Errorf("held triple: %+v", kept)
	}
	if got := dtd.StreamValidationStats().Documents - validated; got != 1 {
		t.Errorf("%d documents validated for two fetches of the same bytes, want 1", got)
	}
	var rep SourceReport
	rep.Collect(NewFaultSource(src))
	if rep.UnchangedBodies != 1 || rep.NotModified != 0 {
		t.Errorf("SourceReport: %d unchanged bodies, %d not modified; want 1 and 0", rep.UnchangedBodies, rep.NotModified)
	}

	// One byte different: a full check, and the triple is replaced.
	rm.set("", membersBody("anb"))
	c := mustFetch(t, src)
	if c == a || c.Root.Children[0].Text != "anb" {
		t.Fatalf("one byte different: same document %v, text %q", c == a, c.Root.Children[0].Text)
	}
	if got := dtd.StreamValidationStats().Documents - validated; got != 2 {
		t.Errorf("%d documents validated, want 2: the differing body was not checked in full", got)
	}
	if kept := src.kept.Load(); kept.doc != c || kept.body != membersBody("anb") {
		t.Errorf("held triple after the change: %+v", kept)
	}

	// What fails a check is not held, and does not unseat what is.
	rm.set("", remoteDTD+"\n<members><gradStudent>x</gradStudent></members>")
	if _, err := src.Fetch(context.Background()); err == nil {
		t.Fatal("a body that violates the DTD passed")
	}
	if kept := src.kept.Load(); kept.doc != c {
		t.Errorf("a failed body replaced the held triple: %+v", kept)
	}
	rm.set("", membersBody("anb"))
	if again := mustFetch(t, src); again != c {
		t.Error("the held bytes came back and built another document")
	}

	// The remote starts sending ETags: the same bytes are the same document,
	// now held under the tag, and the next fetch asks with it.
	rm.set(`"v1"`, membersBody("anb"))
	if again := mustFetch(t, src); again != c || src.kept.Load().tag != `"v1"` {
		t.Errorf("first tagged answer: same document %v, held tag %q", again == c, src.kept.Load().tag)
	}
	if again := mustFetch(t, src); again != c || rm.asked.Load() != `"v1"` || rm.notModified.Load() != 1 {
		t.Errorf("tagged: same document %v, asked %q, %d not modified", again == c, rm.asked.Load(), rm.notModified.Load())
	}
	// And stops: the fetch that finds out still carries the old tag, the
	// full answer it gets is compared, and nothing is asked afterwards.
	rm.set("", membersBody("anb"))
	if again := mustFetch(t, src); again != c || src.kept.Load().tag != "" {
		t.Errorf("first untagged answer: same document %v, held tag %q", again == c, src.kept.Load().tag)
	}
	if again := mustFetch(t, src); again != c || rm.asked.Load() != "" {
		t.Errorf("untagged again: same document %v, asked %q", again == c, rm.asked.Load())
	}
	if got := dtd.StreamValidationStats().Documents - validated; got != 3 { // ana, anb, the violating body
		t.Errorf("%d documents validated over the whole test, want 3", got)
	}
}

// Fetches that race a changing remote store their triples in any order; each
// is whole, so whichever is left, the next fetch revalidates against it — by
// its tag, or by its bytes when the remote sends none — and ends on the
// remote's current document. Meaningful under -race.
func TestHTTPSourceRacingFetchesConverge(t *testing.T) {
	for _, tagged := range []bool{true, false} {
		tag := func(name string) string {
			if !tagged {
				return ""
			}
			return `"` + name + `"`
		}
		rm, src := newTaggingRemote(t, WithRetries(0))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if g == 0 {
						rm.set(tag(fmt.Sprintf("r%d", i)), membersBody(fmt.Sprintf("p%d", i)))
					}
					if _, err := src.Fetch(context.Background()); err != nil {
						t.Error(err)
						return
					}
					if kept := src.kept.Load(); kept != nil && len(kept.doc.Root.Children) != 1 {
						t.Errorf("a kept document has %d children", len(kept.doc.Root.Children))
					}
				}
			}(g)
		}
		wg.Wait()
		rm.set(tag("final"), membersBody("zed"))
		last := mustFetch(t, src)
		if got := last.Root.Children[0].Text; got != "zed" {
			t.Errorf("tagged %v: after the race the fetch returned %q, want the remote's current document", tagged, got)
		}
		if kept := src.kept.Load(); kept == nil || kept.tag != tag("final") || kept.body != membersBody("zed") || kept.doc != last {
			t.Errorf("tagged %v: kept triple: %+v", tagged, kept)
		}
		if again := mustFetch(t, src); again != last {
			t.Errorf("tagged %v: the converged triple was not reused", tagged)
		}
	}
}

// The document a fetch returned travels with the tag it arrived under: two
// documents under different tags (hedged owners) leave none to relay.
func TestForwardInfoRelaysOneTag(t *testing.T) {
	rm, src := newTaggingRemote(t, WithRetries(0))
	fetchUnder := func(note *FetchNote) {
		t.Helper()
		if _, err := src.Fetch(note); err != nil {
			t.Fatal(err)
		}
	}
	note := NewForwardNote(context.Background(), []string{"me"})
	fetchUnder(note) // 200
	if note.Tag() != `"v1"` {
		t.Errorf("after a 200: tag %q", note.Tag())
	}
	note = NewForwardNote(context.Background(), []string{"me"})
	fetchUnder(note) // 304
	if note.Tag() != `"v1"` || rm.notModified.Load() != 1 {
		t.Errorf("after a 304: tag %q, %d not modified", note.Tag(), rm.notModified.Load())
	}
	rm.set(`"v2"`, membersBody("bo"))
	fetchUnder(note) // a second document, another tag, under the same note
	if note.Tag() != "" {
		t.Errorf("two documents, two tags: relayed %q", note.Tag())
	}
	fetchUnder(note)
	if note.Tag() != "" {
		t.Errorf("the conflict did not stick: %q", note.Tag())
	}
	part := NewFetchNote(context.Background())
	fetchUnder(part) // a part fetch's note relays nothing
	if part.Tag() != "" {
		t.Errorf("a part fetch's note relays %q", part.Tag())
	}
}

// A lease travels with the document it was granted with, on a 200 and on a
// 304 alike, and goes where the tag goes when two documents disagree. A lease
// hit relays the tag alone, so an answer that says anything more — a source
// pruned, stale or degraded, or a relayed hop path — leaves no lease to keep,
// though its tag is relayed.
func TestForwardInfoCarriesTheLease(t *testing.T) {
	rm, src := newTaggingRemote(t, WithRetries(0))
	var extra http.Header
	rm.before = func(w http.ResponseWriter, r *http.Request) bool {
		w.Header().Set(LeaseHeader, "1000")
		for k, v := range extra {
			w.Header()[k] = v
		}
		return false
	}
	fetchUnder := func(note *FetchNote) {
		t.Helper()
		if _, err := src.Fetch(note); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []string{"a 200", "a 304"} {
		note := NewForwardNote(context.Background(), []string{"me"})
		fetchUnder(note)
		if tag, term := note.Lease(); term != time.Second || tag != `"v1"` {
			t.Errorf("after %s: lease %v under %q", step, term, tag)
		}
	}
	if rm.notModified.Load() != 1 {
		t.Fatalf("%d not modified, want 1", rm.notModified.Load())
	}
	for _, h := range []http.Header{
		{"X-Mix-Pruned-Sources": {"archive"}},
		{"X-Mix-Stale-Sources": {"mirror"}},
		{"X-Mix-Degraded": {"true"}},
		{"X-Mix-Degraded-Sources": {"cs"}},
		{ForwardHeader: {"me,owner"}},
	} {
		extra = h
		note := NewForwardNote(context.Background(), []string{"me"})
		fetchUnder(note)
		if tag, term := note.Lease(); term != 0 || note.Tag() != `"v1"` {
			t.Errorf("an answer with %v: lease %v under %q, relayed tag %q", h, term, tag, note.Tag())
		}
	}
	extra = nil

	note := NewForwardNote(context.Background(), []string{"me"})
	fetchUnder(note)
	rm.set(`"v2"`, membersBody("bo"))
	fetchUnder(note)
	if tag, term := note.Lease(); term != 0 || tag != "" {
		t.Errorf("two documents, two tags: lease %v under %q", term, tag)
	}
}

// A fetch carries its trace across the hop, and says on its span when the
// remote had nothing new.
func TestHTTPSourceTracesTheHop(t *testing.T) {
	rm, src := newTaggingRemote(t, WithRetries(0))
	var seen sync.Mutex
	var traceIDs []string
	rm.mu.Lock()
	rm.before = func(w http.ResponseWriter, r *http.Request) bool {
		seen.Lock()
		traceIDs = append(traceIDs, r.Header.Get(obs.TraceHeader))
		seen.Unlock()
		return false
	}
	rm.mu.Unlock()
	m := New("portal")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView(src.Name(), xmas.MustParse(`people = SELECT P WHERE <members> P:<professor/> </members>`)); err != nil {
		t.Fatal(err)
	}
	mustFetch(t, src) // untraced
	tracer := obs.NewTracer(4)
	for i := 0; i < 2; i++ {
		ctx, root := tracer.StartRequest(context.Background(), new(obs.RequestContext), "test", fmt.Sprintf("trace-%d", i))
		if _, err := m.Materialize(ctx, "people"); err != nil {
			t.Fatal(err)
		}
		root.End()
		if _, err := m.InvalidateSource(src.Name()); err != nil {
			t.Fatal(err)
		}
	}
	seen.Lock()
	got := fmt.Sprint(traceIDs)
	seen.Unlock()
	if got != "[ trace-0 trace-1]" {
		t.Errorf("trace IDs the remote saw: %s", got)
	}
	for _, tr := range tracer.Traces(0) {
		span := tr.Span("source.fetch")
		if span == nil {
			t.Fatalf("trace %s has no source.fetch span", tr.TraceID)
		}
		found := false
		for _, a := range span.Attrs {
			found = found || a == obs.Bool("not_modified", true)
		}
		if !found {
			t.Errorf("trace %s: source.fetch attrs %v, want not_modified=true", tr.TraceID, span.Attrs)
		}
	}
	if st := m.Stats(); st.NotModified != 2 {
		t.Errorf("Stats.NotModified = %d, want 2", st.NotModified)
	}
}
