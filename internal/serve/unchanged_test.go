package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Invalidated is not changed: an invalidation makes every part ask its source
// again, and only an answer that differs is evaluated, re-tagged and shipped.
// That every answer across the three ways a source says "unchanged" — the
// same bytes from an untagged remote, a 304 from a lower mediator, the same
// *Document from an in-memory wrapper — is the naive mediator's is
// internal/oracle's to check (KindSubjects); the test here counts what a
// no-op invalidation costs each level of a stack.

// handlerTransport answers a client's requests from a handler, in memory.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	resp := rec.Result()
	resp.Request = r
	return resp, nil
}

// versionedDept is department i at version ver; the version shows in the
// professor's name, so no two versions serialize alike.
func versionedDept(i int, ver int64) string {
	return fmt.Sprintf(`<department><name>d%[1]d</name>
  <professor id="p%[1]d"><firstName>P%[1]d-v%[2]d</firstName><lastName>L</lastName>
    <publication id="x%[1]d"><title>t</title><author>a</author><journal>J</journal></publication><teaches>c%[1]d</teaches></professor>
  <gradStudent id="g%[1]d"><firstName>G</firstName><lastName>M</lastName>
    <publication id="y%[1]d"><title>t</title><author>a</author><conference>C</conference></publication></gradStudent>
</department>`, i, ver)
}

const unchangedSources = 3

func mustDefine(t testing.TB, m *mediator.Mediator, view string, sources []string, part func(i int) string) {
	t.Helper()
	var parts []mediator.ViewPart
	for i, s := range sources {
		parts = append(parts, mediator.ViewPart{Source: s, Query: xmas.MustParse(part(i))})
	}
	if _, err := m.DefineUnionView(view, parts); err != nil {
		t.Fatal(err)
	}
}

func professorsOf(root string) string {
	return fmt.Sprintf(`u = SELECT X WHERE <%s> X:<professor/> </%s>`, root, root)
}

// staticDepartments are three StaticSources whose Doc set replaces.
func staticDepartments(t testing.TB) ([]*mediator.StaticSource, func(i int, ver int64)) {
	t.Helper()
	d, err := dtd.Parse(d1Text)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(i int, ver int64) *xmlmodel.Document {
		doc, _, err := xmlmodel.Parse(versionedDept(i, ver))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	var srcs []*mediator.StaticSource
	for i := 0; i < unchangedSources; i++ {
		src, err := mediator.NewStaticSource(fmt.Sprintf("s%d", i), parse(i, 0), d)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	return srcs, func(i int, ver int64) { srcs[i].Doc = parse(i, ver) }
}

// stackFixture is a two-level HTTP stack. The lower mediator serves one view
// per department; the node's sources are HTTPSources on those views, which
// come under the lower mediator's ETags. levels are the lower handler and
// the node, names what their mediators call the departments, and set puts
// department i at a version — the caller then invalidates.
type stackFixture struct {
	upper  *mediator.Mediator
	levels [2]http.Handler
	names  [2][]string
	set    func(i int, ver int64)
}

func newStackFixture(t *testing.T) *stackFixture {
	srcs, set := staticDepartments(t)
	low, m := mediator.New("low"), mediator.New("node")
	fx := &stackFixture{upper: m, levels: [2]http.Handler{New(low), New(m)}, set: set}
	client := &http.Client{Transport: handlerTransport{fx.levels[0]}}
	for i, src := range srcs {
		view := fmt.Sprintf("d%d", i)
		if err := low.AddSource(src); err != nil {
			t.Fatal(err)
		}
		if _, err := low.DefineView(src.Name(), xmas.MustParse(view+` = SELECT X WHERE <department> X:<professor|gradStudent/> </department>`)); err != nil {
			t.Fatal(err)
		}
		remote, err := mediator.NewHTTPSource(client, "http://below", view, mediator.WithRetries(0))
		if err == nil {
			err = m.AddSource(remote)
		}
		if err != nil {
			t.Fatal(err)
		}
		fx.names[0], fx.names[1] = append(fx.names[0], src.Name()), append(fx.names[1], remote.Name())
	}
	mustDefine(t, m, "u", fx.names[1], func(i int) string { return professorsOf(fmt.Sprintf("d%d", i)) })
	return fx
}

// invalidate posts the invalidation to both levels, the lower first: of
// everything when global, else of each source in turn.
func (f *stackFixture) invalidate(t *testing.T, global bool) {
	t.Helper()
	for l, h := range f.levels {
		bodies := []string{""}
		if !global {
			bodies = nil
			for _, name := range f.names[l] {
				bodies = append(bodies, fmt.Sprintf(`{"source": %q}`, name))
			}
		}
		for _, body := range bodies {
			if rec := serveOnce(h, http.MethodPost, "/invalidate", body, ""); rec.Code != http.StatusNoContent && rec.Code != http.StatusOK {
				t.Fatalf("POST /invalidate %s at level %d: %d %s", body, l, rec.Code, rec.Body)
			}
		}
	}
}

var unchangedQueries = []string{
	`all = SELECT X WHERE <u> X:<professor/> </u>`,
	`one = SELECT X WHERE <u> X:<professor><teaches>c1</teaches></professor> </u>`,
}

// getU sends h GET /views/u, with If-None-Match ifNoneMatch unless it is "".
func getU(h http.Handler, ifNoneMatch string) (status int, body, tag string) {
	r, rec := httptest.NewRequest(http.MethodGet, "/views/u", nil), httptest.NewRecorder()
	if ifNoneMatch != "" {
		r.Header.Set("If-None-Match", ifNoneMatch)
	}
	h.ServeHTTP(rec, r)
	return rec.Code, rec.Body.String(), rec.Header().Get("ETag")
}

// In a stack, an invalidation that changed nothing stops at the first level:
// the lower node refetches its sources and finds them unchanged, so its tags
// hold, so the upper node's refetches are answered 304, so nothing is
// evaluated there and its own tag holds — and whoever reads the upper node
// gets a 304 too. A source that did change costs exactly its own part.
func TestNoOpInvalidationAcrossTheStack(t *testing.T) {
	fx := newStackFixture(t)
	evaluated := func(s mediator.Stats) int64 { return s.PartsRecomputed - s.PartsRevalidated }

	status, _, tag := getU(fx.levels[1], "")
	if status != http.StatusOK || tag == "" {
		t.Fatalf("first read: %d, tag %q", status, tag)
	}
	for _, global := range []bool{true, false} {
		before := fx.upper.Stats()
		fx.invalidate(t, global)
		if again, _, held := getU(fx.levels[1], tag); again != http.StatusNotModified || held != tag {
			t.Fatalf("global %v: after a no-op invalidation the holder of %s got %d under %s", global, tag, again, held)
		}
		after := fx.upper.Stats()
		if got := after.NotModified - before.NotModified; got != unchangedSources {
			t.Errorf("global %v: the upper node's refetches met %d 304s, want one per source", global, got)
		}
		if got := evaluated(after) - evaluated(before); got != 0 {
			t.Errorf("global %v: the upper node evaluated %d parts over unchanged documents", global, got)
		}
		if got := after.PartsRevalidated - before.PartsRevalidated; got != unchangedSources {
			t.Errorf("global %v: %d parts revalidated, want %d", global, got, unchangedSources)
		}
		if after.UnchangedBodies != before.UnchangedBodies || after.StreamValidation.Documents != before.StreamValidation.Documents {
			t.Errorf("global %v: a body crossed the hop: %d unchanged bodies, %d documents validated",
				global, after.UnchangedBodies-before.UnchangedBodies, after.StreamValidation.Documents-before.StreamValidation.Documents)
		}
	}

	// One department changes: one body crosses, one part is evaluated.
	before := fx.upper.Stats()
	fx.set(1, 1)
	fx.invalidate(t, true)
	if changed, body, moved := getU(fx.levels[1], tag); changed != http.StatusOK || moved == tag || !strings.Contains(body, "P1-v1") {
		t.Fatalf("after a real change: %d under %s (was %s)\n%s", changed, moved, tag, body)
	}
	after := fx.upper.Stats()
	if nm, ev := after.NotModified-before.NotModified, evaluated(after)-evaluated(before); nm != unchangedSources-1 || ev != 1 {
		t.Errorf("one changed source: %d 304s and %d parts evaluated, want %d and 1", nm, ev, unchangedSources-1)
	}
}
