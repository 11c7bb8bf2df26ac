package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"

	"repro/internal/dtd"
)

// blowupDTDText is the exponential-DFA content model of the inference
// acceptance tests (see internal/infer/degrade_test.go), as DOCTYPE text:
// (x|y)*, x, (x|y)^26 needs 2^27 DFA states. x and y are unrealizable and
// m optional, so documents — and their validation — never touch it.
func blowupDTDText() string {
	return `<!DOCTYPE site [
  <!ELEMENT site (info, m?)>
  <!ELEMENT m ((x|y)*, x` + strings.Repeat(", (x|y)", 26) + `)>
  <!ELEMENT x (x)>
  <!ELEMENT y (y)>
  <!ELEMENT info (#PCDATA)>
]>`
}

const blowupQueryText = `blow =
SELECT M
WHERE <site> M:<m> <x id=A/> <x id=B/> </m> </site>
AND A != B`

// newDegradedServer builds a mediator with a tight inference budget and a
// view whose definition is forced to degrade by the blowup DTD.
func newDegradedServer(t *testing.T) (*httptest.Server, *mediator.Mediator) {
	t.Helper()
	m := mediator.New("edge")
	m.SetInferenceBudget(budget.Limits{Deadline: 2 * time.Second, MaxStates: 512})
	d, err := dtd.Parse(blowupDTDText())
	if err != nil {
		t.Fatal(err)
	}
	doc, _, err := xmlmodel.Parse(`<site><info>up</info></site>`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := mediator.NewStaticSource("hostile-site", doc, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	v, err := m.DefineView("hostile-site", xmas.MustParse(blowupQueryText))
	if err != nil {
		t.Fatalf("view definition must degrade, not fail: %v", err)
	}
	if !v.Degraded {
		t.Fatal("view must be marked Degraded under the tight budget")
	}
	srv := httptest.NewServer(New(m))
	t.Cleanup(srv.Close)
	return srv, m
}

// TestDegradedViewHeaderAndMetrics is the serving half of the tentpole
// acceptance: a view whose inference degraded advertises X-Mix-Degraded on
// its responses and the exhaustion shows up in GET /metrics.
func TestDegradedViewHeaderAndMetrics(t *testing.T) {
	srv, _ := newDegradedServer(t)

	code, body, hdr := get(t, srv.URL+"/views/blow")
	if code != 200 {
		t.Fatalf("view: %d %s", code, body)
	}
	if hdr.Get("X-Mix-Degraded") != "true" {
		t.Errorf("X-Mix-Degraded = %q, want true", hdr.Get("X-Mix-Degraded"))
	}
	if hdr.Get("X-Mix-Degraded-Reason") == "" {
		t.Error("X-Mix-Degraded-Reason must carry the exhaustion message")
	}
	// The degraded view document is still valid XML under its (loose) DTD.
	doc, d, err := dtd.ParseDocument(body)
	if err != nil {
		t.Fatalf("degraded view body unparseable: %v\n%s", err, body)
	}
	if d != nil {
		if err := d.Validate(doc); err != nil {
			t.Errorf("degraded view invalid under its own DTD: %v", err)
		}
	}

	st := getMetrics(t, srv.URL)
	if st.DegradedViews != 1 {
		t.Errorf("degraded_views = %d, want 1", st.DegradedViews)
	}
	if st.BudgetExhaustions != 1 {
		t.Errorf("budget_exhaustions = %d, want 1", st.BudgetExhaustions)
	}
}

// TestPostInferDegraded: inference-as-a-service under the mediator's
// budget must answer a hostile DTD promptly with a degraded, clearly
// flagged result instead of pinning a serving CPU.
func TestPostInferDegraded(t *testing.T) {
	srv, _ := newDegradedServer(t)

	start := time.Now()
	resp, err := http.Post(srv.URL+"/infer", "text/plain",
		strings.NewReader(blowupDTDText()+"\n"+blowupQueryText))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("POST /infer took %v under budget", elapsed)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("infer: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Mix-Degraded") != "true" {
		t.Errorf("X-Mix-Degraded = %q, want true", resp.Header.Get("X-Mix-Degraded"))
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	body := b.String()
	if !strings.Contains(body, "-- degraded:") {
		t.Errorf("response must carry the degraded marker line:\n%s", body)
	}
	if !strings.Contains(body, "-- plain view DTD") {
		t.Errorf("degraded response must still contain the view DTD:\n%s", body)
	}
}

// TestSetProvenanceHeadersMaterialization: the shared header helper must
// advertise breaker-degraded materializations (sources dropped) the same
// way it advertises budget-degraded inference.
func TestSetProvenanceHeadersMaterialization(t *testing.T) {
	rec := httptest.NewRecorder()
	setProvenanceHeaders(rec, &mediator.View{}, mediator.Provenance{
		Degraded:        true,
		DegradedSources: []string{"siteA", "siteB"},
	})
	if rec.Header().Get("X-Mix-Degraded") != "true" {
		t.Error("X-Mix-Degraded must be set for degraded materializations")
	}
	if got := rec.Header().Get("X-Mix-Degraded-Sources"); got != "siteA,siteB" {
		t.Errorf("X-Mix-Degraded-Sources = %q", got)
	}

	// Neither degraded: no headers.
	rec = httptest.NewRecorder()
	setProvenanceHeaders(rec, &mediator.View{}, mediator.Provenance{})
	if rec.Header().Get("X-Mix-Degraded") != "" {
		t.Error("healthy responses must not carry X-Mix-Degraded")
	}
}
