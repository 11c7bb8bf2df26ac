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

// A view's DTD is rendered once, when the view is defined; GET /views/v and
// GET /views/v/dtd send that text. What a request allocates therefore does
// not follow the size of the DTD.

// wideHandler serves view v over an empty source whose entry type has
// width children, so the view's DTD has width+2 declarations.
func wideHandler(t *testing.T, width int) (http.Handler, *mediator.View) {
	t.Helper()
	var kids []string
	var decls strings.Builder
	for i := 0; i < width; i++ {
		kids = append(kids, fmt.Sprintf("c%d", i))
		fmt.Fprintf(&decls, "<!ELEMENT c%d (#PCDATA)>\n", i)
	}
	d, err := dtd.Parse(fmt.Sprintf("<!DOCTYPE r [\n<!ELEMENT r (e*)>\n<!ELEMENT e (%s)>\n%s]>", strings.Join(kids, ", "), decls.String()))
	if err != nil {
		t.Fatal(err)
	}
	src, err := mediator.NewStaticSource("s", &xmlmodel.Document{DocType: "r", Root: xmlmodel.NewElement("r")}, d)
	if err != nil {
		t.Fatal(err)
	}
	m := mediator.New("wide")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	v, err := m.DefineView("s", xmas.MustParse(`v = SELECT X WHERE <r> X:<e/> </r>`))
	if err != nil {
		t.Fatal(err)
	}
	return New(m), v
}

// discard is a ResponseWriter that keeps nothing, so that what is measured
// is the handler and not a recorder's buffer growing with the body.
type discard struct {
	h http.Header
	n int
}

func (w *discard) Header() http.Header               { return w.h }
func (w *discard) WriteHeader(int)                   {}
func (w *discard) Write(p []byte) (int, error)       { w.n += len(p); return len(p), nil }
func (w *discard) WriteString(s string) (int, error) { w.n += len(s); return len(s), nil }

func TestViewDTDAllocationsAreRenderedOnce(t *testing.T) {
	for _, path := range []string{"/views/v", "/views/v/dtd"} {
		measure := func(width int) (allocs float64, dtdBytes int) {
			h, v := wideHandler(t, width)
			if v.DTDText != v.DTD.String()+"\n" {
				t.Fatalf("DTDText is not the view DTD as served:\n%s\nwant:\n%s\n", v.DTDText, v.DTD)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 || !strings.HasPrefix(rec.Body.String(), v.DTDText) {
				t.Fatalf("GET %s: %d\n%s", path, rec.Code, rec.Body)
			}
			req := httptest.NewRequest("GET", path, nil)
			return testing.AllocsPerRun(20, func() {
				w := &discard{h: http.Header{}}
				h.ServeHTTP(w, req)
				if w.n < len(v.DTDText) {
					t.Fatalf("GET %s wrote %d bytes, the DTD alone is %d", path, w.n, len(v.DTDText))
				}
			}), len(v.DTDText)
		}
		small, smallBytes := measure(4)
		large, largeBytes := measure(256)
		if large > small+2 {
			t.Errorf("GET %s: %v allocs with a %d-byte DTD, %v with a %d-byte one: the DTD is rendered per request", path, small, smallBytes, large, largeBytes)
		}
	}
}
