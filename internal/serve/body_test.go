package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// unsized hides a reader's length from http.NewRequest: the request goes out
// chunked and the server learns how long the body was by reading it.
type unsized struct{ io.Reader }

// TestOversizedBodiesAreRefused: each of the four routes that read a body
// takes one of exactly maxBody bytes for what it is and answers 413 to one
// byte more — announced in Content-Length or not — where it used to read the
// first MiB and answer whatever that prefix meant. A query padded to the limit
// is answered; the same query with one more space is not, and leaves no plan.
func TestOversizedBodiesAreRefused(t *testing.T) {
	owner, m := newServerAndMediator(t)
	fwd := forwarderFor(t, owner.URL, "members")
	const query = `r = SELECT P WHERE <members> P:<professor/> </members>`
	for _, route := range []struct {
		name, url, body string
		atLimit         int // the status of the body padded to exactly maxBody
	}{
		{"query", owner.URL + "/views/members/query", query, http.StatusOK},
		{"forwarded query", fwd.URL + "/views/members/query", query, http.StatusOK},
		{"infer", owner.URL + "/infer", d1Text + "\nv = SELECT P WHERE <department> P:<professor/> </department>", http.StatusOK},
		{"invalidate", owner.URL + "/invalidate", `{"source": "cs-dept"}`, http.StatusOK},
	} {
		for _, c := range []struct {
			over   int
			status int
		}{{0, route.atLimit}, {1, http.StatusRequestEntityTooLarge}} {
			body := route.body + strings.Repeat(" ", maxBody+c.over-len(route.body))
			for _, sized := range []bool{true, false} {
				var rd io.Reader = strings.NewReader(body)
				if !sized {
					rd = unsized{rd}
				}
				plans := m.Stats().PlanCacheSize
				resp, err := http.Post(route.url, "text/plain", rd)
				if err != nil {
					t.Fatal(err)
				}
				answer, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != c.status {
					t.Errorf("%s, %d bytes (Content-Length sent: %v): status %d, want %d: %.100s",
						route.name, len(body), sized, resp.StatusCode, c.status, answer)
				}
				if c.over > 0 && m.Stats().PlanCacheSize != plans {
					t.Errorf("%s: a refused body left %d entries in the plan memo", route.name, m.Stats().PlanCacheSize-plans)
				}
			}
		}
	}
	// What the cut used to hide: a body whose first MiB is a query.
	rec := httptest.NewRecorder()
	New(m).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/views/members/query",
		strings.NewReader(query+strings.Repeat(" ", maxBody-len(query))+"</nonsense>")))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a query followed by a MiB of padding and more: status %d, want 413", rec.Code)
	}
}

// unread fails the test when anybody reads it.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

// TestReadBodyAllocationsDeclaredAndChunked: a body whose length the request
// declares is read into one buffer of that length — one allocation where
// io.ReadAll's growth from 512 bytes took five for 2 KB — and refused unread
// when the length alone is too much; a chunked body (length -1) gives the same
// bytes the old way; and a body shorter than it declared is a 400, not a
// prefix.
func TestReadBodyAllocationsDeclaredAndChunked(t *testing.T) {
	text := strings.Repeat("0123456789abcdef", 128) // 2 KiB
	request := func(body io.Reader, length int64) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/infer", body)
		r.ContentLength = length
		return r
	}
	for _, c := range []struct {
		name   string
		r      *http.Request
		status int
	}{
		{"declared", request(strings.NewReader(text), int64(len(text))), 0},
		{"chunked", request(unsized{strings.NewReader(text)}, -1), 0},
		{"empty", request(http.NoBody, 0), 0},
		{"declared too long", request(unread{t}, maxBody+1), http.StatusRequestEntityTooLarge},
		{"chunked too long", request(unsized{strings.NewReader(strings.Repeat(" ", maxBody+1))}, -1), http.StatusRequestEntityTooLarge},
		{"shorter than declared", request(strings.NewReader(text), int64(len(text))+1), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		body, ok := readBody(rec, c.r)
		switch {
		case c.status != 0:
			if ok || rec.Code != c.status {
				t.Errorf("%s: accepted %v, status %d, want a refusal with %d", c.name, ok, rec.Code, c.status)
			}
		case !ok || (c.name != "empty" && string(body) != text) || (c.name == "empty" && len(body) != 0):
			t.Errorf("%s: accepted %v, %d bytes read, status %d", c.name, ok, len(body), rec.Code)
		}
	}

	rd := strings.NewReader(text)
	r := request(rd, int64(len(text)))
	if got := testing.AllocsPerRun(50, func() {
		rd.Reset(text)
		if body, ok := readBody(nil, r); !ok || len(body) != len(text) {
			t.Fatal("not read")
		}
	}); got != 1 {
		t.Errorf("a declared 2 KiB body is read in %v allocations, want 1", got)
	}
}
