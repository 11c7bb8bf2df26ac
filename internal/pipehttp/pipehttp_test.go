package pipehttp_test

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/pipehttp"
)

// A handler that flushes streams: each line the client writes is echoed
// back while the request body is still open, as over a full-duplex socket.
func TestFlushingHandlerIsFullDuplex(t *testing.T) {
	echo := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lines := bufio.NewScanner(r.Body)
		for lines.Scan() {
			io.WriteString(w, strings.ToUpper(lines.Text())+"\n")
			w.(http.Flusher).Flush()
		}
	})
	body, in := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, "http://echo/", body)
	if err != nil {
		t.Fatal(err)
	}
	go io.WriteString(in, "a\n")
	resp, err := pipehttp.Transport{Handler: echo}.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%v, %v", resp, err)
	}
	answers := bufio.NewReader(resp.Body)
	for _, line := range []string{"a", "b", "c"} {
		if line != "a" {
			go io.WriteString(in, line+"\n")
		}
		if got, err := answers.ReadString('\n'); err != nil || got != strings.ToUpper(line)+"\n" {
			t.Fatalf("echo of %q: %q, %v", line, got, err)
		}
	}
	in.Close()
	if rest, err := io.ReadAll(resp.Body); err != nil || len(rest) != 0 {
		t.Errorf("after the request ended: %q, %v", rest, err)
	}
}

// A handler that never flushes is answered whole, once it returns: its
// status, headers and body, with the body's length.
func TestUnflushedHandlerIsAnsweredWhole(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Seen", r.URL.RequestURI())
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "short and stout")
	})
	req, _ := http.NewRequest(http.MethodGet, "http://pot/brew?x=1", nil)
	resp, err := (&http.Client{Transport: pipehttp.Transport{Handler: h}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTeapot || resp.Header.Get("X-Seen") != "/brew?x=1" || string(body) != "short and stout" || resp.ContentLength != int64(len(body)) {
		t.Errorf("%d %v %q (length %d)", resp.StatusCode, resp.Header, body, resp.ContentLength)
	}
}

// A request whose context ends before the handler answers fails with it; a
// handler that panics before it flushed fails the round trip.
func TestUnansweredRequestsFail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	defer close(release)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-release })
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://slow/", nil)
	cancel()
	if _, err := pipehttp.Serve(context.Background(), slow, req); err != context.Canceled {
		t.Errorf("a cancelled request: %v", err)
	}
	panicky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { panic(http.ErrAbortHandler) })
	req, _ = http.NewRequest(http.MethodGet, "http://panicky/", nil)
	if resp, err := pipehttp.Serve(context.Background(), panicky, req); err == nil {
		t.Errorf("a handler that panicked answered %d", resp.StatusCode)
	}
}
