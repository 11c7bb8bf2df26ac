package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mediator"
	"repro/internal/pipehttp"
	"repro/internal/serve"
)

// Revocations travel as frames on one stream an owner holds open to each
// holder (stream.go). These tests break the stream on purpose, by what the
// holder does and by a deadline the test fires, never by waiting for a clock
// to run out.

// A frame reads back as it was written, a renewal's fields in one
// allocation; a frame whose line is not seven numbers, or that is cut short,
// is refused.
func TestRevocationFrameRoundTrips(t *testing.T) {
	frames := []cluster.Frame{
		{Seq: 1, Views: "view=members"},
		{Seq: 2, Views: "view=a&view=b%20c"},
		{Seq: 3, Views: "view=members", Tag: `"n-members-2.1"`, Base: `"n-members-1.1"`, Runs: "2,1", Delta: "<p>x</p>", Extend: 250},
		{Seq: 4, Views: "view=members", Tag: `"n-members-2.1"`, Base: `"n-members-2.1"`, Extend: 1000},
	}
	var wire []byte
	for i := range frames {
		wire = cluster.AppendFrame(wire, &frames[i])
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	for _, want := range frames {
		got, err := cluster.ReadFrame(r)
		if err != nil || got != want {
			t.Fatalf("read %+v, %v; want %+v", got, err, want)
		}
	}
	if _, err := cluster.ReadFrame(r); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
	whole := string(cluster.AppendFrame(nil, &frames[2]))
	for _, bad := range []string{"{", "1 0 12 0 0 0\n", "1 0 12 0 0 0 0 0\n", "1 -1 12 0 0 0 0\n", "1 0 12 0 0 0 0 \n",
		"1 0 99999999 0 0 0 0\n", whole[:len(whole)-1]} {
		if f, err := cluster.ReadFrame(bufio.NewReader(strings.NewReader(bad))); err == nil {
			t.Errorf("%q read as %+v", bad, f)
		}
	}
}

// holder serves revocation streams in memory: it acknowledges each frame,
// or, as mode says, drops the stream on reading one, or holds it — telling
// held its sequence number — until release closes, then acknowledges it and
// reports how that write went on late.
type holder struct {
	mode    atomic.Value // "ack", "drop" or "hold"
	held    chan uint64
	release chan struct{}
	late    chan error
}

func newHolder() *holder {
	h := &holder{held: make(chan uint64, 1), release: make(chan struct{}), late: make(chan error, 1)}
	h.mode.Store("ack")
	return h
}

func (h *holder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	frames := bufio.NewReader(r.Body)
	for {
		f, err := cluster.ReadFrame(frames)
		if err != nil {
			return
		}
		switch h.mode.Load() {
		case "drop":
			return
		case "hold":
			h.held <- f.Seq
			<-h.release
			_, err := w.Write(cluster.AppendAck(nil, f.Seq))
			if err == nil {
				err = http.NewResponseController(w).Flush()
			}
			h.late <- err
			return
		}
		if _, err := w.Write(cluster.AppendAck(nil, f.Seq)); err != nil || http.NewResponseController(w).Flush() != nil {
			return
		}
	}
}

// A stream broken mid-revocation — the holder drops it, or its
// acknowledgement has not come when the lease runs out — fails the
// revocation, which is waited out to the end of the lease; an
// acknowledgement that comes later credits nothing, and the next revocation
// opens a fresh stream and is acknowledged on it.
func TestStreamBrokenMidRevocationIsWaitedOut(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []string{"drop", "hold"} {
		t.Run(mode, func(t *testing.T) {
			h := newHolder()
			clock := newClock()
			n := newNodeOver(t, "alpha", map[string]string{"alpha": "http://alpha", "beta": "http://beta"},
				&http.Client{Transport: pipehttp.Transport{Handler: h}}, clock)
			fires := make(chan func(), 4)
			n.SetDeadline(func(d time.Duration, f func()) func() bool {
				fires <- f
				return func() bool { return true }
			})
			clock.advance(cluster.LeaseTerm)
			grant := func() time.Time {
				o, _ := n.Offer("members", "beta")
				if !n.Grant(o, `"t"`, false) {
					t.Fatal("no grant")
				}
				return n.GrantExpiry("members", "beta")
			}

			h.mode.Store(mode)
			expires := grant()
			done := make(chan struct{})
			go func() { n.Revoke(ctx, nil, "members"); close(done) }()
			if mode == "hold" {
				<-h.held
				(<-fires)() // the lease runs out, the frame still unacknowledged
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the revocation was not given up: still waiting 10 s after its lease ran out")
			}
			if at := clock.reading(); !at.Equal(expires) || fmt.Sprint(clock.slept) != fmt.Sprint([]time.Duration{cluster.LeaseTerm}) {
				t.Errorf("the revocation returned at %v having slept %v; the lease ended at %v", at, clock.slept, expires)
			}
			if mode == "hold" {
				close(h.release)
				if err := <-h.late; err == nil {
					t.Error("the late acknowledgement was written on a stream the owner had closed")
				}
			}
			if begun, acked := n.Revocations(); begun != 1 || acked != 1 {
				t.Fatalf("%d revocations begun, %d acknowledged; want 1 and 1", begun, acked)
			}

			h.mode.Store("ack")
			grant()
			n.Revoke(ctx, nil, "members")
			if m := n.Metrics(); m.RevocationsSent != 2 || m.RevocationsWaitedOut != 1 || m.StreamsOpened != 2 || len(clock.slept) != 1 {
				t.Errorf("%d sent, %d waited out, %d streams opened, slept %v; want 2, 1, 2 and one sleep",
					m.RevocationsSent, m.RevocationsWaitedOut, m.StreamsOpened, clock.slept)
			}
		})
	}
}

// The stream is one exchange that outlives the deadlines meant for one
// request: an owner whose client gives an exchange 50 ms, and a holder
// whose server gives a request's read and write 50 ms each, send two
// revocations 100 ms apart over one stream, each acknowledged.
func TestStreamOutlivesRequestDeadlines(t *testing.T) {
	ctx := context.Background()
	srv := httptest.NewUnstartedServer(nil)
	srv.Config.ReadTimeout, srv.Config.WriteTimeout = 50*time.Millisecond, 50*time.Millisecond
	urls := map[string]string{"alpha": "http://alpha", "beta": urlOf(srv)}
	pinned := map[string][]string{"members": {"alpha"}}
	holderNode, err := cluster.NewNode(cluster.Config{Self: "beta", Nodes: urls, Pinned: pinned})
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = serve.New(mediator.New("beta-med"), serve.WithCluster(holderNode))
	srv.Start()
	t.Cleanup(srv.Close)
	owner, err := cluster.NewNode(cluster.Config{Self: "alpha", Nodes: urls, Pinned: pinned,
		Client: &http.Client{Timeout: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(owner.Close)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		o, _ := owner.Offer("members", "beta")
		owner.Grant(o, `"t"`, false)
		owner.Revoke(ctx, nil, "members")
	}
	if m := owner.Metrics(); m.RevocationsSent != 2 || m.RevocationsWaitedOut != 0 || m.StreamsOpened != 1 {
		t.Errorf("%d revocations sent, %d waited out, %d streams opened; want 2, 0 and 1", m.RevocationsSent, m.RevocationsWaitedOut, m.StreamsOpened)
	}
}
