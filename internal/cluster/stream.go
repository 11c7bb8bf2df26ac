package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A Frame is one revocation on an owner's stream to a holder (RevokePath):
// its sequence number on the stream, the views whose leases it takes back,
// as a query (view=v&view=w), and the renewal it carries, if any — the
// view's tag now (Tag), the tag the lease was granted on (Base, "" for no
// renewal), the delta's RunsHeader value (Runs), how much later than the
// lease taken back the renewed one ends, in milliseconds (Extend), and the
// delta, the runs of the parts that moved (Delta). A renewal whose Base is
// its Tag keeps a lease on a document that did not change: it has no delta
// and extends nothing.
//
// On the wire a frame is one line of seven decimal numbers — Seq, Extend,
// and the byte lengths of Views, Tag, Base, Runs and Delta — and then those
// five, back to back. Its acknowledgement is the line of its Seq.
type Frame struct {
	Seq                    uint64
	Views                  string
	Tag, Base, Runs, Delta string
	Extend                 int64
}

// MaxFrame bounds what follows a frame's line: a longer frame is refused, as
// a longer request body is. An owner renews with a plain revocation rather
// than send a delta that would not fit.
const MaxFrame = 1 << 20

// AppendFrame appends f's wire form to dst.
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = strconv.AppendUint(dst, f.Seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, f.Extend, 10)
	for _, field := range [...]string{f.Views, f.Tag, f.Base, f.Runs, f.Delta} {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(len(field)), 10)
	}
	dst = append(dst, '\n')
	for _, field := range [...]string{f.Views, f.Tag, f.Base, f.Runs, f.Delta} {
		dst = append(dst, field...)
	}
	return dst
}

// ReadFrame reads the next frame from r: io.EOF when the stream ended
// between frames. Its fields share one allocation, the frame's own, which
// nothing writes again: a renewal may keep its delta as it is.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	var nums [7]uint64
	rest := line[:len(line)-1]
	for i := range nums {
		end := bytes.IndexByte(rest, ' ')
		if end < 0 {
			end = len(rest)
		}
		n, err := strconv.ParseUint(unsafe.String(unsafe.SliceData(rest), end), 10, 63)
		if err != nil || (end == len(rest)) != (i == len(nums)-1) {
			return Frame{}, errors.New("cluster: a revocation frame's line is not seven numbers")
		}
		nums[i], rest = n, rest[min(end+1, len(rest)):]
	}
	total := uint64(0)
	for _, n := range nums[2:] {
		if total += n; n > MaxFrame || total > MaxFrame {
			return Frame{}, fmt.Errorf("cluster: a revocation frame over %d bytes", MaxFrame)
		}
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	var fields [5]string
	for i := range fields {
		n := nums[2+i]
		fields[i], body = unsafe.String(unsafe.SliceData(body), n), body[n:]
	}
	return Frame{Seq: nums[0], Extend: int64(nums[1]), Views: fields[0], Tag: fields[1], Base: fields[2], Runs: fields[3], Delta: fields[4]}, nil
}

// AppendAck appends the acknowledgement of frame seq to dst.
func AppendAck(dst []byte, seq uint64) []byte {
	return append(strconv.AppendUint(dst, seq, 10), '\n')
}

// stream is an owner's revocation exchange with one holder: a POST
// RevokePath held open, whose request body carries the owner's frames and
// whose response body the holder's acknowledgements. Frames are written
// whole under mu; one goroutine (run) reads the acknowledgements and credits
// each to the revocation waiting on its sequence number. Any failure —
// a write or read error, a status other than 200, an acknowledgement that
// does not parse, a revocation not acknowledged before its lease ran out —
// ends the stream and fails every revocation pending on it; the next
// revocation to the holder opens another.
type stream struct {
	holder string
	w      *io.PipeWriter
	cancel context.CancelFunc
	dead   atomic.Bool

	mu      sync.Mutex
	seq     uint64
	pending []pendingAck
	buf     []byte    // the frame being written
	acks    io.Closer // the response body, once the holder answered
	err     error     // why it ended
}

// pendingAck is a revocation waiting for its acknowledgement.
type pendingAck struct {
	seq uint64
	ack chan error
}

// errLate fails a revocation whose holder did not acknowledge it before the
// lease it took back ran out.
var errLate = errors.New("cluster: the holder did not acknowledge the revocation before its lease ran out")

// stream is the open stream to holder, opened when there is none or the one
// there has ended.
func (n *Node) stream(holder string) (*stream, error) {
	n.streamsMu.Lock()
	defer n.streamsMu.Unlock()
	if s := n.streams[holder]; s != nil && !s.dead.Load() {
		return s, nil
	}
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.cfg.Nodes[holder]+RevokePath, pr)
	if err != nil {
		cancel()
		return nil, err
	}
	// The transport, not the client: a client's Timeout bounds a whole
	// exchange, and this one lasts as long as both nodes do.
	rt := n.client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	s := &stream{holder: holder, w: pw, cancel: cancel}
	n.streams[holder] = s
	n.streamsOpened.Add(1)
	go s.run(rt, req)
	return s, nil
}

// send writes t's frame on s, its acknowledgement (or the stream's failure)
// to come on ack.
func (s *stream) send(t *told, ack chan error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.seq++
	s.pending = append(s.pending, pendingAck{seq: s.seq, ack: ack})
	f := Frame{Seq: s.seq, Views: revocationQuery(t.views)}
	if rn := t.renewal; rn.tag != "" {
		f.Tag, f.Base, f.Runs, f.Delta, f.Extend = rn.tag, rn.base, t.delta.runs, unsafe.String(unsafe.SliceData(t.delta.body), len(t.delta.body)), rn.extend.Milliseconds()
		if len(f.Views)+len(f.Tag)+len(f.Base)+len(f.Runs)+len(f.Delta) > MaxFrame {
			f = Frame{Seq: f.Seq, Views: f.Views} // a plain revocation: the holder would refuse it
		}
	}
	s.buf = AppendFrame(s.buf[:0], &f)
	_, err := s.w.Write(s.buf)
	return err
}

// revocationQuery is views as a frame names them: view=v&view=w.
func revocationQuery(views []string) string {
	q := ""
	for i, v := range views {
		if i > 0 {
			q += "&"
		}
		q += "view=" + url.QueryEscape(v)
	}
	return q
}

// run opens the exchange and reads the holder's acknowledgements until the
// stream ends.
func (s *stream) run(rt http.RoundTripper, req *http.Request) {
	resp, err := rt.RoundTrip(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("cluster: %s refused the revocation stream: %s", s.holder, resp.Status)
	}
	if err != nil {
		s.fail(err)
		return
	}
	s.mu.Lock()
	s.acks, err = resp.Body, s.err
	s.mu.Unlock()
	if err != nil {
		resp.Body.Close()
		return
	}
	acks := bufio.NewReaderSize(resp.Body, 64)
	for {
		line, err := acks.ReadSlice('\n')
		if err != nil {
			s.fail(err)
			return
		}
		seq, err := strconv.ParseUint(unsafe.String(unsafe.SliceData(line), len(line)-1), 10, 64)
		if err != nil {
			s.fail(errors.New("cluster: an acknowledgement that is not a sequence number"))
			return
		}
		s.credit(seq)
	}
}

// credit is the acknowledgement of frame seq arriving: the revocation
// waiting on it has been heard. On a stream that has ended it credits
// nothing: every revocation that was pending on it has failed already.
func (s *stream) credit(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range s.pending {
		if p.seq == seq {
			p.ack <- nil
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// fail ends s for err, unless it has ended already: the exchange is torn
// down — which ends a write blocked on it and the read of the next
// acknowledgement — and every revocation pending on it fails with err.
func (s *stream) fail(err error) {
	if s.dead.Swap(true) {
		return
	}
	s.cancel()
	s.w.CloseWithError(err)
	s.mu.Lock()
	s.err = err
	if s.acks != nil {
		s.acks.Close()
	}
	for _, p := range s.pending {
		p.ack <- err
	}
	s.pending = nil
	s.mu.Unlock()
}

// Close ends this node's revocation streams: the ones it holds open to the
// holders of its leases — every revocation pending on them is waited out,
// as for any failure, and the next one opens another — and the ones its
// owners hold open to it (Closed).
func (n *Node) Close() {
	n.closeHeld()
	n.streamsMu.Lock()
	var open []*stream
	for _, s := range n.streams {
		open = append(open, s)
	}
	n.streamsMu.Unlock()
	for _, s := range open {
		s.fail(errors.New("cluster: the node closed its revocation streams"))
	}
}

// Closed ends when Close is called: a holder's handler ends the revocation
// streams it serves then, so that a server shutting down is not kept waiting
// by exchanges that would otherwise last as long as their owners do.
func (n *Node) Closed() context.Context { return n.held }
