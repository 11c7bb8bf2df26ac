// Package pipehttp serves HTTP requests from a handler in memory, as over a
// socket: the handler runs on a goroutine of its own, reads the request body
// as the client writes it, and the response reaches the client once the
// handler flushes it or returns — what it writes after a flush, as it writes
// it. So a full-duplex exchange (a request body still being written while
// the response is read) works as it does over net/http. A handler that never
// flushes is answered exactly as an httptest.ResponseRecorder would record it.
package pipehttp

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Transport is an http.RoundTripper that serves every request with Handler,
// under the request's own context.
type Transport struct{ Handler http.Handler }

func (t Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	return Serve(req.Context(), t.Handler, req)
}

// Serve serves req with h under ctx and returns the response as a client
// receives it: once h has flushed, written its header and flushed, or
// returned. The request's body is closed when h returns; closing the
// response's body makes h's later writes fail, as a client that hung up
// does. It fails with req's context's error when that ended first, and with
// io.ErrUnexpectedEOF when h panicked before it flushed: a server drops the
// connection then.
func Serve(ctx context.Context, h http.Handler, req *http.Request) (*http.Response, error) {
	in := req.Clone(ctx)
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	pr, pw := io.Pipe()
	w := &writer{header: http.Header{}, sent: make(chan struct{}), pipe: pw,
		resp: &http.Response{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Request: req, ContentLength: -1, Body: pr}}
	go func() {
		defer func() {
			if p := recover(); p != nil {
				pw.CloseWithError(io.ErrUnexpectedEOF)
				w.once.Do(func() { w.resp = nil; close(w.sent) })
			}
			in.Body.Close()
		}()
		h.ServeHTTP(w, in)
		w.finish()
	}()
	select {
	case <-w.sent:
	case <-req.Context().Done():
		pr.CloseWithError(req.Context().Err())
		return nil, req.Context().Err()
	}
	if w.resp == nil {
		return nil, io.ErrUnexpectedEOF
	}
	return w.resp, nil
}

// writer is the handler's http.ResponseWriter, used by the handler's
// goroutine alone: what it writes is buffered until the first flush, and
// after it goes down the pipe as it is written.
type writer struct {
	header    http.Header
	resp      *http.Response // the client's once sent is closed
	pipe      *io.PipeWriter
	code      int
	buf       bytes.Buffer
	streaming bool
	sent      chan struct{}
	once      sync.Once
}

func (w *writer) Header() http.Header { return w.header }

func (w *writer) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *writer) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.streaming {
		return w.pipe.Write(p)
	}
	return w.buf.Write(p)
}

// Flush sends the response's header, if it has not gone yet, and what was
// written before it.
func (w *writer) Flush() { _ = w.FlushError() }

// FlushError is Flush, reporting a client that no longer reads.
func (w *writer) FlushError() error {
	w.streaming = true
	w.send()
	if w.buf.Len() == 0 {
		return nil
	}
	_, err := w.pipe.Write(w.buf.Bytes())
	w.buf.Reset()
	return err
}

// send hands the client its response, once: the header as it stands, and
// the body read from the pipe when streaming, else the buffer.
func (w *writer) send() {
	w.once.Do(func() {
		if w.code == 0 {
			w.code = http.StatusOK
		}
		w.resp.StatusCode, w.resp.Status = w.code, strconv.Itoa(w.code)+" "+http.StatusText(w.code)
		w.resp.Header = w.header.Clone()
		if !w.streaming {
			body := bytes.Clone(w.buf.Bytes())
			w.resp.Body, w.resp.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		}
		close(w.sent)
	})
}

// finish is the handler returning: a response never flushed goes whole, a
// streamed one gets what was written since its last flush, and then its end.
func (w *writer) finish() {
	if w.streaming {
		_ = w.FlushError()
	} else {
		w.send()
	}
	w.pipe.Close()
}
