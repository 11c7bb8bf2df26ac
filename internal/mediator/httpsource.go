package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/xmlmodel"
)

// Defaults for the distributed-stacking transport. A remote mediator is
// just another network service: it can hang (so every request carries a
// timeout) and it can hiccup (so transient failures are retried a bounded
// number of times with exponential backoff).
const (
	// DefaultHTTPTimeout bounds each individual request attempt when the
	// caller passes a nil *http.Client.
	DefaultHTTPTimeout = 10 * time.Second
	// DefaultHTTPRetries is the number of re-attempts after the first
	// failed request (so a fetch makes at most 1+DefaultHTTPRetries
	// round trips).
	DefaultHTTPRetries = 2
	// DefaultHTTPBackoff is the delay before the first retry; it doubles
	// on each subsequent retry, up to DefaultHTTPMaxBackoff.
	DefaultHTTPBackoff = 100 * time.Millisecond
	// DefaultHTTPMaxBackoff caps the exponential backoff: without a cap,
	// generous retry counts double past any useful delay (and eventually
	// past the int64 range of time.Duration).
	DefaultHTTPMaxBackoff = 30 * time.Second
	// maxResponseBytes bounds how much of a remote response is read. A
	// response exceeding it fails with ErrBodyTooLarge instead of being
	// silently truncated into a parse error (or worse, into a shorter
	// well-formed document).
	maxResponseBytes = 16 << 20
)

// ErrBodyTooLarge reports a remote response larger than maxResponseBytes.
// It is not retryable: the remote will answer the same way again.
var ErrBodyTooLarge = errors.New("response body exceeds 16 MiB limit")

// StatusError is a remote's answer with a status the request cannot use:
// anything but 200 (and 304 to a conditional request). Callers that route on
// the upstream status — internal/serve keeps a peer's 421 a 421 — take it
// from here with errors.As, not from the message.
type StatusError struct {
	URL    string
	Status int
	Body   string // trimmed
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("GET %s: %d: %s", e.URL, e.Status, e.Body)
}

// HTTPSource is a wrapper over a remote mediator view served over HTTP
// (see internal/serve): the distributed form of mediator stacking. The
// remote view's *inferred* DTD becomes this source's schema — exactly the
// paper's point that "lower level mediators can derive and provide their
// view DTDs to the higher level ones" — so a local mediator can run view
// DTD inference, query simplification and composition against a remote
// MIX instance without ever seeing its raw sources.
//
// The transport is resilient by default: requests are bounded by the
// client timeout and the caller's context, and transport errors or 5xx
// responses are retried with exponential backoff. 4xx responses are not
// retried — an unknown view stays unknown no matter how often it is asked
// for.
type HTTPSource struct {
	name    string
	client  *http.Client
	viewURL string
	schema  *dtd.DTD

	maxRetries  int
	backoff     time.Duration
	maxBackoff  time.Duration
	retryBudget *RetryBudget
	retries     atomic.Int64
	// kept is the last body that passed every check of Fetch, with the
	// document built from it and the tag the remote sent it under ("" when
	// it sent none): one triple, swapped whole. It is what the next Fetch
	// revalidates against — a 304 to the tag, or a 200 with the same bytes,
	// is answered with the document.
	kept            atomic.Pointer[keptDocument]
	notModified     atomic.Int64
	unchangedBodies atomic.Int64
	// rawDTD is the remote /dtd response exactly as received. The cluster
	// tier serves it verbatim on forwarded DTD requests, so a forwarded
	// response is bit-identical to the owner's even if a parse/print
	// round trip of the DTD were ever to normalize formatting.
	rawDTD string
	// okSubset is the text of the last payload DOCTYPE internal subset
	// that dtd.ParseSubset accepted (a private copy: a substring would pin
	// its payload). Fetch re-parses a payload's subset only when its text
	// differs: whether a subset parses depends on nothing but that text.
	okSubset atomic.Pointer[string]
	// sleep waits between retries (honoring ctx); tests inject a stub to
	// observe the requested delays without actually waiting.
	sleep func(ctx context.Context, d time.Duration) error
}

// keptDocument is a validated document, the body it was built from (which
// its names and texts alias, so holding it retains nothing more) and the tag
// the remote last sent that body under. Never written once stored.
type keptDocument struct {
	tag, body string
	doc       *xmlmodel.Document
}

// HTTPOption configures an HTTPSource.
type HTTPOption func(*HTTPSource)

// WithRetries sets the number of re-attempts after a failed request
// (0 disables retrying).
func WithRetries(n int) HTTPOption {
	return func(s *HTTPSource) {
		if n >= 0 {
			s.maxRetries = n
		}
	}
}

// WithBackoff sets the delay before the first retry (doubled per retry,
// capped by WithMaxBackoff).
func WithBackoff(d time.Duration) HTTPOption {
	return func(s *HTTPSource) {
		if d > 0 {
			s.backoff = d
		}
	}
}

// WithMaxBackoff caps the exponential retry backoff.
func WithMaxBackoff(d time.Duration) HTTPOption {
	return func(s *HTTPSource) {
		if d > 0 {
			s.maxBackoff = d
		}
	}
}

// WithRetryBudget makes every retry spend a token from b before sleeping
// its backoff; when the bucket is dry the fetch fails immediately with
// the last error instead of burning more attempts (and the backoff sleep
// before them) against a browned-out remote. Share one budget between a
// source's retries and its ReplicaSet's hedges (ReplicaSet.Budget) to cap
// the source's total load amplification.
func WithRetryBudget(b *RetryBudget) HTTPOption {
	return func(s *HTTPSource) { s.retryBudget = b }
}

// NewHTTPSource contacts baseURL (a mixserve instance) and registers the
// named remote view as a source. The view DTD is fetched eagerly — schema
// knowledge is what the mediator needs at view-definition time. A nil
// client gets a DefaultHTTPTimeout-bounded one (never the timeout-less
// http.DefaultClient: a hung remote must not wedge the mediator's
// goroutine fan-out).
func NewHTTPSource(client *http.Client, baseURL, view string, opts ...HTTPOption) (*HTTPSource, error) {
	return NewHTTPSourceContext(context.Background(), client, baseURL, view, opts...)
}

// NewHTTPSourceContext is NewHTTPSource with a caller-supplied context for
// the eager view-DTD fetch. The cluster tier needs it: when a forward is
// built lazily inside a request, the DTD fetch must carry that request's
// deadline and ForwardInfo hop path, or the loop guard would not see the
// very first round trip.
func NewHTTPSourceContext(ctx context.Context, client *http.Client, baseURL, view string, opts ...HTTPOption) (*HTTPSource, error) {
	if client == nil {
		client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	base := strings.TrimRight(baseURL, "/")
	s := &HTTPSource{
		name:       base + "/views/" + view,
		client:     client,
		viewURL:    base + "/views/" + view,
		maxRetries: DefaultHTTPRetries,
		backoff:    DefaultHTTPBackoff,
		maxBackoff: DefaultHTTPMaxBackoff,
	}
	s.sleep = func(ctx context.Context, d time.Duration) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, opt := range opts {
		opt(s)
	}
	resp, err := s.get(ctx, s.viewURL+"/dtd", "")
	if err != nil {
		return nil, fmt.Errorf("mediator: fetching remote view DTD: %w", err)
	}
	body := resp.body
	d, err := dtd.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("mediator: remote view DTD unparseable: %w", err)
	}
	if errs := d.Check(); len(errs) > 0 {
		return nil, fmt.Errorf("mediator: remote view DTD inconsistent: %v", errs[0])
	}
	s.schema = d
	s.rawDTD = body
	return s, nil
}

// SchemaText returns the remote view DTD exactly as the peer served it.
func (s *HTTPSource) SchemaText() string { return s.rawDTD }

// GetPath performs a raw GET of a sibling endpoint of the source's view
// (e.g. "/sdtd", "/outline") under the source's retry/budget policy. The
// cluster tier uses it to pass through endpoints whose payload the
// forwarding node cannot reconstruct from the schema and document alone.
func (s *HTTPSource) GetPath(ctx context.Context, suffix string) (string, error) {
	resp, err := s.get(ctx, s.viewURL+suffix, "")
	return resp.body, err
}

// Name implements Wrapper; it is the view's URL, which doubles as a
// globally meaningful source identifier.
func (s *HTTPSource) Name() string { return s.name }

// Schema implements Wrapper.
func (s *HTTPSource) Schema() *dtd.DTD { return s.schema }

// Retries reports the total number of transient-failure retries this
// source has performed.
func (s *HTTPSource) Retries() int64 { return s.retries.Load() }

// Report implements Reporter.
func (s *HTTPSource) Report(r *SourceReport) {
	r.Retries += s.Retries()
	r.NotModified += s.notModified.Load()
	r.UnchangedBodies += s.unchangedBodies.Load()
}

// Fetch implements Wrapper: it retrieves the materialized remote view and
// validates it against the remote-provided schema before handing it to the
// local mediator (never trust the wire). The body is scanned once: the
// compiled DFAs run over the same events the tree is built from
// (dtd.ParseValid), so a body that is malformed or violates the DTD fails
// at that event, having cost the tree of what came before it and no more.
// A payload whose own DOCTYPE subset is malformed fails the fetch too; the
// DTD that subset declares is never used (the schema is the one fetched at
// construction), so a subset whose text matches the last one that parsed
// cleanly is not parsed again.
//
// The hop revalidates, by the tag when the remote sends one and by the bytes
// always: Fetch asks with the held tag (If-None-Match), and a 304 — or a 200
// whose body is the held one, byte for byte — is answered with the held
// document, the one that passed all of the above when it arrived. Returning
// the same *Document as last time is how a wrapper says "unchanged"
// (Wrapper), and it is safe because what Fetch returns is read-only to
// everyone. Every Fetch still asks the remote, so nothing is served that the
// remote would not serve now.
func (s *HTTPSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	kept, held := s.kept.Load(), ""
	if kept != nil {
		held = kept.tag
	}
	resp, err := s.get(ctx, s.viewURL, held)
	if err != nil {
		return nil, fmt.Errorf("mediator: fetching remote view: %w", err)
	}
	switch {
	case resp.status == http.StatusNotModified:
		s.notModified.Add(1)
		obs.SetAttr(ctx, obs.Bool("not_modified", true))
	case kept != nil && resp.body == kept.body:
		s.unchangedBodies.Add(1)
		if resp.etag != kept.tag {
			kept = &keptDocument{tag: resp.etag, body: kept.body, doc: kept.doc}
			s.kept.Store(kept)
		}
	default:
		doc, err := s.check(resp.body)
		if err != nil {
			return nil, err
		}
		kept = &keptDocument{tag: resp.etag, body: resp.body, doc: doc}
		s.kept.Store(kept)
	}
	ForwardInfoFrom(ctx).noteDocument(kept.tag)
	return kept.doc, nil
}

// check is everything a body must pass before its document is handed out.
func (s *HTTPSource) check(body string) (*xmlmodel.Document, error) {
	doc, dt, err := s.schema.ParseValid(body)
	if err != nil {
		var verr *dtd.ValidationError
		if errors.As(err, &verr) {
			return nil, fmt.Errorf("mediator: remote view violates its own DTD: %w", err)
		}
		return nil, fmt.Errorf("mediator: remote view unparseable: %w", err)
	}
	if dt != nil {
		if ok := s.okSubset.Load(); ok == nil || *ok != dt.Internal {
			if _, err := dtd.ParseSubset(dt.Root, dt.Internal); err != nil {
				return nil, fmt.Errorf("mediator: remote view unparseable: %w", err)
			}
			subset := strings.Clone(dt.Internal)
			s.okSubset.Store(&subset)
		}
	}
	return doc, nil
}

// response is what one GET brought back.
type response struct {
	status int
	body   string
	etag   string
}

// get performs a GET with bounded retries: transport errors and 5xx
// responses back off exponentially (doubling up to maxBackoff, with
// equal-jitter randomization so a fleet of sources retrying the same dead
// remote does not synchronize) and retry up to maxRetries times; any
// other non-200, and an oversized body (ErrBodyTooLarge), fail
// immediately with a *StatusError. A non-empty held makes the request
// conditional (If-None-Match), and only then is a 304 an answer; one nobody
// asked for fails like any other unusable status. Cancellation of ctx cuts
// both the in-flight request (via the request context) and the backoff
// sleeps.
func (s *HTTPSource) get(ctx context.Context, url, held string) (response, error) {
	var lastErr error
	backoff := s.backoff
	if backoff > s.maxBackoff {
		backoff = s.maxBackoff
	}
	for attempt := 0; ; attempt++ {
		resp, err := s.tryGet(ctx, url, held)
		switch {
		case errors.Is(err, ErrBodyTooLarge):
			return response{}, fmt.Errorf("GET %s: %w", url, err)
		case err != nil:
			lastErr = err
		case resp.status == http.StatusOK, resp.status == http.StatusNotModified && held != "":
			return resp, nil
		case resp.status >= 500:
			lastErr = &StatusError{URL: url, Status: resp.status, Body: strings.TrimSpace(resp.body)}
		default:
			return response{}, &StatusError{URL: url, Status: resp.status, Body: strings.TrimSpace(resp.body)}
		}
		// Give up without sleeping when no retry can follow: the retry
		// count is exhausted, the caller's context is already done (a
		// cancelled fetch must not burn a full backoff first), or the
		// retry budget is dry (a brownout must not be amplified).
		if attempt >= s.maxRetries || ctx.Err() != nil {
			return response{}, lastErr
		}
		if s.retryBudget != nil && !s.retryBudget.Allow() {
			return response{}, lastErr
		}
		if s.sleep(ctx, jitter(backoff)) != nil {
			return response{}, lastErr
		}
		if backoff <= s.maxBackoff/2 {
			backoff *= 2 // doubling past maxBackoff/2 would exceed the cap
		} else {
			backoff = s.maxBackoff
		}
		s.retries.Add(1)
	}
}

// jitter spreads a backoff delay over [d/2, d] (equal jitter): the cap
// stays a true upper bound while concurrent retriers decorrelate.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (s *HTTPSource) tryGet(ctx context.Context, url, held string) (response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return response{}, err
	}
	fi := ForwardInfoFrom(ctx)
	if fi != nil && len(fi.Hops) > 0 {
		// A cluster forward announces its hop path so the peer can refuse
		// loops (421, not retried — the path would be the same next time).
		req.Header.Set(ForwardHeader, strings.Join(fi.Hops, ","))
	}
	if held != "" {
		req.Header.Set("If-None-Match", held)
	}
	if id := obs.TraceID(ctx); id != "" {
		// The peer adopts it (obs.StartRequest): both ends of the hop file
		// their trace under one ID.
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return response{status: resp.StatusCode}, err
	}
	if fi != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified) {
		// Capture the peer's pruned/degraded/stale taxonomy so the
		// forwarding node passes it through instead of erasing it.
		fi.record(resp.Header)
	}
	return response{status: resp.StatusCode, body: body, etag: resp.Header.Get("ETag")}, nil
}

// readBufs pools the chunk readBody reads through, as xmlmodel pools the
// one WriteElement writes through: a body costs its own bytes only.
var readBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// readBody reads a response body into one string, once: the buffer is
// sized up front when the peer declared a length within the limit (and
// grows by doubling when it did not), and is handed back as the string
// without a copy. It reads one byte past the limit: exactly-at-the-limit
// bodies are legal, and anything longer is detected as oversized rather
// than silently truncated into a parse failure on a cut-off document.
func readBody(r io.Reader, contentLength int64) (string, error) {
	var b strings.Builder
	if 0 < contentLength && contentLength <= maxResponseBytes {
		b.Grow(int(contentLength))
	}
	buf := readBufs.Get().(*[32 << 10]byte)
	defer readBufs.Put(buf)
	for b.Len() <= maxResponseBytes {
		n, err := r.Read(buf[:min(len(buf), maxResponseBytes+1-b.Len())])
		b.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	if b.Len() > maxResponseBytes {
		return "", ErrBodyTooLarge
	}
	return b.String(), nil
}
