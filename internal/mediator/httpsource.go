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
	// viewReq is a GET of viewURL, its URL parsed once: a fetch of the view
	// is a copy of it under the fetch's context, with headers of its own.
	viewReq *http.Request
	schema  *dtd.DTD

	maxRetries  int
	backoff     time.Duration
	retryBudget *RetryBudget
	retries     atomic.Int64
	// kept is the last body that passed every check of Fetch, with the
	// document built from it and the tag the remote sent it under ("" when
	// it sent none), swapped whole. It is what the next Fetch revalidates
	// against — a 304 to the tag, or a 200 with the same bytes, is answered
	// with the document — and a changed body whose DOCTYPE subset is the
	// kept one's has that subset parsed no more.
	kept            atomic.Pointer[keptDocument]
	notModified     atomic.Int64
	unchangedBodies atomic.Int64
	deltas          atomic.Int64
	// rawDTD is the remote /dtd response exactly as received. The cluster
	// tier serves it verbatim on forwarded DTD requests, so a forwarded
	// response is bit-identical to the owner's even if a parse/print
	// round trip of the DTD were ever to normalize formatting.
	rawDTD string
	// sleep waits between retries (honoring ctx); tests inject a stub to
	// observe the requested delays without actually waiting.
	sleep func(ctx context.Context, d time.Duration) error
}

// keptDocument is a validated document, the body it was built from (which
// its names and texts alias, so holding it retains nothing more), the body's
// DOCTYPE subset ("" for none; a slice of body) and the tag the remote last
// sent that body under. A document spliced from a delta (splice.go) has
// neither body nor subset: its runs say what it retains. Never written once
// stored.
type keptDocument struct {
	tag, body, subset string
	doc               *xmlmodel.Document
	// elems counts doc's elements when a full body built it (0 for a
	// splice): the next changed body's tree is sized by it (dtd.ParseValid).
	elems int
	// runs cut doc's root children into the runs the remote made them of, in
	// part order, each with its picks memo: what a delta is spliced into and
	// what a cluster member answers from (Answer); ends says where each run
	// ends among the children, for a walk of them all. Only a member's fetch
	// holds them (hold); nil for every other.
	runs []heldRun
	ends []int
	// deltas counts the deltas spliced since the last full body.
	deltas int
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
// capped at DefaultHTTPMaxBackoff).
func WithBackoff(d time.Duration) HTTPOption {
	return func(s *HTTPSource) {
		if d > 0 {
			s.backoff = d
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
// deadline and its forward's note (FetchNote), whose hop path the loop guard
// must see on the very first round trip.
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
	resp, err := s.get(ctx, s.viewURL+"/dtd", nil)
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
	// viewURL+"/dtd" parsed, so viewURL does too.
	if s.viewReq, err = http.NewRequest(http.MethodGet, s.viewURL, nil); err != nil {
		return nil, fmt.Errorf("mediator: remote view URL: %w", err)
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
	resp, err := s.get(ctx, s.viewURL+suffix, nil)
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
	r.Deltas += s.deltas.Load()
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
//
// A cluster member's fetch asks for deltas too (RunsHeader), and holds the
// document as the runs its owner made it of, each with the memo of what the
// member's queries picked from it (Answer): a 226 to the held tag brings the
// runs of the parts that moved alone, which are validated and spliced into a
// new document beside the held one's unmoved runs, memos and all (splice). A
// delta that fails any check is answered by one unconditional fetch of the
// whole document, so what is handed out has always validated.
func (s *HTTPSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	held := s.kept.Load()
	resp, err := s.get(ctx, s.viewURL, held)
	if err == nil && resp.status == http.StatusIMUsed {
		spliced, serr := s.splice(held, resp)
		if serr == nil {
			s.deltas.Add(1)
			s.kept.Store(spliced)
			NoteFrom(ctx).Fetched(spliced.tag, resp.lease)
			return spliced.doc, nil
		}
		obs.AddEvent(ctx, "source.delta_refused", obs.String("error", serr.Error()))
		resp, err = s.get(ctx, s.viewURL, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("mediator: fetching remote view: %w", err)
	}
	kept := held
	switch {
	case resp.status == http.StatusNotModified:
		s.notModified.Add(1)
		obs.SetAttr(ctx, obs.Bool("not_modified", true))
		if resp.member && held.runs == nil {
			kept = s.hold(*held, resp, nil)
		}
	case held != nil && held.body != "" && resp.body == held.body:
		s.unchangedBodies.Add(1)
		if resp.etag != held.tag || resp.member && held.runs == nil {
			kept = s.hold(keptDocument{tag: resp.etag, body: held.body, subset: held.subset, doc: held.doc, elems: held.elems}, resp, held)
		}
	default:
		doc, subset, elems, err := s.check(resp.body, held)
		if err != nil {
			return nil, err
		}
		kept = s.hold(keptDocument{tag: resp.etag, body: resp.body, subset: subset, doc: doc, elems: elems}, resp, nil)
	}
	if kept != held {
		s.kept.Store(kept)
	}
	NoteFrom(ctx).Fetched(kept.tag, resp.lease)
	return kept.doc, nil
}

// check is everything a body must pass before its document is handed out,
// and returns the body's DOCTYPE subset and the document's element count.
// Whether a subset parses depends on its text alone, so the held body's
// (held, nil for none) is not parsed again; the held document's count sizes
// the tree.
func (s *HTTPSource) check(body string, held *keptDocument) (*xmlmodel.Document, string, int, error) {
	sized := 0
	if held != nil {
		sized = held.elems
	}
	doc, dt, elems, err := s.schema.ParseValid(body, sized)
	if err != nil {
		var verr *dtd.ValidationError
		if errors.As(err, &verr) {
			return nil, "", 0, fmt.Errorf("mediator: remote view violates its own DTD: %w", err)
		}
		return nil, "", 0, fmt.Errorf("mediator: remote view unparseable: %w", err)
	}
	if dt == nil {
		return doc, "", elems, nil
	}
	if held == nil || held.subset != dt.Internal {
		if _, err := dtd.ParseSubset(dt.Root, dt.Internal); err != nil {
			return nil, "", 0, fmt.Errorf("mediator: remote view unparseable: %w", err)
		}
	}
	return doc, dt.Internal, elems, nil
}

// response is what one GET brought back. lease is the term a cluster owner
// granted with it, read only for a forwarded fetch; im, base and runs are a
// delta's headers (IM, Delta-Base, RunsHeader), runs a full document's too;
// member says the request asked for runs, as only a cluster member's does.
type response struct {
	status         int
	body           string
	etag           string
	lease          time.Duration
	im, base, runs string
	member         bool
}

// responseOf is what a response with status, headers h and body brings back.
func responseOf(status int, h http.Header, body string, member bool) response {
	return response{status: status, body: body, etag: h.Get("ETag"),
		im: h.Get("Im"), base: h.Get("Delta-Base"), runs: h.Get(RunsHeader), member: member}
}

// get performs a GET with bounded retries: transport errors and 5xx
// responses back off exponentially (doubling up to DefaultHTTPMaxBackoff, with
// equal-jitter randomization so a fleet of sources retrying the same dead
// remote does not synchronize) and retry up to maxRetries times; any
// other non-200, and an oversized body (ErrBodyTooLarge), fail
// immediately with a *StatusError. A held document (nil for none) makes the
// request conditional (If-None-Match) when it has a tag, and only then is a
// 304 — or a 226, a delta against it — an answer; one nobody asked for fails
// like any other unusable status. Its body is what a 200's is compared with as
// it is read (readBody).
// Cancellation of ctx cuts both the in-flight request (via the request
// context) and the backoff sleeps.
func (s *HTTPSource) get(ctx context.Context, url string, held *keptDocument) (response, error) {
	var lastErr error
	backoff := s.backoff
	if backoff > DefaultHTTPMaxBackoff {
		backoff = DefaultHTTPMaxBackoff
	}
	for attempt := 0; ; attempt++ {
		resp, err := s.tryGet(ctx, url, held)
		switch {
		case errors.Is(err, ErrBodyTooLarge):
			return response{}, fmt.Errorf("GET %s: %w", url, err)
		case err != nil:
			lastErr = err
		case resp.status == http.StatusOK,
			(resp.status == http.StatusNotModified || resp.status == http.StatusIMUsed) && held != nil && held.tag != "":
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
		if backoff <= DefaultHTTPMaxBackoff/2 {
			backoff *= 2 // doubling past half the cap would exceed it
		} else {
			backoff = DefaultHTTPMaxBackoff
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

// runsIM is the A-IM request header's value, shared by every request: the
// transport only reads it.
var runsIM = []string{RunsIM}

func (s *HTTPSource) tryGet(ctx context.Context, url string, held *keptDocument) (response, error) {
	view := url == s.viewURL
	var req *http.Request
	if view {
		req = s.viewReq.WithContext(ctx)
		req.Header = make(http.Header)
	} else {
		var err error
		if req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil); err != nil {
			return response{}, err
		}
	}
	fwd := NoteFrom(ctx).forward()
	member := false
	if fwd != nil {
		// A cluster forward announces its hop path so the peer can refuse
		// loops (421, not retried — the path would be the same next time),
		// and asks for the view document's runs, and for deltas.
		req.Header.Set(ForwardHeader, strings.Join(fwd.hops, ","))
		if member = view; member {
			req.Header["A-Im"] = runsIM
		}
	}
	if held != nil && held.tag != "" {
		req.Header.Set("If-None-Match", held.tag)
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
	heldBody := ""
	if held != nil && resp.StatusCode == http.StatusOK {
		heldBody = held.body
	}
	body, err := readBody(resp.Body, resp.ContentLength, heldBody)
	if err != nil {
		return response{status: resp.StatusCode}, err
	}
	out := responseOf(resp.StatusCode, resp.Header, body, member)
	if fwd != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified || resp.StatusCode == http.StatusIMUsed) {
		// Capture the peer's pruned/degraded/stale taxonomy so the
		// forwarding node passes it through instead of erasing it.
		fwd.record(resp.Header)
		out.lease = leaseOf(resp.Header)
	}
	return out, nil
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
//
// held is the body the source holds ("" for none). While what arrives is
// held's prefix — a declared length other than held's rules that out at once
// — it is compared, not copied: a body equal to held is returned as held
// itself, and only the first differing byte copies the prefix read so far
// and goes on as above, in a buffer held's length at least: a changed body
// of unknown length is most likely about as long as the one it replaces.
func readBody(r io.Reader, contentLength int64, held string) (string, error) {
	var b strings.Builder
	size := 0 // the declared length, when it is within the limit
	if 0 < contentLength && contentLength <= maxResponseBytes {
		size = int(contentLength)
	}
	// same is how much of held the body has matched, uncopied; -1 once the
	// body is being copied.
	same := -1
	if held != "" && (contentLength < 0 || contentLength == int64(len(held))) {
		same = 0
	} else {
		b.Grow(size)
	}
	buf := readBufs.Get().(*[32 << 10]byte)
	defer readBufs.Put(buf)
	for read := 0; read <= maxResponseBytes; {
		n, err := r.Read(buf[:min(len(buf), maxResponseBytes+1-read)])
		read += n
		switch chunk := buf[:n]; {
		case same < 0:
			b.Write(chunk)
		case n <= len(held)-same && held[same:same+n] == string(chunk):
			same += n
		default:
			b.Grow(max(size, same+n, len(held)))
			b.WriteString(held[:same])
			b.Write(chunk)
			same = -1
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	switch {
	case same == len(held):
		return held, nil
	case same >= 0: // a prefix of held, and a shorter body
		return strings.Clone(held[:same]), nil
	case b.Len() > maxResponseBytes:
		return "", ErrBodyTooLarge
	}
	return b.String(), nil
}
