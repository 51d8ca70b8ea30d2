// Package client is the Go client for the slapd labeling service: a
// thin, connection-reusing wrapper over the api wire contract with
// typed results and automatic retry of transient failures.
//
//	c := client.New("http://localhost:8117")
//	resp, err := c.Label(ctx, img, api.Params{})
//	// resp.Components, resp.Metrics.TimeSteps, …
//
// Params.Cost selects the serving engine: the default metered
// simulator ("unit"/"bitserial") fills resp.Metrics with simulated
// machine time, while "host" answers with the word-parallel host
// engine — identical labels and folds, resp.Metrics all zeros by
// contract (docs/ARCHITECTURE.md, "The engine layer").
//
// Run requests ask for the binary labels frame (api.ContentTypeLabels)
// once the server's last answer offered it (api.HeaderOffer), and
// decode whichever encoding the server answers with, so the typed
// results are the same against a server or proxy that only speaks
// JSON.
//
// One Client is safe for concurrent use and keeps connections alive
// across requests (the load generator drives thousands of frames per
// connection through it). Every POST body is a replayable byte slice
// and labeling is pure, so retrying is always safe; one attempt budget
// (WithMaxRetries) covers both failure families:
//
//   - 429 backpressure: the wait honors the server's Retry-After hint
//     (whole seconds or an HTTP-date; zero, negative, or past values
//     mean "retry now"), capped by WithMaxRetryWait;
//   - transient transport errors — connection refused or reset, broken
//     pipe, a response truncated mid-body (unexpected EOF): the wait
//     follows capped exponential backoff with jitter, so a fleet of
//     clients hammering a restarting backend spreads out instead of
//     thundering back in lockstep.
//
// Context deadlines and cancellation are honored on every attempt and
// every wait. Anything non-transient (4xx, malformed responses)
// surfaces immediately as a *StatusError or decode error.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"slapcc"
	"slapcc/api"
	"slapcc/internal/imageio"
	"slapcc/internal/obs"
)

// Client talks to one slapd instance. Construct with New.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int           // extra attempts after a retryable failure
	maxWait    time.Duration // cap on a single retry wait
	backoff    time.Duration // first transient-error backoff step

	// Injectable clockwork (tests): sleep waits d or until ctx dies,
	// now reads the wall clock (HTTP-date Retry-After), rnd drives the
	// backoff jitter.
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time
	rnd   func() float64

	// frames: the last answer offered the labels frame, so run requests
	// ask for it.
	frames atomic.Bool
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport tuning, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries sets how many times a retryable failure (429 or a
// transient transport error) is retried before giving up (default 4;
// 0 disables retrying — a coordinator that owns its own retry and
// routing policy runs its per-backend clients this way).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithMaxRetryWait caps a single retry wait, whatever its source —
// Retry-After hint or backoff schedule (default 5s).
func WithMaxRetryWait(d time.Duration) Option { return func(c *Client) { c.maxWait = d } }

// WithBackoff sets the first transient-error backoff step; attempt k
// waits ~backoff·2^k with jitter, capped by WithMaxRetryWait (default
// 50ms).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New returns a client for the slapd at baseURL (e.g.
// "http://localhost:8117").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		maxRetries: 4,
		maxWait:    5 * time.Second,
		backoff:    50 * time.Millisecond,
		now:        time.Now,
		rnd:        lockedFloat64(),
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if d <= 0 {
			return ctx.Err()
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64 // the whole point is connection reuse under load
		c.hc = &http.Client{Transport: tr}
	}
	return c
}

// lockedFloat64 returns a concurrency-safe jitter source with its own
// seed (the global rand would contend across clients under load).
func lockedFloat64() func() float64 {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(time.Now().UnixNano()))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return r.Float64()
	}
}

// StatusError is a non-2xx response, carrying the server's error text.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the parsed Retry-After hint of a 429 (zero when
	// absent, unparseable, or already elapsed).
	RetryAfter time.Duration
	// hinted records whether the header was present and parseable, so
	// the retry loop can tell "wait 0, retry now" from "no hint".
	hinted bool
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("slapd: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// IsRetryable reports whether the error is the backpressure signal.
func (e *StatusError) IsRetryable() bool { return e.Code == http.StatusTooManyRequests }

// EncodeImage serializes img for transport. format is one of "png",
// "pbm", "art", "raw", or "" (raw, the densest). The returned content
// type is ready for the request header.
func EncodeImage(img *slapcc.Bitmap, format string) (data []byte, contentType string, err error) {
	f, err := imageio.ParseFormat(format)
	if err != nil {
		return nil, "", err
	}
	if f == imageio.FormatAuto {
		f = imageio.FormatRaw
	}
	data, err = imageio.EncodeBytes(img, f)
	if err != nil {
		return nil, "", err
	}
	return data, f.ContentType(), nil
}

// Label labels img under p, encoding it as p.Format ("" = raw).
func (c *Client) Label(ctx context.Context, img *slapcc.Bitmap, p api.Params) (*api.LabelResponse, error) {
	data, ct, err := EncodeImage(img, p.Format)
	if err != nil {
		return nil, err
	}
	return c.LabelData(ctx, data, ct, p)
}

// LabelData labels an already-encoded image body (contentType may be
// empty; the server sniffs or uses p.Format).
func (c *Client) LabelData(ctx context.Context, data []byte, contentType string, p api.Params) (*api.LabelResponse, error) {
	var out api.LabelResponse
	if err := c.post(ctx, api.PathLabel, p, data, contentType, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Aggregate folds each component of img under p.Op (see api.Params).
func (c *Client) Aggregate(ctx context.Context, img *slapcc.Bitmap, p api.Params) (*api.AggregateResponse, error) {
	data, ct, err := EncodeImage(img, p.Format)
	if err != nil {
		return nil, err
	}
	return c.AggregateData(ctx, data, ct, p)
}

// AggregateData aggregates an already-encoded image body, the
// /v1/aggregate counterpart of LabelData.
func (c *Client) AggregateData(ctx context.Context, data []byte, contentType string, p api.Params) (*api.AggregateResponse, error) {
	var out api.AggregateResponse
	if err := c.post(ctx, api.PathAggregate, p, data, contentType, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz reports nil while the server is healthy.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.Health(ctx)
	return err
}

// Health probes /healthz and returns the server's load report. A
// healthy backend returns (report, nil); a draining one returns its
// report alongside the 503 *StatusError, so a router can still read
// the load figures; a dead one returns (nil, transport error).
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+api.PathHealthz, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var h api.HealthResponse
	decoded := json.Unmarshal(body, &h) == nil && h.Status != ""
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
		var er api.ErrorResponse
		if json.Unmarshal(body, &er) == nil && er.Error != "" {
			se.Msg = er.Error
		}
		if decoded {
			return &h, se
		}
		return nil, se
	}
	if !decoded {
		return nil, fmt.Errorf("client: malformed health body %q", body)
	}
	return &h, nil
}

// maxMetricsBody bounds the Prometheus exposition Metrics reads, far
// above what a server's registry renders.
const maxMetricsBody = 16 << 20

// Metrics fetches the Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+api.PathMetrics, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return "", c.statusError(resp)
	}
	b, err := io.ReadAll(&boundedReader{r: resp.Body, left: maxMetricsBody})
	return string(b), err
}

// post sends one POST with the retry policy of the package comment —
// one attempt budget over 429 backpressure and transient transport
// errors — and decodes the JSON response. The body is a byte slice
// precisely so each retry can replay it.
func (c *Client) post(ctx context.Context, path string, p api.Params, body []byte, contentType string, out any) error {
	url := c.base + path
	if q := p.Query().Encode(); q != "" {
		url += "?" + q
	}
	// One request ID per logical request: retries of the same body reuse
	// it, so the whole attempt chain is one trace. Callers (slapfront)
	// pin their own via api.ContextWithRequestID.
	if api.RequestIDFromContext(ctx) == "" {
		ctx = api.ContextWithRequestID(ctx, api.NewRequestID())
	}
	pixels := askedPixels(p, body, contentType)
	for attempt := 0; ; attempt++ {
		err := c.postOnce(ctx, url, body, contentType, pixels, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || attempt >= c.maxRetries {
			return err
		}
		var wait time.Duration
		var se *StatusError
		switch {
		case errors.As(err, &se):
			if !se.IsRetryable() {
				return err
			}
			wait = se.RetryAfter
			if !se.hinted {
				// No usable hint: a short fixed pause, so a missing
				// header cannot spin-loop.
				wait = 100 * time.Millisecond
			}
		case isTransient(err):
			wait = c.backoffWait(attempt)
		default:
			return err
		}
		if wait > c.maxWait {
			wait = c.maxWait
		}
		if err := c.sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// postOnce performs a single attempt; pixels is the frame's pixel
// count, which bounds the answer (see decodeAnswer). A truncated
// response body surfaces as io.ErrUnexpectedEOF from the decoder, which
// isTransient recognizes — the request is replayable, so the attempt
// loop retries.
func (c *Client) postOnce(ctx context.Context, url string, body []byte, contentType string, pixels int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Ask for the labels frame only from a server that offered it: an
	// intermediary that reads answers as JSON and passes the request's
	// headers through would otherwise be handed a frame.
	if c.frames.Load() {
		req.Header.Set("Accept", acceptAnswer)
	}
	if id := api.RequestIDFromContext(ctx); id != "" {
		req.Header.Set(api.HeaderRequestID, id)
	}
	// Stamp the remaining budget at send time, so each attempt (and each
	// tier) sees what is actually left rather than the original budget.
	if deadline, ok := ctx.Deadline(); ok {
		req.Header.Set(api.HeaderDeadlineMS, api.FormatDeadline(deadline.Sub(c.now())))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		defer drain(resp)
		return c.statusError(resp)
	}
	err = decodeAnswer(resp, pixels, out)
	drain(resp)
	if err == nil {
		c.frames.Store(resp.Header.Get(api.HeaderOffer) == api.ContentTypeLabels)
		// Graft the server's stage breakdown into the caller's trace (a
		// no-op when the context carries none): a traced caller sees one
		// tree spanning both tiers. Only the successful attempt grafts,
		// so retries never double-report.
		if st := resp.Header.Get("Server-Timing"); st != "" {
			obs.FromContext(ctx).Graft(obs.ParseServerTiming(st))
		}
	}
	return err
}

// acceptAnswer is the Accept header of a run request to a server that
// offers the labels frame: the frame first, JSON as the fallback.
const acceptAnswer = api.ContentTypeLabels + ", application/json"

// answerSlack is what an answer may carry beyond its per-pixel arrays:
// the summary, metrics and union–find report, with room to spare.
const answerSlack = 1 << 20

// errAnswerTooLarge reports a 200 answer longer than any true answer to
// the request; the server is misbehaving, so it is not retried.
var errAnswerTooLarge = errors.New("client: answer body exceeds its bound")

// askedPixels is the pixel count of the frame a request body carries,
// read from its header under the format the server will decode it as
// (Params.Format, else the Content-Type, else sniffed); 0 when no header
// reads, and at most the int32 label space.
func askedPixels(p api.Params, body []byte, contentType string) int {
	format, err := imageio.ParseFormat(p.Format)
	if err != nil {
		return 0
	}
	if format == imageio.FormatAuto {
		format = imageio.FormatFromContentType(contentType)
	}
	w, h, ok := imageio.Dims(body, format)
	if !ok || w < 0 || h < 0 {
		return 0
	}
	if h > 0 && w > math.MaxInt32/h {
		return math.MaxInt32
	}
	return w * h
}

// decodeAnswer decodes a 200 answer to a request for a frame of pixels
// pixels into out by its Content-Type: a labels frame read as it
// arrives (a body cut short fails with io.ErrUnexpectedEOF, as JSON
// decoding's does), JSON otherwise. Both are bounded by what was
// asked: a labels or fold array longer than pixels is rejected before
// it is allocated, and the body may run to answerSlack plus 24 bytes a
// pixel (two JSON int32 arrays), beyond which errAnswerTooLarge ends
// the read.
func decodeAnswer(resp *http.Response, pixels int, out any) error {
	limit := answerSlack + 24*int64(pixels)
	if resp.ContentLength > limit {
		return fmt.Errorf("%w: %d bytes declared, bound %d", errAnswerTooLarge, resp.ContentLength, limit)
	}
	body := &boundedReader{r: resp.Body, left: limit}
	if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt == api.ContentTypeLabels {
		return api.ReadLabelsFrame(body, out, pixels)
	}
	return json.NewDecoder(body).Decode(out)
}

// boundedReader reads r up to left more bytes and fails with
// errAnswerTooLarge on the first byte beyond them.
type boundedReader struct {
	r    io.Reader
	left int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if int64(len(p)) > b.left+1 {
		p = p[:b.left+1]
	}
	n, err := b.r.Read(p)
	if int64(n) > b.left {
		n = int(b.left)
		b.left = 0
		return n, errAnswerTooLarge
	}
	b.left -= int64(n)
	return n, err
}

// backoffWait is attempt k's capped exponential backoff with jitter:
// uniformly within [half, full] of backoff·2^k, capped by maxWait —
// enough spread that restarting fleets don't retry in lockstep, never
// less than half the nominal step.
func (c *Client) backoffWait(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20 // past any realistic budget; avoids shift overflow
	}
	d := c.backoff << uint(attempt)
	if d <= 0 || d > c.maxWait {
		d = c.maxWait
	}
	half := d / 2
	return half + time.Duration(c.rnd()*float64(half))
}

// isTransient reports whether err is a failure worth replaying the
// request over: the connection never opened (refused), died under us
// (reset, broken pipe, EOF mid-exchange), or the body arrived
// truncated. Context cancellation is never transient.
func isTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF)
}

// parseRetryAfter interprets a Retry-After header: whole seconds or an
// HTTP-date. Zero, negative, and past values parse to 0 ("retry now");
// ok is false when the header is absent or unparseable.
func parseRetryAfter(h string, now time.Time) (wait time.Duration, ok bool) {
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// statusError builds a *StatusError from a non-2xx response, preferring
// the JSON error body and carrying any Retry-After hint.
func (c *Client) statusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	se := &StatusError{Code: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	var er api.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		se.Msg = er.Error
	}
	se.RetryAfter, se.hinted = parseRetryAfter(resp.Header.Get("Retry-After"), c.now())
	return se
}

// drain discards the rest of the body so the connection is reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
