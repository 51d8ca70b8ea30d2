package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"slapcc/api"
)

// scriptRT is an http.RoundTripper that replays a fixed script: each
// step either errors (transport failure) or answers. It counts the
// attempts the client actually made.
type scriptRT struct {
	steps []scriptStep
	calls int
}

type scriptStep struct {
	err    error
	status int
	header http.Header
	body   string
}

func (rt *scriptRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.calls >= len(rt.steps) {
		return nil, errors.New("script exhausted")
	}
	st := rt.steps[rt.calls]
	rt.calls++
	if st.err != nil {
		return nil, st.err
	}
	h := st.header
	if h == nil {
		h = http.Header{}
	}
	return &http.Response{
		StatusCode: st.status,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(st.body)),
	}, nil
}

func ok(body string) scriptStep { return scriptStep{status: http.StatusOK, body: body} }

func tooMany(retryAfter string) scriptStep {
	h := http.Header{}
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	return scriptStep{status: http.StatusTooManyRequests, header: h, body: `{"error":"queue full"}`}
}

// framed answers 200 with body as a labels frame.
func framed(body string) scriptStep {
	h := http.Header{}
	h.Set("Content-Type", api.ContentTypeLabels)
	return scriptStep{status: http.StatusOK, header: h, body: body}
}

// halfFrame is the first half of a 4×4 answer's labels frame.
func halfFrame() string {
	frame, err := api.NewLabelsFrame(&api.LabelResponse{Width: 4, Height: 4, Labels: make([]int32, 16)})
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	frame.WriteTo(&b)
	return b.String()[:b.Len()/2]
}

// stubClient wires a Client to the script with a recording stub clock:
// sleeps are captured, never slept; now is frozen; jitter is zero, so
// backoff waits are exactly half the nominal step.
func stubClient(rt *scriptRT, opts ...Option) (*Client, *[]time.Duration) {
	waits := &[]time.Duration{}
	c := New("http://stub", append([]Option{WithHTTPClient(&http.Client{Transport: rt})}, opts...)...)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		*waits = append(*waits, d)
		return nil
	}
	c.now = func() time.Time { return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC) }
	c.rnd = func() float64 { return 0 }
	return c, waits
}

func postStub(t *testing.T, c *Client, ctx context.Context) error {
	t.Helper()
	var out api.LabelResponse
	return c.post(ctx, api.PathLabel, api.Params{}, []byte("body"), "application/octet-stream", &out)
}

// TestRetrySchedule table-tests the whole retry/backoff schedule under
// a stub clock: which failures are retried, how long each wait is, and
// when the budget or the error class stops the loop.
func TestRetrySchedule(t *testing.T) {
	httpDate := func(at time.Time) string { return at.UTC().Format(http.TimeFormat) }
	frozen := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

	cases := []struct {
		name      string
		steps     []scriptStep
		opts      []Option
		wantErr   bool
		wantCalls int
		wantWaits []time.Duration
	}{
		{
			name:      "429 honors Retry-After seconds",
			steps:     []scriptStep{tooMany("3"), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{3 * time.Second},
		},
		{
			name:      "429 missing header defaults to a short pause",
			steps:     []scriptStep{tooMany(""), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{100 * time.Millisecond},
		},
		{
			name:      "429 zero seconds means retry now",
			steps:     []scriptStep{tooMany("0"), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{0},
		},
		{
			name:      "429 negative seconds means retry now",
			steps:     []scriptStep{tooMany("-7"), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{0},
		},
		{
			name:      "429 HTTP-date waits until the date",
			steps:     []scriptStep{tooMany(httpDate(frozen.Add(2 * time.Second))), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{2 * time.Second},
		},
		{
			name:      "429 HTTP-date in the past means retry now",
			steps:     []scriptStep{tooMany(httpDate(frozen.Add(-time.Minute))), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{0},
		},
		{
			name:      "429 unparseable header falls back to the default pause",
			steps:     []scriptStep{tooMany("soon"), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{100 * time.Millisecond},
		},
		{
			name:      "Retry-After capped by WithMaxRetryWait",
			steps:     []scriptStep{tooMany("3600"), ok("{}")},
			opts:      []Option{WithMaxRetryWait(2 * time.Second)},
			wantCalls: 2,
			wantWaits: []time.Duration{2 * time.Second},
		},
		{
			name: "connection refused backs off exponentially",
			steps: []scriptStep{
				{err: syscall.ECONNREFUSED},
				{err: syscall.ECONNREFUSED},
				ok("{}"),
			},
			opts:      []Option{WithBackoff(40 * time.Millisecond)},
			wantCalls: 3,
			// zero jitter → exactly half of 40ms, then half of 80ms
			wantWaits: []time.Duration{20 * time.Millisecond, 40 * time.Millisecond},
		},
		{
			name:      "connection reset retried",
			steps:     []scriptStep{{err: syscall.ECONNRESET}, ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{25 * time.Millisecond},
		},
		{
			name:      "truncated response body retried",
			steps:     []scriptStep{ok(`{"width":`), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{25 * time.Millisecond},
		},
		{
			// A labels frame cut short (the chaos Truncate fault: the
			// full Content-Length advertised, half the body sent) is a
			// truncated transfer like a cut JSON body.
			name:      "truncated labels frame retried",
			steps:     []scriptStep{framed(halfFrame()), ok("{}")},
			wantCalls: 2,
			wantWaits: []time.Duration{25 * time.Millisecond},
		},
		{
			name:      "backoff capped by WithMaxRetryWait",
			steps:     []scriptStep{{err: syscall.ECONNREFUSED}, ok("{}")},
			opts:      []Option{WithBackoff(time.Minute), WithMaxRetryWait(time.Second)},
			wantCalls: 2,
			wantWaits: []time.Duration{500 * time.Millisecond},
		},
		{
			name: "budget exhausted surfaces the last error",
			steps: []scriptStep{
				{err: syscall.ECONNREFUSED}, {err: syscall.ECONNREFUSED}, {err: syscall.ECONNREFUSED},
			},
			opts:      []Option{WithMaxRetries(2)},
			wantErr:   true,
			wantCalls: 3,
			wantWaits: []time.Duration{25 * time.Millisecond, 50 * time.Millisecond},
		},
		{
			name:      "4xx never retried",
			steps:     []scriptStep{{status: http.StatusBadRequest, body: `{"error":"bad conn"}`}},
			wantErr:   true,
			wantCalls: 1,
			wantWaits: []time.Duration{},
		},
		{
			name:      "retries disabled surfaces the first 429",
			steps:     []scriptStep{tooMany("1")},
			opts:      []Option{WithMaxRetries(0)},
			wantErr:   true,
			wantCalls: 1,
			wantWaits: []time.Duration{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := &scriptRT{steps: tc.steps}
			c, waits := stubClient(rt, tc.opts...)
			err := postStub(t, c, context.Background())
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if rt.calls != tc.wantCalls {
				t.Fatalf("attempts = %d, want %d", rt.calls, tc.wantCalls)
			}
			if len(*waits) != len(tc.wantWaits) {
				t.Fatalf("waits = %v, want %v", *waits, tc.wantWaits)
			}
			for i, w := range tc.wantWaits {
				if (*waits)[i] != w {
					t.Fatalf("wait[%d] = %v, want %v (all %v)", i, (*waits)[i], w, *waits)
				}
			}
		})
	}
}

// TestRetryHonorsContext: a context that dies during the retry wait —
// or before the attempt — stops the loop with the context's error
// instead of burning the rest of the budget.
func TestRetryHonorsContext(t *testing.T) {
	rt := &scriptRT{steps: []scriptStep{tooMany("5"), ok("{}")}}
	c, _ := stubClient(rt)
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the deadline passes while we wait
		return ctx.Err()
	}
	err := postStub(t, c, ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rt.calls != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry after cancellation)", rt.calls)
	}

	// Already-dead context: the transport error from the cancelled
	// request surfaces without any retry.
	rt = &scriptRT{steps: []scriptStep{{err: syscall.ECONNREFUSED}, ok("{}")}}
	c, waits := stubClient(rt)
	dead, kill := context.WithCancel(context.Background())
	kill()
	if err := postStub(t, c, dead); err == nil {
		t.Fatal("post with dead context succeeded")
	}
	if len(*waits) != 0 {
		t.Fatalf("slept %v under a dead context", *waits)
	}
}

// TestStatusErrorCarriesRetryAfter: the parsed hint rides the typed
// error, so callers owning their own retry policy (the coordinator)
// see what the server asked for.
func TestStatusErrorCarriesRetryAfter(t *testing.T) {
	rt := &scriptRT{steps: []scriptStep{tooMany("7")}}
	c, _ := stubClient(rt, WithMaxRetries(0))
	err := postStub(t, c, context.Background())
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *StatusError", err, err)
	}
	if !se.IsRetryable() || se.RetryAfter != 7*time.Second {
		t.Fatalf("StatusError = %+v, want retryable with 7s hint", se)
	}
}

// TestParseRetryAfter pins the header grammar edge cases directly.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in     string
		want   time.Duration
		wantOK bool
	}{
		{"", 0, false},
		{"5", 5 * time.Second, true},
		{"0", 0, true},
		{"-3", 0, true},
		{now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, true},
		{"garbage", 0, false},
		{"1.5", 0, false}, // fractional seconds are not in the grammar
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in, now)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.wantOK)
		}
	}
}
