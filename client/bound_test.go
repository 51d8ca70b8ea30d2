package client

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"slapcc/api"
	"slapcc/internal/bitmap"
)

// endless is a response body that does not end before endlessCap
// bytes, far past any bound: prefix, then fill repeated; served counts
// the bytes it handed out. The cap keeps an unbounded reader from
// exhausting the test's memory.
type endless struct {
	prefix []byte
	fill   []byte
	served int64
}

const endlessCap = 256 << 20

func (e *endless) Read(p []byte) (int, error) {
	if e.served >= endlessCap {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) {
		if len(e.prefix) > 0 {
			k := copy(p[n:], e.prefix)
			e.prefix = e.prefix[k:]
			n += k
			continue
		}
		n += copy(p[n:], e.fill)
	}
	e.served += int64(n)
	return n, nil
}

func (e *endless) Close() error { return nil }

// TestAnswerBodyBounded: a 200 answer is read only as far as any true
// answer to the request could run — a body that never ends, a frame
// header that claims 4 GiB, a frame whose label count is far beyond the
// asked-for frame's pixels, a declared Content-Length beyond the bound
// — and each fails at once, without a retry, allocating a small bounded
// amount whatever the answer claims.
func TestAnswerBodyBounded(t *testing.T) {
	img := bitmap.New(4, 4).AppendRaw(nil) // 16 pixels asked for
	frameHead := func(header string) []byte {
		b := append([]byte("SLL1\x01"), binary.LittleEndian.AppendUint32(nil, uint32(len(header)))...)
		return append(b, header...)
	}
	lying := append(frameHead(`{"width":32768,"height":32768}`), binary.LittleEndian.AppendUint32(nil, 1<<30)...)
	for _, tc := range []struct {
		name    string
		ct      string
		length  int64 // declared Content-Length, -1 for none
		body    *endless
		wantErr error
	}{
		{"endless JSON", "application/json", -1, &endless{prefix: []byte(`{"error":"`), fill: []byte("a")}, errAnswerTooLarge},
		{"endless frame header", api.ContentTypeLabels, -1, &endless{prefix: []byte("SLL1\x01\xff\xff\xff\xff"), fill: []byte(" ")}, errAnswerTooLarge},
		{"lying label count", api.ContentTypeLabels, -1, &endless{prefix: lying, fill: []byte{0}}, api.ErrLabelsFrame},
		{"declared length beyond the bound", "application/json", 1 << 40, &endless{fill: []byte(" ")}, errAnswerTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
				calls++
				h := http.Header{}
				h.Set("Content-Type", tc.ct)
				if tc.length >= 0 {
					h.Set("Content-Length", strconv.FormatInt(tc.length, 10))
				}
				return &http.Response{StatusCode: http.StatusOK, Header: h, Body: tc.body, ContentLength: tc.length}, nil
			})
			c := New("http://stub", WithHTTPClient(&http.Client{Transport: rt}))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := c.LabelData(context.Background(), img, "", api.Params{WantLabels: true})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err %v, want %v", err, tc.wantErr)
			}
			if calls != 1 {
				t.Fatalf("%d attempts; a bound violation is not retried", calls)
			}
			// The bound for 16 pixels is answerSlack + 384 bytes; the
			// drain after a failure reads at most 1 MiB more.
			if tc.body.served > answerSlack+(1<<20)+(64<<10) {
				t.Fatalf("read %d bytes of the answer", tc.body.served)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
				t.Fatalf("allocated %d bytes answering a 16-pixel request", alloc)
			}
		})
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestAskedPixels: the bound reads the asked-for frame's pixel count
// from the request's header, whatever its width, saturating at the
// int32 label space, and 0 for a body with no readable header.
func TestAskedPixels(t *testing.T) {
	raw := func(w, h uint32) []byte {
		b := binary.LittleEndian.AppendUint32([]byte("SLR1"), w)
		return binary.LittleEndian.AppendUint32(b, h)
	}
	for _, tc := range []struct {
		body []byte
		want int
	}{
		{raw(1<<21, 1), 1 << 21},
		{raw(300, 200), 60000},
		{raw(1<<31, 1<<31), math.MaxInt32},
		{[]byte("not an image header"), 0},
	} {
		if got := askedPixels(api.Params{Format: "raw"}, tc.body, ""); got != tc.want {
			t.Errorf("%q: %d pixels, want %d", tc.body[:4], got, tc.want)
		}
	}
}

// TestMetricsBodyBounded: the exposition is read no further than
// maxMetricsBody.
func TestMetricsBodyBounded(t *testing.T) {
	body := &endless{fill: []byte("# ")}
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: body, ContentLength: -1}, nil
	})
	c := New("http://stub", WithHTTPClient(&http.Client{Transport: rt}))
	if _, err := c.Metrics(context.Background()); !errors.Is(err, errAnswerTooLarge) {
		t.Fatalf("err %v, want %v", err, errAnswerTooLarge)
	}
	if body.served > maxMetricsBody+(1<<20)+(64<<10) {
		t.Fatalf("read %d bytes of the exposition", body.served)
	}
}
