package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slapcc"
	"slapcc/api"
	"slapcc/internal/server"
)

func testServer(t *testing.T, cfg server.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	srv := server.New(cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs, srv
}

// TestClientLabelRoundTrip: a labeled frame through the real handler
// matches the in-process labeling, for the typed image path and the
// pre-encoded data path.
func TestClientLabelRoundTrip(t *testing.T) {
	hs, _ := testServer(t, server.Config{Workers: 2})
	c := New(hs.URL)
	img := slapcc.RandomImage(20, 0.5, 7)
	want, err := slapcc.Label(img)
	if err != nil {
		t.Fatal(err)
	}

	for _, format := range []string{"", "png", "pbm", "art", "raw"} {
		resp, err := c.Label(context.Background(), img, api.Params{Format: format, WantLabels: true})
		if err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		if resp.Components != want.Labels.ComponentCount() {
			t.Fatalf("format %q: %d components, want %d", format, resp.Components, want.Labels.ComponentCount())
		}
		if resp.Metrics.TimeSteps != want.Metrics.Time {
			t.Fatalf("format %q: time %d, want %d", format, resp.Metrics.TimeSteps, want.Metrics.Time)
		}
		for x := 0; x < img.W(); x++ {
			for y := 0; y < img.H(); y++ {
				if resp.Labels[x*img.H()+y] != want.Labels.Get(x, y) {
					t.Fatalf("format %q: label (%d,%d) diverged", format, x, y)
				}
			}
		}
	}

	data, ct, err := EncodeImage(img, "pbm")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.LabelData(context.Background(), data, ct, api.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Components != want.Labels.ComponentCount() {
		t.Fatal("LabelData diverged")
	}
}

// TestClientAggregate: the aggregate endpoint, typed — whole-image,
// strip-mined and pipelined folds match the in-process Aggregate.
func TestClientAggregate(t *testing.T) {
	hs, _ := testServer(t, server.Config{Workers: 2})
	c := New(hs.URL)
	img := slapcc.MustParseImage("##.\n.#.\n..#")

	agg, err := c.Aggregate(context.Background(), img, api.Params{Op: "sum", WantLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Op != "sum" || agg.Components != 2 {
		t.Fatalf("aggregate: %+v", agg)
	}
	// The 3-pixel component folds to area 3 at every one of its pixels.
	if agg.PerPixel[0] != 3 {
		t.Fatalf("per_pixel[0] = %d, want 3", agg.PerPixel[0])
	}

	// Strip-mined aggregation (array=, formerly refused): per-pixel
	// folds pin against the in-process strip-mined Aggregate — and
	// therefore against the whole-image run, which it matches bit for
	// bit. The pipelined schedule and host seam model ride query params.
	large := slapcc.RandomImage(24, 0.5, 9)
	wantLarge, err := slapcc.Aggregate(large, slapcc.OnesOf(large), slapcc.SumOf(), slapcc.Options{ArrayWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	stripAgg, err := c.Aggregate(context.Background(), large, api.Params{Op: "sum", ArrayWidth: 8, WantLabels: true})
	if err != nil {
		t.Fatalf("strip-mined aggregate: %v", err)
	}
	if stripAgg.Metrics.ArrayWidth != 8 || stripAgg.Metrics.TimeSteps != wantLarge.Metrics.Time {
		t.Fatalf("strip-mined aggregate metrics: %+v, want array 8 time %d", stripAgg.Metrics, wantLarge.Metrics.Time)
	}
	for i := range wantLarge.PerPixel {
		if stripAgg.PerPixel[i] != wantLarge.PerPixel[i] {
			t.Fatalf("strip-mined per_pixel[%d] = %d, want %d", i, stripAgg.PerPixel[i], wantLarge.PerPixel[i])
		}
	}
	wantPipe, err := slapcc.Aggregate(large, slapcc.OnesOf(large), slapcc.SumOf(),
		slapcc.Options{ArrayWidth: 8, Seam: slapcc.SeamHost, Schedule: slapcc.SchedulePipelined})
	if err != nil {
		t.Fatal(err)
	}
	pipeAgg, err := c.Aggregate(context.Background(), large, api.Params{Op: "sum", ArrayWidth: 8, Seam: "host", Schedule: "pipelined"})
	if err != nil {
		t.Fatalf("pipelined aggregate: %v", err)
	}
	if pipeAgg.Metrics.TimeSteps != wantPipe.Metrics.Time {
		t.Fatalf("pipelined aggregate time %d, want %d", pipeAgg.Metrics.TimeSteps, wantPipe.Metrics.Time)
	}

}

// TestClientDecodesEitherEncoding: a client asks for the labels frame
// once a server's answer has offered it, and reads an answer the same
// whether it comes as the frame or as JSON, labels and folds included.
// Through a proxy that passes Accept upstream but answers JSON without
// the offer, it never asks for the frame.
func TestClientDecodesEitherEncoding(t *testing.T) {
	hs, _ := testServer(t, server.Config{Workers: 2})
	var proxyAccepts, types []string
	var mu sync.Mutex
	rewriter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		proxyAccepts = append(proxyAccepts, r.Header.Get("Accept"))
		mu.Unlock()
		rec := httptest.NewRecorder()
		hs.Config.Handler.ServeHTTP(rec, r)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("the JSON-only proxy was answered with %q", ct)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(rewriter.Close)
	framed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs.Config.Handler.ServeHTTP(w, r)
		mu.Lock()
		types = append(types, w.Header().Get("Content-Type"))
		mu.Unlock()
	}))
	t.Cleanup(framed.Close)

	img := slapcc.RandomImage(24, 0.5, 5)
	ctx := context.Background()
	viaProxy, direct := New(rewriter.URL), New(framed.URL)
	for _, p := range []api.Params{{WantLabels: true}, {ArrayWidth: 8, WantLabels: true}, {}} {
		fromJSON, err := viaProxy.Label(ctx, img, p)
		if err != nil {
			t.Fatal(err)
		}
		fromFrame, err := direct.Label(ctx, img, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromJSON, fromFrame) {
			t.Fatalf("%+v: JSON answer %+v, frame answer %+v", p, fromJSON, fromFrame)
		}
		p.Op = "min"
		p.Initial = "positions"
		aggJSON, err := viaProxy.Aggregate(ctx, img, p)
		if err != nil {
			t.Fatal(err)
		}
		aggFrame, err := direct.Aggregate(ctx, img, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(aggJSON, aggFrame) {
			t.Fatalf("%+v: JSON answer %+v, frame answer %+v", p, aggJSON, aggFrame)
		}
	}
	for _, a := range proxyAccepts {
		if a != "" {
			t.Fatalf("client sent Accept %q through a proxy that never offered the frame", a)
		}
	}
	// The first answer comes before any offer; every later one is the
	// frame.
	if types[0] != "application/json" {
		t.Fatalf("first answer %q, want JSON", types[0])
	}
	for _, ct := range types[1:] {
		if ct != api.ContentTypeLabels {
			t.Fatalf("server answered a client it had offered the frame with %q", ct)
		}
	}
}

// TestClientRetryOn429: the client sleeps out the Retry-After hint and
// succeeds on a later attempt; with retries exhausted the 429 surfaces
// as a retryable *StatusError.
func TestClientRetryOn429(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"full"}`))
			return
		}
		w.Write([]byte(`{"components":1}`))
	})
	hs := httptest.NewServer(h)
	defer hs.Close()

	c := New(hs.URL, WithMaxRetries(4), WithMaxRetryWait(50*time.Millisecond))
	resp, err := c.LabelData(context.Background(), []byte("#"), "", api.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Components != 1 || calls.Load() != 3 {
		t.Fatalf("resp %+v after %d calls", resp, calls.Load())
	}

	calls.Store(-1000) // force many 429s
	c2 := New(hs.URL, WithMaxRetries(1), WithMaxRetryWait(time.Millisecond))
	_, err = c2.LabelData(context.Background(), []byte("#"), "", api.Params{})
	se, ok := err.(*StatusError)
	if !ok || !se.IsRetryable() {
		t.Fatalf("want retryable StatusError, got %v", err)
	}
}

// TestClientAgainstRealAdmission: with the real server saturated (slots
// held), the client's retry path is driven by a genuine slapd 429 and
// recovers once the slots free up.
func TestClientAgainstRealAdmission(t *testing.T) {
	hs, srv := testServer(t, server.Config{Workers: 1, QueueDepth: 1, RetryAfter: time.Second})
	c := New(hs.URL, WithMaxRetries(6), WithMaxRetryWait(20*time.Millisecond))
	img := slapcc.RandomImage(8, 0.5, 1)

	stop := make(chan struct{})
	go func() {
		// Hold the admission slots briefly, then release.
		srv.HoldAdmissionForTest(stop)
	}()
	time.Sleep(10 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := c.Label(context.Background(), img, api.Params{})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("label through backpressure: %v", err)
	}
}

// TestClientErrorsAndHealth: server errors surface typed; Healthz and
// Metrics work end to end.
func TestClientErrorsAndHealth(t *testing.T) {
	hs, srv := testServer(t, server.Config{Workers: 1})
	c := New(hs.URL)

	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Label(context.Background(), slapcc.RandomImage(4, 0.5, 1), api.Params{Connectivity: 3}); err == nil {
		t.Fatal("conn=3 accepted")
	} else if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest || se.IsRetryable() {
		t.Fatalf("want 400 StatusError, got %v", err)
	}
	if _, _, err := EncodeImage(slapcc.RandomImage(4, 0.5, 1), "jpeg"); err == nil {
		t.Fatal("jpeg encode accepted")
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "slapd_requests_total") {
		t.Fatalf("metrics exposition missing counters:\n%s", m)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(context.Background()); err == nil {
		t.Fatal("healthz healthy while draining")
	}
}
