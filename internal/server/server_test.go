package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/imageio"
)

func postImage(t *testing.T, h http.Handler, path string, img *bitmap.Bitmap, f imageio.Format, p api.Params) *httptest.ResponseRecorder {
	t.Helper()
	p.Format = string(f)
	data, err := imageio.EncodeBytes(img, f)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path+"?"+p.Query().Encode(), bytes.NewReader(data))
	req.Header.Set("Content-Type", f.ContentType())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeJSON[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON (%s): %v", rec.Body.String(), err)
	}
	return v
}

func wantLabels(t *testing.T, img *bitmap.Bitmap, opt core.Options) []int32 {
	t.Helper()
	res, err := core.Label(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, 0, img.W()*img.H())
	for x := 0; x < img.W(); x++ {
		labels = append(labels, res.Labels.ColumnSlice(x)...)
	}
	return labels
}

// TestLabelEndpointAllFormats: every codec round-trips through
// POST /v1/label, and the returned labels are bit-identical to the
// in-process Label of the same frame.
func TestLabelEndpointAllFormats(t *testing.T) {
	s := New(Config{Workers: 2})
	img := bitmap.Random(24, 0.5, 11)
	want := wantLabels(t, img, core.Options{})
	for _, f := range imageio.Formats() {
		rec := postImage(t, s, api.PathLabel, img, f, api.Params{WantLabels: true})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", f, rec.Code, rec.Body.String())
		}
		resp := decodeJSON[api.LabelResponse](t, rec)
		if resp.Width != 24 || resp.Height != 24 {
			t.Fatalf("%s: got %dx%d", f, resp.Width, resp.Height)
		}
		if len(resp.Labels) != len(want) {
			t.Fatalf("%s: %d labels, want %d", f, len(resp.Labels), len(want))
		}
		for i := range want {
			if resp.Labels[i] != want[i] {
				t.Fatalf("%s: label[%d] = %d, want %d", f, i, resp.Labels[i], want[i])
			}
		}
		if resp.Metrics.TimeSteps <= 0 || resp.Metrics.ArrayWidth != 24 {
			t.Fatalf("%s: suspicious metrics %+v", f, resp.Metrics)
		}
	}
}

// TestLabelEndpointParams: per-request connectivity, UF, bit-serial
// cost, and strip-mining all flow through to the core and match the
// equivalent in-process run.
func TestLabelEndpointParams(t *testing.T) {
	s := New(Config{Workers: 1})
	img := bitmap.Random(40, 0.4, 3)
	cases := []struct {
		name string
		p    api.Params
		opt  core.Options
	}{
		{"conn8", api.Params{Connectivity: 8}, core.Options{Connectivity: bitmap.Conn8}},
		{"blum", api.Params{UF: "blum"}, core.Options{UF: "blum"}},
		{"strip", api.Params{ArrayWidth: 16}, core.Options{ArrayWidth: 16}},
	}
	for _, tc := range cases {
		want, err := core.Label(img, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		tc.p.WantLabels = true
		rec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, tc.p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", tc.name, rec.Code, rec.Body.String())
		}
		resp := decodeJSON[api.LabelResponse](t, rec)
		if resp.Metrics.TimeSteps != want.Metrics.Time {
			t.Fatalf("%s: time %d, want %d", tc.name, resp.Metrics.TimeSteps, want.Metrics.Time)
		}
		if resp.UF.Kind != string(want.UF.Kind) || resp.UF.TotalSteps != want.UF.TotalSteps {
			t.Fatalf("%s: UF %+v, want %+v", tc.name, resp.UF, want.UF)
		}
	}

	// bitserial charges more simulated time than unit cost.
	unit := decodeJSON[api.LabelResponse](t, postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{}))
	bs := decodeJSON[api.LabelResponse](t, postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{Cost: "bitserial"}))
	if bs.Metrics.TimeSteps <= unit.Metrics.TimeSteps {
		t.Fatalf("bitserial %d not slower than unit %d", bs.Metrics.TimeSteps, unit.Metrics.TimeSteps)
	}
}

// TestLabelEndpointErrors: the error taxonomy — bad params 400, junk
// bodies 400, over-limit images 413, oversized bodies 413, wrong
// method 405.
func TestLabelEndpointErrors(t *testing.T) {
	s := New(Config{Workers: 1, Limits: imageio.Limits{MaxWidth: 16, MaxHeight: 16}, MaxBodyBytes: 2048})
	img := bitmap.Random(8, 0.5, 1)

	if rec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{Connectivity: 5}); rec.Code != http.StatusBadRequest {
		t.Fatalf("conn=5: %d", rec.Code)
	}
	if rec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{UF: "nope"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("uf=nope: %d", rec.Code)
	}
	if rec := postImage(t, s, api.PathLabel, bitmap.Random(32, 0.5, 2), imageio.FormatRaw, api.Params{}); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit image: %d", rec.Code)
	}
	// A PBM header alone declares an over-limit image: refused from the
	// header, before any raster exists.
	req := httptest.NewRequest(http.MethodPost, api.PathLabel, strings.NewReader("P1 1048576 128 "))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit PBM header: %d: %s", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest(http.MethodPost, api.PathLabel, bytes.NewReader(make([]byte, 4096)))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d: %s", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest(http.MethodGet, api.PathLabel, nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET label: %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, api.PathLabel, strings.NewReader("#@!\x00"))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("junk body: %d", rec.Code)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("error body not JSON: %s", rec.Body.String())
	}
}

// TestAggregateEndpoint: sum-over-ones equals component areas from the
// in-process Aggregate, for whole-image and strip-mined (array=) runs
// alike.
func TestAggregateEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	img := bitmap.MustParse("##.\n.#.\n..#")
	want, err := core.Aggregate(img, core.Ones(img), core.Sum(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := postImage(t, s, api.PathAggregate, img, imageio.FormatArt, api.Params{Op: "sum", WantLabels: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeJSON[api.AggregateResponse](t, rec)
	if resp.Op != "sum" {
		t.Fatalf("op = %q", resp.Op)
	}
	for i := range want.PerPixel {
		if resp.PerPixel[i] != want.PerPixel[i] {
			t.Fatalf("per_pixel[%d] = %d, want %d", i, resp.PerPixel[i], want.PerPixel[i])
		}
	}

	// array= strip-mines the aggregation (the PR 4 refusal is gone): the
	// per-pixel folds and labels must pin against the in-process
	// strip-mined Aggregate, whose values equal the whole-image run's.
	wantStrip, err := core.Aggregate(img, core.Ones(img), core.Sum(), core.Options{ArrayWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec = postImage(t, s, api.PathAggregate, img, imageio.FormatArt, api.Params{Op: "sum", ArrayWidth: 2, WantLabels: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("strip-mined aggregate: %d: %s", rec.Code, rec.Body.String())
	}
	sresp := decodeJSON[api.AggregateResponse](t, rec)
	if sresp.Metrics.ArrayWidth != 2 || sresp.Metrics.TimeSteps != wantStrip.Metrics.Time {
		t.Fatalf("strip-mined metrics: array %d time %d, want array 2 time %d",
			sresp.Metrics.ArrayWidth, sresp.Metrics.TimeSteps, wantStrip.Metrics.Time)
	}
	for i := range wantStrip.PerPixel {
		if sresp.PerPixel[i] != wantStrip.PerPixel[i] {
			t.Fatalf("strip-mined per_pixel[%d] = %d, want %d", i, sresp.PerPixel[i], wantStrip.PerPixel[i])
		}
		if sresp.PerPixel[i] != want.PerPixel[i] {
			t.Fatalf("strip-mined per_pixel[%d] = %d diverges from whole-image %d", i, sresp.PerPixel[i], want.PerPixel[i])
		}
	}

	if rec := postImage(t, s, api.PathAggregate, img, imageio.FormatArt, api.Params{Op: "median"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad op: %d", rec.Code)
	}
}

// TestSeamScheduleParams: seam= and schedule= select the strip models
// per request — pinned against the in-process runs — and unknown values
// are 400s.
func TestSeamScheduleParams(t *testing.T) {
	s := New(Config{Workers: 1})
	img := bitmap.Random(24, 0.5, 11)
	for _, tc := range []struct {
		p   api.Params
		opt core.Options
	}{
		{api.Params{ArrayWidth: 8, Seam: "host"}, core.Options{ArrayWidth: 8, Seam: core.SeamHost}},
		{api.Params{ArrayWidth: 8, Schedule: "pipelined"}, core.Options{ArrayWidth: 8, Schedule: core.SchedulePipelined}},
		{api.Params{ArrayWidth: 8, Seam: "distributed", Schedule: "sequential"}, core.Options{ArrayWidth: 8}},
	} {
		want, err := core.Label(img, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		rec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, tc.p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%+v: %d: %s", tc.p, rec.Code, rec.Body.String())
		}
		resp := decodeJSON[api.LabelResponse](t, rec)
		if resp.Metrics.TimeSteps != want.Metrics.Time {
			t.Errorf("%+v: time %d, want %d", tc.p, resp.Metrics.TimeSteps, want.Metrics.Time)
		}
	}
	for _, p := range []api.Params{{Seam: "psychic"}, {Schedule: "asap"}} {
		rec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, p)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%+v accepted: %d", p, rec.Code)
		}
	}
}

// TestAdmissionControl pins the full/empty transition deterministically
// by filling the admission semaphore directly: at capacity every POST
// sheds with 429 + Retry-After and counts in slapd_rejected_total; one
// released slot readmits.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	if s.AdmissionCapacity() != 2 {
		t.Fatalf("capacity %d, want 2", s.AdmissionCapacity())
	}
	img := bitmap.Random(8, 0.5, 1)

	for i := 0; i < s.AdmissionCapacity(); i++ {
		s.sem <- struct{}{}
	}
	rec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("at capacity: %d", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	<-s.sem
	rec = postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{})
	if rec.Code != http.StatusOK {
		t.Fatalf("after release: %d: %s", rec.Code, rec.Body.String())
	}
	var metrics bytes.Buffer
	s.reg.render(&metrics, gauges{})
	if !strings.Contains(metrics.String(), "slapd_rejected_total 1") {
		t.Fatal("rejection not counted")
	}
}

// TestConcurrentClientsAndDrain is the race-detector workout: many
// concurrent clients across the label and aggregate endpoints, a drain racing
// the tail of the load, every admitted request completing exactly once
// (200 or 429, nothing else), and post-drain requests refused with 503.
func TestConcurrentClientsAndDrain(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 3})
	const clients = 8
	frames := make([]*bitmap.Bitmap, clients)
	for i := range frames {
		frames[i] = bitmap.Random(16+i, 0.5, uint64(i+1))
	}
	var wg sync.WaitGroup
	codes := make(chan int, clients*8)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				if c%3 == 0 {
					rec := postImage(t, s, api.PathAggregate, frames[c], imageio.FormatPBM, api.Params{Op: "sum"})
					codes <- rec.Code
				} else {
					rec := postImage(t, s, api.PathLabel, frames[c], imageio.FormatRaw, api.Params{WantLabels: c%2 == 0})
					codes <- rec.Code
				}
			}
		}(c)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d under concurrent load", code)
		}
	}

	// Drain while one request is in flight: it must complete, the drain
	// must wait for it, and later requests must see 503.
	release := make(chan struct{})
	inflight := make(chan struct{})
	slow := bitmap.Random(64, 0.5, 99)
	var slowCode int
	var slowWG sync.WaitGroup
	slowWG.Add(1)
	go func() {
		defer slowWG.Done()
		// Hold an admission slot open across the drain by pausing inside
		// the handler via the pool: simplest is a request large enough to
		// still be running when Shutdown fires — gate on inflight instead.
		close(inflight)
		rec := postImage(t, s, api.PathLabel, slow, imageio.FormatRaw, api.Params{})
		slowCode = rec.Code
		close(release)
	}()
	<-inflight
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-release
	if slowCode != http.StatusOK && slowCode != http.StatusServiceUnavailable {
		t.Fatalf("racing request status %d", slowCode)
	}
	rec := postImage(t, s, api.PathLabel, slow, imageio.FormatRaw, api.Params{})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain POST: %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, api.PathHealthz, nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: %d", hrec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestBatchPathGone: the multipart batch endpoint was retired, so its
// old path is no longer routed and a POST there answers 404.
func TestBatchPathGone(t *testing.T) {
	s := New(Config{Workers: 1})
	req := httptest.NewRequest(http.MethodPost, "/v1/label/batch", strings.NewReader("--x--"))
	req.Header.Set("Content-Type", "multipart/form-data; boundary=x")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/label/batch: %d, want 404", rec.Code)
	}
}

// TestShutdownHonorsContext: a drain blocked by a stuck request returns
// the context error instead of hanging.
func TestShutdownHonorsContext(t *testing.T) {
	s := New(Config{Workers: 1})
	s.mu.Lock()
	s.inflight = 1 // simulate a wedged request
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned with a request still in flight")
	}
	s.mu.Lock()
	s.inflight = 0
	s.mu.Unlock()
	s.idle.Broadcast()
}

// TestMetricsGolden pins the full /metrics exposition after a known
// request sequence under a stub clock: the format is part of the API
// surface operators scrape, so a change here is a reviewed diff.
func TestMetricsGolden(t *testing.T) {
	tick := time.Unix(1700000000, 0)
	s := New(Config{Workers: 2, QueueDepth: 2, Now: func() time.Time {
		tick = tick.Add(250 * time.Millisecond)
		return tick
	}})

	img := bitmap.MustParse("##\n.#")
	if rec := postImage(t, s, api.PathLabel, img, imageio.FormatArt, api.Params{}); rec.Code != http.StatusOK {
		t.Fatalf("label: %d", rec.Code)
	}
	if rec := postImage(t, s, api.PathLabel, img, imageio.FormatArt, api.Params{Connectivity: 5}); rec.Code != http.StatusBadRequest {
		t.Fatal("bad conn accepted")
	}
	hreq := httptest.NewRequest(http.MethodGet, api.PathHealthz, nil)
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", hrec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, api.PathMetrics, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	const golden = `# HELP slapd_requests_total HTTP requests completed, by endpoint and status code.
# TYPE slapd_requests_total counter
slapd_requests_total{endpoint="healthz",code="200"} 1
slapd_requests_total{endpoint="label",code="200"} 1
slapd_requests_total{endpoint="label",code="400"} 1
# HELP slapd_request_seconds Wall time of completed requests, by endpoint.
# TYPE slapd_request_seconds histogram
slapd_request_seconds_bucket{endpoint="healthz",le="0.001"} 0
slapd_request_seconds_bucket{endpoint="healthz",le="0.0025"} 0
slapd_request_seconds_bucket{endpoint="healthz",le="0.005"} 0
slapd_request_seconds_bucket{endpoint="healthz",le="0.01"} 0
slapd_request_seconds_bucket{endpoint="healthz",le="0.025"} 0
slapd_request_seconds_bucket{endpoint="healthz",le="0.05"} 0
slapd_request_seconds_bucket{endpoint="healthz",le="0.1"} 0
slapd_request_seconds_bucket{endpoint="healthz",le="0.25"} 1
slapd_request_seconds_bucket{endpoint="healthz",le="0.5"} 1
slapd_request_seconds_bucket{endpoint="healthz",le="1"} 1
slapd_request_seconds_bucket{endpoint="healthz",le="2.5"} 1
slapd_request_seconds_bucket{endpoint="healthz",le="5"} 1
slapd_request_seconds_bucket{endpoint="healthz",le="10"} 1
slapd_request_seconds_bucket{endpoint="healthz",le="+Inf"} 1
slapd_request_seconds_sum{endpoint="healthz"} 0.25
slapd_request_seconds_count{endpoint="healthz"} 1
slapd_request_seconds_bucket{endpoint="label",le="0.001"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.0025"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.005"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.01"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.025"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.05"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.1"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.25"} 0
slapd_request_seconds_bucket{endpoint="label",le="0.5"} 0
slapd_request_seconds_bucket{endpoint="label",le="1"} 0
slapd_request_seconds_bucket{endpoint="label",le="2.5"} 0
slapd_request_seconds_bucket{endpoint="label",le="5"} 1
slapd_request_seconds_bucket{endpoint="label",le="10"} 2
slapd_request_seconds_bucket{endpoint="label",le="+Inf"} 2
slapd_request_seconds_sum{endpoint="label"} 8.5
slapd_request_seconds_count{endpoint="label"} 2
# HELP slapd_stage_seconds Wall time of request stages (top-level trace spans), by stage.
# TYPE slapd_stage_seconds histogram
slapd_stage_seconds_bucket{stage="decode",le="0.001"} 0
slapd_stage_seconds_bucket{stage="decode",le="0.0025"} 0
slapd_stage_seconds_bucket{stage="decode",le="0.005"} 0
slapd_stage_seconds_bucket{stage="decode",le="0.01"} 0
slapd_stage_seconds_bucket{stage="decode",le="0.025"} 0
slapd_stage_seconds_bucket{stage="decode",le="0.05"} 0
slapd_stage_seconds_bucket{stage="decode",le="0.1"} 0
slapd_stage_seconds_bucket{stage="decode",le="0.25"} 2
slapd_stage_seconds_bucket{stage="decode",le="0.5"} 2
slapd_stage_seconds_bucket{stage="decode",le="1"} 2
slapd_stage_seconds_bucket{stage="decode",le="2.5"} 2
slapd_stage_seconds_bucket{stage="decode",le="5"} 2
slapd_stage_seconds_bucket{stage="decode",le="10"} 2
slapd_stage_seconds_bucket{stage="decode",le="+Inf"} 2
slapd_stage_seconds_sum{stage="decode"} 0.5
slapd_stage_seconds_count{stage="decode"} 2
slapd_stage_seconds_bucket{stage="encode",le="0.001"} 0
slapd_stage_seconds_bucket{stage="encode",le="0.0025"} 0
slapd_stage_seconds_bucket{stage="encode",le="0.005"} 0
slapd_stage_seconds_bucket{stage="encode",le="0.01"} 0
slapd_stage_seconds_bucket{stage="encode",le="0.025"} 0
slapd_stage_seconds_bucket{stage="encode",le="0.05"} 0
slapd_stage_seconds_bucket{stage="encode",le="0.1"} 0
slapd_stage_seconds_bucket{stage="encode",le="0.25"} 1
slapd_stage_seconds_bucket{stage="encode",le="0.5"} 1
slapd_stage_seconds_bucket{stage="encode",le="1"} 1
slapd_stage_seconds_bucket{stage="encode",le="2.5"} 1
slapd_stage_seconds_bucket{stage="encode",le="5"} 1
slapd_stage_seconds_bucket{stage="encode",le="10"} 1
slapd_stage_seconds_bucket{stage="encode",le="+Inf"} 1
slapd_stage_seconds_sum{stage="encode"} 0.25
slapd_stage_seconds_count{stage="encode"} 1
slapd_stage_seconds_bucket{stage="label",le="0.001"} 0
slapd_stage_seconds_bucket{stage="label",le="0.0025"} 0
slapd_stage_seconds_bucket{stage="label",le="0.005"} 0
slapd_stage_seconds_bucket{stage="label",le="0.01"} 0
slapd_stage_seconds_bucket{stage="label",le="0.025"} 0
slapd_stage_seconds_bucket{stage="label",le="0.05"} 0
slapd_stage_seconds_bucket{stage="label",le="0.1"} 0
slapd_stage_seconds_bucket{stage="label",le="0.25"} 0
slapd_stage_seconds_bucket{stage="label",le="0.5"} 0
slapd_stage_seconds_bucket{stage="label",le="1"} 1
slapd_stage_seconds_bucket{stage="label",le="2.5"} 1
slapd_stage_seconds_bucket{stage="label",le="5"} 1
slapd_stage_seconds_bucket{stage="label",le="10"} 1
slapd_stage_seconds_bucket{stage="label",le="+Inf"} 1
slapd_stage_seconds_sum{stage="label"} 0.75
slapd_stage_seconds_count{stage="label"} 1
slapd_stage_seconds_bucket{stage="queue",le="0.001"} 0
slapd_stage_seconds_bucket{stage="queue",le="0.0025"} 0
slapd_stage_seconds_bucket{stage="queue",le="0.005"} 0
slapd_stage_seconds_bucket{stage="queue",le="0.01"} 0
slapd_stage_seconds_bucket{stage="queue",le="0.025"} 0
slapd_stage_seconds_bucket{stage="queue",le="0.05"} 0
slapd_stage_seconds_bucket{stage="queue",le="0.1"} 0
slapd_stage_seconds_bucket{stage="queue",le="0.25"} 2
slapd_stage_seconds_bucket{stage="queue",le="0.5"} 2
slapd_stage_seconds_bucket{stage="queue",le="1"} 2
slapd_stage_seconds_bucket{stage="queue",le="2.5"} 2
slapd_stage_seconds_bucket{stage="queue",le="5"} 2
slapd_stage_seconds_bucket{stage="queue",le="10"} 2
slapd_stage_seconds_bucket{stage="queue",le="+Inf"} 2
slapd_stage_seconds_sum{stage="queue"} 0.5
slapd_stage_seconds_count{stage="queue"} 2
# HELP slapd_frames_labeled_total Frames labeled, one per successful label or aggregate request.
# TYPE slapd_frames_labeled_total counter
slapd_frames_labeled_total 1
# HELP slapd_ingest_bytes_total Request body bytes accepted for decoding.
# TYPE slapd_ingest_bytes_total counter
slapd_ingest_bytes_total 12
# HELP slapd_rejected_total Requests shed with 429 by admission control.
# TYPE slapd_rejected_total counter
slapd_rejected_total 0
# HELP slapd_deadline_rejected_total Requests refused with 504 because their deadline budget was spent or unmeetable.
# TYPE slapd_deadline_rejected_total counter
slapd_deadline_rejected_total 0
# HELP slapd_panics_total Handler panics recovered (each answered 500).
# TYPE slapd_panics_total counter
slapd_panics_total 0
# HELP slapd_inflight Admitted requests currently being served.
# TYPE slapd_inflight gauge
slapd_inflight 0
# HELP slapd_queue_depth Admitted requests waiting for a worker.
# TYPE slapd_queue_depth gauge
slapd_queue_depth 0
# HELP slapd_admission_capacity Admission slots (workers + queue depth bound).
# TYPE slapd_admission_capacity gauge
slapd_admission_capacity 4
# HELP slapd_admission_limit Adaptive (AIMD) concurrency limit; equals capacity while no latency target is set.
# TYPE slapd_admission_limit gauge
slapd_admission_limit 4
# HELP slapd_workers Labeler pool size.
# TYPE slapd_workers gauge
slapd_workers 2
# HELP slapd_workers_idle Labeler pool workers currently free.
# TYPE slapd_workers_idle gauge
slapd_workers_idle 2
# HELP slapd_draining 1 while the server is draining for shutdown.
# TYPE slapd_draining gauge
slapd_draining 0
`
	if got := rec.Body.String(); got != golden {
		t.Fatalf("metrics drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
}

// TestHealthz: healthy until draining.
func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 1})
	req := httptest.NewRequest(http.MethodGet, api.PathHealthz, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestVerifyMode: Config.Verify cross-checks labels against the ground
// truth without changing successful responses — on /v1/aggregate too,
// whose labeling the Corollary 4 folds are built on.
func TestVerifyMode(t *testing.T) {
	s := New(Config{Workers: 1, Verify: true})
	rec := postImage(t, s, api.PathLabel, bitmap.Random(16, 0.5, 4), imageio.FormatRaw, api.Params{})
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}
	img := bitmap.Random(16, 0.5, 5)
	p := api.Params{Op: "sum", ArrayWidth: 4, WantLabels: true}
	got := postImage(t, s, api.PathAggregate, img, imageio.FormatRaw, p)
	if got.Code != http.StatusOK {
		t.Fatalf("aggregate under verify: %d: %s", got.Code, got.Body.String())
	}
	want := postImage(t, New(Config{Workers: 1}), api.PathAggregate, img, imageio.FormatRaw, p)
	if got.Body.String() != want.Body.String() {
		t.Fatalf("verify changed the aggregate answer:\n got %s\nwant %s", got.Body.String(), want.Body.String())
	}

	// A wrong answer must not be served: with one label corrupted after
	// the run, both a plain label run and a strip-mined aggregate fail
	// verification with a 500.
	testRunHook = corruptOneLabel
	defer func() { testRunHook = nil }()
	for _, tc := range []struct {
		path string
		p    api.Params
	}{
		{api.PathLabel, api.Params{}},
		{api.PathAggregate, p},
	} {
		rec := postImage(t, s, tc.path, img, imageio.FormatRaw, tc.p)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "verification failed") {
			t.Fatalf("%s with a corrupted label: %d %s, want 500 verification failed", tc.path, rec.Code, rec.Body.String())
		}
	}
}

// corruptOneLabel moves the first foreground pixel of a run's labeling
// off its component's label.
func corruptOneLabel(res *core.Result) {
	lm := res.Labels
	for x := 0; x < lm.W(); x++ {
		for y := 0; y < lm.H(); y++ {
			if l := lm.Get(x, y); l != bitmap.Background {
				lm.Set(x, y, l+1)
				return
			}
		}
	}
}
