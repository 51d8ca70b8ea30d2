package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/bitmap"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

// inProcess is a transport double that serves each request on the
// handler named by its URL host, so backend names — and the metric
// labels carrying them — are fixed instead of ephemeral ports.
type inProcess map[string]http.Handler

func (ip inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ip[r.URL.Host].ServeHTTP(rec, r)
	return rec.Result(), nil
}

// switchable answers 500 to everything while down is set, and passes
// through to h otherwise.
type switchable struct {
	h    http.Handler
	down atomic.Bool
}

func (s *switchable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.down.Load() {
		server.WriteError(w, http.StatusInternalServerError, "injected failure")
		return
	}
	s.h.ServeHTTP(w, r)
}

// TestMetricsGolden pins slapfront's full /metrics exposition after a
// known request sequence under a stub clock that advances 250ms per
// reading, as slapd's golden does: a label request that fails over
// once (the first backend's breaker opens, the retry lands on the
// second), a strip-mined aggregate, a 400, a label that no backend will
// take and so runs locally, a healthz, and a probe that closes the
// second backend's breaker again. Requests are served one at a time and
// strips one at a time, so every clock reading happens in a fixed
// order.
func TestMetricsGolden(t *testing.T) {
	var clkMu sync.Mutex
	tick := time.Unix(1700000000, 0)
	now := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		tick = tick.Add(250 * time.Millisecond)
		return tick
	}
	slapd := server.New(server.Config{Workers: 1})
	flaky := &switchable{h: slapd}
	good := &switchable{h: slapd}
	flaky.down.Store(true)
	co := New(Config{
		Backends:         []string{"http://flaky:8117", "http://good:8117"},
		RetryBudget:      2,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		JobConcurrency:   1,
		ClientOptions: []client.Option{client.WithHTTPClient(&http.Client{
			Transport: inProcess{"flaky:8117": flaky, "good:8117": good},
		})},
		Now:   now,
		Sleep: instantSleep,
	})
	t.Cleanup(co.Close)

	serve := func(method, path string, p api.Params, img *bitmap.Bitmap) int {
		t.Helper()
		var body []byte
		if img != nil {
			var err error
			if body, err = imageio.EncodeBytes(img, imageio.FormatRaw); err != nil {
				t.Fatal(err)
			}
		}
		req := httptest.NewRequest(method, path+"?"+p.Query().Encode(), bytes.NewReader(body))
		req.Header.Set("Content-Type", string(imageio.FormatRaw.ContentType()))
		rec := httptest.NewRecorder()
		co.ServeHTTP(rec, req)
		return rec.Code
	}
	img := bitmap.Random(16, 0.5, 7)
	steps := []struct {
		name   string
		before func()
		method string
		path   string
		p      api.Params
		img    *bitmap.Bitmap
		want   int
	}{
		{"label, retried onto good", nil, http.MethodPost, api.PathLabel, api.Params{}, img, http.StatusOK},
		{"aggregate, two strips", nil, http.MethodPost, api.PathAggregate, api.Params{ArrayWidth: 8, Op: "sum"}, img, http.StatusOK},
		{"bad connectivity", nil, http.MethodPost, api.PathLabel, api.Params{Connectivity: 5}, img, http.StatusBadRequest},
		{"label, local fallback", func() { good.down.Store(true) }, http.MethodPost, api.PathLabel, api.Params{}, img, http.StatusOK},
		{"healthz", nil, http.MethodGet, api.PathHealthz, api.Params{}, nil, http.StatusOK},
	}
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		if code := serve(st.method, st.path, st.p, st.img); code != st.want {
			t.Fatalf("%s: status %d, want %d", st.name, code, st.want)
		}
	}
	good.down.Store(false)
	co.ProbeNow(context.Background())

	req := httptest.NewRequest(http.MethodGet, api.PathMetrics, nil)
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	const golden = `# HELP slapfront_requests_total HTTP requests completed, by endpoint and status code.
# TYPE slapfront_requests_total counter
slapfront_requests_total{endpoint="aggregate",code="200"} 1
slapfront_requests_total{endpoint="healthz",code="200"} 1
slapfront_requests_total{endpoint="label",code="200"} 2
slapfront_requests_total{endpoint="label",code="400"} 1
# HELP slapfront_request_seconds Wall time of completed requests, by endpoint.
# TYPE slapfront_request_seconds histogram
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.001"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.0025"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.005"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.01"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.025"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.05"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.1"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.25"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="0.5"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="1"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="2.5"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="5"} 0
slapfront_request_seconds_bucket{endpoint="aggregate",le="10"} 1
slapfront_request_seconds_bucket{endpoint="aggregate",le="+Inf"} 1
slapfront_request_seconds_sum{endpoint="aggregate"} 8
slapfront_request_seconds_count{endpoint="aggregate"} 1
slapfront_request_seconds_bucket{endpoint="healthz",le="0.001"} 0
slapfront_request_seconds_bucket{endpoint="healthz",le="0.0025"} 0
slapfront_request_seconds_bucket{endpoint="healthz",le="0.005"} 0
slapfront_request_seconds_bucket{endpoint="healthz",le="0.01"} 0
slapfront_request_seconds_bucket{endpoint="healthz",le="0.025"} 0
slapfront_request_seconds_bucket{endpoint="healthz",le="0.05"} 0
slapfront_request_seconds_bucket{endpoint="healthz",le="0.1"} 0
slapfront_request_seconds_bucket{endpoint="healthz",le="0.25"} 1
slapfront_request_seconds_bucket{endpoint="healthz",le="0.5"} 1
slapfront_request_seconds_bucket{endpoint="healthz",le="1"} 1
slapfront_request_seconds_bucket{endpoint="healthz",le="2.5"} 1
slapfront_request_seconds_bucket{endpoint="healthz",le="5"} 1
slapfront_request_seconds_bucket{endpoint="healthz",le="10"} 1
slapfront_request_seconds_bucket{endpoint="healthz",le="+Inf"} 1
slapfront_request_seconds_sum{endpoint="healthz"} 0.25
slapfront_request_seconds_count{endpoint="healthz"} 1
slapfront_request_seconds_bucket{endpoint="label",le="0.001"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.0025"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.005"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.01"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.025"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.05"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.1"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.25"} 0
slapfront_request_seconds_bucket{endpoint="label",le="0.5"} 0
slapfront_request_seconds_bucket{endpoint="label",le="1"} 0
slapfront_request_seconds_bucket{endpoint="label",le="2.5"} 1
slapfront_request_seconds_bucket{endpoint="label",le="5"} 1
slapfront_request_seconds_bucket{endpoint="label",le="10"} 3
slapfront_request_seconds_bucket{endpoint="label",le="+Inf"} 3
slapfront_request_seconds_sum{endpoint="label"} 14.25
slapfront_request_seconds_count{endpoint="label"} 3
# HELP slapfront_stage_seconds Wall time of request stages (top-level trace spans), by stage.
# TYPE slapfront_stage_seconds histogram
slapfront_stage_seconds_bucket{stage="decode",le="0.001"} 0
slapfront_stage_seconds_bucket{stage="decode",le="0.0025"} 0
slapfront_stage_seconds_bucket{stage="decode",le="0.005"} 0
slapfront_stage_seconds_bucket{stage="decode",le="0.01"} 0
slapfront_stage_seconds_bucket{stage="decode",le="0.025"} 0
slapfront_stage_seconds_bucket{stage="decode",le="0.05"} 0
slapfront_stage_seconds_bucket{stage="decode",le="0.1"} 0
slapfront_stage_seconds_bucket{stage="decode",le="0.25"} 4
slapfront_stage_seconds_bucket{stage="decode",le="0.5"} 4
slapfront_stage_seconds_bucket{stage="decode",le="1"} 4
slapfront_stage_seconds_bucket{stage="decode",le="2.5"} 4
slapfront_stage_seconds_bucket{stage="decode",le="5"} 4
slapfront_stage_seconds_bucket{stage="decode",le="10"} 4
slapfront_stage_seconds_bucket{stage="decode",le="+Inf"} 4
slapfront_stage_seconds_sum{stage="decode"} 1
slapfront_stage_seconds_count{stage="decode"} 4
slapfront_stage_seconds_bucket{stage="encode",le="0.001"} 0
slapfront_stage_seconds_bucket{stage="encode",le="0.0025"} 0
slapfront_stage_seconds_bucket{stage="encode",le="0.005"} 0
slapfront_stage_seconds_bucket{stage="encode",le="0.01"} 0
slapfront_stage_seconds_bucket{stage="encode",le="0.025"} 0
slapfront_stage_seconds_bucket{stage="encode",le="0.05"} 0
slapfront_stage_seconds_bucket{stage="encode",le="0.1"} 0
slapfront_stage_seconds_bucket{stage="encode",le="0.25"} 3
slapfront_stage_seconds_bucket{stage="encode",le="0.5"} 3
slapfront_stage_seconds_bucket{stage="encode",le="1"} 3
slapfront_stage_seconds_bucket{stage="encode",le="2.5"} 3
slapfront_stage_seconds_bucket{stage="encode",le="5"} 3
slapfront_stage_seconds_bucket{stage="encode",le="10"} 3
slapfront_stage_seconds_bucket{stage="encode",le="+Inf"} 3
slapfront_stage_seconds_sum{stage="encode"} 0.75
slapfront_stage_seconds_count{stage="encode"} 3
slapfront_stage_seconds_bucket{stage="fanout",le="0.001"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.0025"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.005"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.01"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.025"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.05"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.1"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.25"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="0.5"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="1"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="2.5"} 0
slapfront_stage_seconds_bucket{stage="fanout",le="5"} 1
slapfront_stage_seconds_bucket{stage="fanout",le="10"} 1
slapfront_stage_seconds_bucket{stage="fanout",le="+Inf"} 1
slapfront_stage_seconds_sum{stage="fanout"} 3.75
slapfront_stage_seconds_count{stage="fanout"} 1
slapfront_stage_seconds_bucket{stage="stitch",le="0.001"} 0
slapfront_stage_seconds_bucket{stage="stitch",le="0.0025"} 0
slapfront_stage_seconds_bucket{stage="stitch",le="0.005"} 0
slapfront_stage_seconds_bucket{stage="stitch",le="0.01"} 0
slapfront_stage_seconds_bucket{stage="stitch",le="0.025"} 0
slapfront_stage_seconds_bucket{stage="stitch",le="0.05"} 0
slapfront_stage_seconds_bucket{stage="stitch",le="0.1"} 0
slapfront_stage_seconds_bucket{stage="stitch",le="0.25"} 1
slapfront_stage_seconds_bucket{stage="stitch",le="0.5"} 1
slapfront_stage_seconds_bucket{stage="stitch",le="1"} 1
slapfront_stage_seconds_bucket{stage="stitch",le="2.5"} 1
slapfront_stage_seconds_bucket{stage="stitch",le="5"} 1
slapfront_stage_seconds_bucket{stage="stitch",le="10"} 1
slapfront_stage_seconds_bucket{stage="stitch",le="+Inf"} 1
slapfront_stage_seconds_sum{stage="stitch"} 0.25
slapfront_stage_seconds_count{stage="stitch"} 1
slapfront_stage_seconds_bucket{stage="strip",le="0.001"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.0025"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.005"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.01"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.025"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.05"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.1"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.25"} 0
slapfront_stage_seconds_bucket{stage="strip",le="0.5"} 0
slapfront_stage_seconds_bucket{stage="strip",le="1"} 0
slapfront_stage_seconds_bucket{stage="strip",le="2.5"} 1
slapfront_stage_seconds_bucket{stage="strip",le="5"} 2
slapfront_stage_seconds_bucket{stage="strip",le="10"} 2
slapfront_stage_seconds_bucket{stage="strip",le="+Inf"} 2
slapfront_stage_seconds_sum{stage="strip"} 5.25
slapfront_stage_seconds_count{stage="strip"} 2
# HELP slapfront_jobs_total Strip jobs dispatched to backends, by outcome.
# TYPE slapfront_jobs_total counter
slapfront_jobs_total{backend="flaky:8117",outcome="error"} 1
slapfront_jobs_total{backend="good:8117",outcome="error"} 1
slapfront_jobs_total{backend="good:8117",outcome="ok"} 3
# HELP slapfront_job_retries_total Job attempts re-routed after a failure or busy signal.
# TYPE slapfront_job_retries_total counter
slapfront_job_retries_total 2
# HELP slapfront_local_fallbacks_total Jobs executed locally because no backend would take them.
# TYPE slapfront_local_fallbacks_total counter
slapfront_local_fallbacks_total 1
# HELP slapfront_breaker_opened_total Circuit breaker open transitions.
# TYPE slapfront_breaker_opened_total counter
slapfront_breaker_opened_total 2
# HELP slapfront_hedges_total Duplicate strip jobs issued for straggling attempts.
# TYPE slapfront_hedges_total counter
slapfront_hedges_total 0
# HELP slapfront_hedge_wins_total Hedged duplicates that answered before the primary.
# TYPE slapfront_hedge_wins_total counter
slapfront_hedge_wins_total 0
# HELP slapfront_backend_up 1 while the backend is routable (breaker closed and last probe healthy).
# TYPE slapfront_backend_up gauge
slapfront_backend_up{backend="flaky:8117"} 0
slapfront_backend_up{backend="good:8117"} 1
# HELP slapfront_backend_breaker_state Breaker state: 0 closed, 1 half-open, 2 open.
# TYPE slapfront_backend_breaker_state gauge
slapfront_backend_breaker_state{backend="flaky:8117"} 2
slapfront_backend_breaker_state{backend="good:8117"} 0
# HELP slapfront_backend_outstanding Jobs in flight per backend.
# TYPE slapfront_backend_outstanding gauge
slapfront_backend_outstanding{backend="flaky:8117"} 0
slapfront_backend_outstanding{backend="good:8117"} 0
`
	if got := rec.Body.String(); got != golden {
		t.Fatalf("metrics exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
