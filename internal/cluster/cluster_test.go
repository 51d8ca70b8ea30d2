package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/cluster/chaos"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

// instantSleep skips backoff waits in tests while still honoring a
// dead context, so retry storms resolve in microseconds.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func newSlapd(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(server.New(server.Config{Workers: 2}))
	t.Cleanup(srv.Close)
	return srv
}

func newFront(t *testing.T, backends []string, mutate func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{Backends: backends, Sleep: instantSleep}
	if mutate != nil {
		mutate(&cfg)
	}
	co := New(cfg)
	t.Cleanup(co.Close)
	srv := httptest.NewServer(co)
	t.Cleanup(srv.Close)
	return co, srv
}

// post sends img raw-encoded to base+path with p's query and returns
// the status and the exact response bytes.
func post(t *testing.T, base, path string, p api.Params, img *bitmap.Bitmap) (int, []byte) {
	t.Helper()
	code, _, body := postAccept(t, base, path, p, img, "")
	return code, body
}

// postAccept is post with an Accept header (none when accept is empty),
// also returning the response's Content-Type.
func postAccept(t *testing.T, base, path string, p api.Params, img *bitmap.Bitmap, accept string) (int, string, []byte) {
	t.Helper()
	data, err := imageio.EncodeBytes(img, imageio.FormatRaw)
	if err != nil {
		t.Fatal(err)
	}
	url := base + path
	if q := p.Query().Encode(); q != "" {
		url += "?" + q
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", string(imageio.FormatRaw.ContentType()))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

func testImage(t *testing.T) *bitmap.Bitmap {
	t.Helper()
	return bitmap.Random(40, 0.5, 0xC0FFEE).SubImage(0, 0, 40, 24)
}

// clusterCases is the request matrix every bit-identicality test runs:
// strip-mined and whole-image, both connectivities, both schedules,
// both seam models, bit-serial cost, aggregation with global position
// initials, and the host engine (cost=host) strip-mined at an array
// width that does not divide the image as well as whole — the shapes
// whose composition could plausibly diverge over the wire.
func clusterCases() []struct {
	name string
	path string
	p    api.Params
} {
	return []struct {
		name string
		path string
		p    api.Params
	}{
		{"label strips", api.PathLabel, api.Params{ArrayWidth: 8, WantLabels: true}},
		{"label strips conn8", api.PathLabel, api.Params{ArrayWidth: 8, Connectivity: 8, WantLabels: true}},
		{"label strips bitserial pipelined", api.PathLabel, api.Params{ArrayWidth: 8, Cost: "bitserial", Schedule: "pipelined", WantLabels: true}},
		{"label strips host seam", api.PathLabel, api.Params{ArrayWidth: 8, Seam: "host", WantLabels: true}},
		{"label strips no labels", api.PathLabel, api.Params{ArrayWidth: 16}},
		{"label whole image", api.PathLabel, api.Params{WantLabels: true}},
		{"label array wider than image", api.PathLabel, api.Params{ArrayWidth: 64, WantLabels: true}},
		{"aggregate sum strips", api.PathAggregate, api.Params{ArrayWidth: 8, Op: "sum"}},
		{"aggregate min positions strips", api.PathAggregate, api.Params{ArrayWidth: 8, Op: "min", Initial: "positions", Cost: "bitserial", WantLabels: true}},
		{"aggregate whole image", api.PathAggregate, api.Params{Op: "max", WantLabels: true}},
		{"host label strips", api.PathLabel, api.Params{Cost: "host", ArrayWidth: 7, WantLabels: true}},
		{"host label strips conn8", api.PathLabel, api.Params{Cost: "host", ArrayWidth: 7, Connectivity: 8, WantLabels: true}},
		{"host label strips no labels", api.PathLabel, api.Params{Cost: "host", ArrayWidth: 16}},
		{"host aggregate min positions strips", api.PathAggregate, api.Params{Cost: "host", ArrayWidth: 16, Op: "min", Initial: "positions", WantLabels: true}},
		{"host label whole image", api.PathLabel, api.Params{Cost: "host", WantLabels: true}},
		{"host aggregate sum whole image", api.PathAggregate, api.Params{Cost: "host", Op: "sum", WantLabels: true}},
	}
}

// TestClusterBitIdenticalToLocal: every coordinator response — strip
// fan-out, whole-image pass-through, aggregation — is byte-for-byte
// the response a single local slapd gives the same request.
func TestClusterBitIdenticalToLocal(t *testing.T) {
	ref := newSlapd(t)
	b1, b2, b3 := newSlapd(t), newSlapd(t), newSlapd(t)
	_, front := newFront(t, []string{b1.URL, b2.URL, b3.URL}, nil)
	img := testImage(t)

	for _, tc := range clusterCases() {
		t.Run(tc.name, func(t *testing.T) {
			wantCode, want := post(t, ref.URL, tc.path, tc.p, img)
			gotCode, got := post(t, front.URL, tc.path, tc.p, img)
			if wantCode != http.StatusOK || gotCode != http.StatusOK {
				t.Fatalf("status: local %d cluster %d (cluster body %s)", wantCode, gotCode, got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("cluster response diverges from local:\nlocal:   %s\ncluster: %s", want, got)
			}
		})
	}
}

// TestClusterFrameBitIdenticalToLocal: asked for the labels frame, the
// coordinator answers every case of the matrix — strip fan-out, whole
// image, aggregation, and with its fleet dead or absent, local
// fallback — with a frame byte-for-byte a local slapd's, and the
// labels and folds it carries equal the JSON answer's.
func TestClusterFrameBitIdenticalToLocal(t *testing.T) {
	ref := newSlapd(t)
	b1, b2 := newSlapd(t), newSlapd(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	fronts := map[string]string{}
	for name, backends := range map[string][]string{
		"fleet":    {b1.URL, b2.URL},
		"degraded": {dead.URL},
		"local":    nil,
	} {
		_, front := newFront(t, backends, func(cfg *Config) { cfg.RetryBudget = 2 })
		fronts[name] = front.URL
	}
	img := testImage(t)

	for _, tc := range clusterCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, _, jsonBody := postAccept(t, ref.URL, tc.path, tc.p, img, "")
			code, ct, want := postAccept(t, ref.URL, tc.path, tc.p, img, api.ContentTypeLabels)
			if code != http.StatusOK || ct != api.ContentTypeLabels {
				t.Fatalf("local: status %d, Content-Type %q", code, ct)
			}
			var fromJSON, fromFrame api.AggregateResponse
			if err := json.Unmarshal(jsonBody, &fromJSON); err != nil {
				t.Fatal(err)
			}
			if err := api.ReadLabelsFrame(bytes.NewReader(want), &fromFrame, len(want)/4); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromJSON, fromFrame) {
				t.Fatalf("frame decodes to %+v, JSON to %+v", fromFrame, fromJSON)
			}
			for name, url := range fronts {
				code, ct, got := postAccept(t, url, tc.path, tc.p, img, api.ContentTypeLabels)
				if code != http.StatusOK || ct != api.ContentTypeLabels {
					t.Fatalf("%s: status %d, Content-Type %q (body %q)", name, code, ct, got)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: cluster frame diverges from local:\nlocal:   %q\ncluster: %q", name, want, got)
				}
			}
		})
	}
}

// TestClusterAsksBackendsForFrame: once a backend's answer has offered
// the labels frame, the coordinator's strip jobs to it ask for the
// frame and get it, while the answer to its own Accept-less caller
// stays the local slapd's JSON.
func TestClusterAsksBackendsForFrame(t *testing.T) {
	ref := newSlapd(t)
	slapd := server.New(server.Config{Workers: 2})
	var mu sync.Mutex
	var accepts, types []string
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slapd.ServeHTTP(w, r)
		mu.Lock()
		accepts = append(accepts, r.Header.Get("Accept"))
		types = append(types, w.Header().Get("Content-Type"))
		mu.Unlock()
	}))
	t.Cleanup(b.Close)
	_, front := newFront(t, []string{b.URL}, nil)
	img := testImage(t)
	p := api.Params{ArrayWidth: 8, WantLabels: true}
	_, want := post(t, ref.URL, api.PathLabel, p, img)
	for i := 0; i < 2; i++ {
		mu.Lock()
		accepts, types = nil, nil
		mu.Unlock()
		code, got := post(t, front.URL, api.PathLabel, p, img)
		if code != http.StatusOK || !bytes.Equal(want, got) {
			t.Fatalf("request %d: status %d, answer diverges from local:\nlocal:   %s\ncluster: %s", i, code, want, got)
		}
	}
	// The first request's strips went out before any offer came back;
	// every strip of the second asks for the frame.
	if len(accepts) != 5 {
		t.Fatalf("%d strip jobs, want 5", len(accepts))
	}
	for i, a := range accepts {
		if !api.AcceptsLabelsFrame(a) || types[i] != api.ContentTypeLabels {
			t.Fatalf("strip job %d: Accept %q answered with %q", i, a, types[i])
		}
	}
}

// TestClusterBitIdenticalUnderChaos: the same matrix with every
// backend behind a misbehaving proxy — injected 5xx, connection
// resets, mid-body truncation, latency — still answers 200 with
// byte-identical bodies. The plans are deterministic functions of each
// proxy's request count, so a failure here replays.
func TestClusterBitIdenticalUnderChaos(t *testing.T) {
	ref := newSlapd(t)
	mk := func(plan func(n int) chaos.Decision) *httptest.Server {
		inner := server.New(server.Config{Workers: 2})
		srv := httptest.NewServer(chaos.NewProxy(inner, plan))
		t.Cleanup(srv.Close)
		return srv
	}
	b1 := mk(func(n int) chaos.Decision {
		if n%5 == 1 {
			return chaos.Decision{Mode: chaos.Error500}
		}
		return chaos.Decision{Mode: chaos.Pass}
	})
	b2 := mk(func(n int) chaos.Decision {
		if n%4 == 2 {
			return chaos.Decision{Mode: chaos.Reset}
		}
		return chaos.Decision{Mode: chaos.Pass}
	})
	b3 := mk(func(n int) chaos.Decision {
		switch {
		case n%6 == 3:
			return chaos.Decision{Mode: chaos.Truncate}
		case n%6 == 0:
			return chaos.Decision{Mode: chaos.Delay, Delay: 5 * time.Millisecond}
		}
		return chaos.Decision{Mode: chaos.Pass}
	})
	_, front := newFront(t, []string{b1.URL, b2.URL, b3.URL}, nil)
	img := testImage(t)

	for round := 0; round < 3; round++ {
		for _, tc := range clusterCases() {
			wantCode, want := post(t, ref.URL, tc.path, tc.p, img)
			gotCode, got := post(t, front.URL, tc.path, tc.p, img)
			if wantCode != http.StatusOK || gotCode != http.StatusOK {
				t.Fatalf("round %d %s: status local %d cluster %d (cluster body %s)", round, tc.name, wantCode, gotCode, got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("round %d %s: cluster response diverges under chaos:\nlocal:   %s\ncluster: %s", round, tc.name, want, got)
			}
		}
	}
}

// TestClusterSurvivesBackendDeath: a backend that answers its first
// request and then resets every connection — a crash mid-run — costs
// nothing: its strips re-shard to the survivor and the response stays
// byte-identical, with zero client-visible errors.
func TestClusterSurvivesBackendDeath(t *testing.T) {
	ref := newSlapd(t)
	b1 := newSlapd(t)
	inner := server.New(server.Config{Workers: 2})
	dying := chaos.NewProxy(inner, func(n int) chaos.Decision {
		if n == 0 {
			return chaos.Decision{Mode: chaos.Pass}
		}
		return chaos.Decision{Mode: chaos.Reset}
	})
	b2 := httptest.NewServer(dying)
	t.Cleanup(b2.Close)
	// The dying backend is listed first and jobs run one at a time:
	// pickExcluding breaks load ties by list order, so the dying backend
	// answers the first job and takes the second, which meets the reset
	// — by construction, not by scheduling luck.
	_, front := newFront(t, []string{b2.URL, b1.URL}, func(cfg *Config) {
		cfg.JobConcurrency = 1
	})
	img := testImage(t)
	p := api.Params{ArrayWidth: 4, WantLabels: true} // 10 strips

	wantCode, want := post(t, ref.URL, api.PathLabel, p, img)
	gotCode, got := post(t, front.URL, api.PathLabel, p, img)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status: local %d cluster %d (cluster body %s)", wantCode, gotCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("response diverges after backend death:\nlocal:   %s\ncluster: %s", want, got)
	}
	if dying.Requests() < 2 {
		t.Fatalf("dying backend saw %d requests; the test never exercised the death", dying.Requests())
	}
	// A follow-up request still works — the survivor (and, if the
	// breaker opened, local fallback) carries it.
	gotCode, got = post(t, front.URL, api.PathLabel, p, img)
	if gotCode != http.StatusOK || !bytes.Equal(want, got) {
		t.Fatalf("follow-up request: status %d, identical %v", gotCode, bytes.Equal(want, got))
	}
}

// TestClusterDegradesToLocal: with every backend dead the coordinator
// answers anyway — every job runs locally — and the response is still
// byte-identical to a healthy slapd's.
func TestClusterDegradesToLocal(t *testing.T) {
	ref := newSlapd(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	co, front := newFront(t, []string{dead.URL}, func(cfg *Config) {
		cfg.RetryBudget = 2
	})
	img := testImage(t)
	p := api.Params{ArrayWidth: 8, WantLabels: true}

	wantCode, want := post(t, ref.URL, api.PathLabel, p, img)
	gotCode, got := post(t, front.URL, api.PathLabel, p, img)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status: local %d cluster %d (cluster body %s)", wantCode, gotCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("degraded response diverges:\nlocal:   %s\ncluster: %s", want, got)
	}

	// The failure story is visible: local fallbacks counted, and the
	// dead backend's breaker opened.
	resp, err := http.Get(front.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(metrics), "slapfront_local_fallbacks_total 0\n") {
		t.Fatalf("metrics report no local fallbacks:\n%s", metrics)
	}
	if st, _, _, _ := co.backends[0].snapshot(); st != breakerOpen {
		t.Fatalf("dead backend's breaker is %v, want open", st)
	}

	// And aggregation degrades the same way.
	ap := api.Params{ArrayWidth: 8, Op: "min", Initial: "positions", WantLabels: true}
	wantCode, want = post(t, ref.URL, api.PathAggregate, ap, img)
	gotCode, got = post(t, front.URL, api.PathAggregate, ap, img)
	if wantCode != http.StatusOK || gotCode != http.StatusOK || !bytes.Equal(want, got) {
		t.Fatalf("degraded aggregate: status local %d cluster %d identical %v", wantCode, gotCode, bytes.Equal(want, got))
	}
}

// TestClusterNoBackendsConfigured: an empty fleet is a working (purely
// local) coordinator, not an error.
func TestClusterNoBackendsConfigured(t *testing.T) {
	ref := newSlapd(t)
	_, front := newFront(t, nil, nil)
	img := testImage(t)
	for _, tc := range clusterCases() {
		wantCode, want := post(t, ref.URL, tc.path, tc.p, img)
		gotCode, got := post(t, front.URL, tc.path, tc.p, img)
		if wantCode != http.StatusOK || gotCode != http.StatusOK || !bytes.Equal(want, got) {
			t.Fatalf("%s: status local %d cluster %d identical %v", tc.name, wantCode, gotCode, bytes.Equal(want, got))
		}
	}
}

// TestClusterRejectsBadRequests: parameter validation happens at the
// front door with the same 400s a slapd gives, before any fan-out.
func TestClusterRejectsBadRequests(t *testing.T) {
	_, front := newFront(t, nil, nil)
	img := testImage(t)
	cases := []struct {
		name string
		path string
		p    api.Params
	}{
		{"bad connectivity", api.PathLabel, api.Params{Connectivity: 5}},
		{"bad uf", api.PathLabel, api.Params{UF: "nope"}},
		{"bad cost", api.PathLabel, api.Params{Cost: "quantum"}},
		{"bad op", api.PathAggregate, api.Params{Op: "median"}},
		{"bad initial", api.PathAggregate, api.Params{Op: "sum", Initial: "zeros"}},
	}
	for _, tc := range cases {
		code, body := post(t, front.URL, tc.path, tc.p, img)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", tc.name, code, body)
		}
		var e api.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body %q", tc.name, body)
		}
	}
	// Method check.
	resp, err := http.Get(front.URL + api.PathLabel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET label: %d, want 405", resp.StatusCode)
	}
}

// TestClusterRejectsMalformedStripAnswer: a backend whose strip answer
// claims dimensions other than the strip's — negative, or so large that
// their product overflows to the label count — is answered 502 instead
// of reaching an allocation sized by the backend, and the front keeps
// serving.
func TestClusterRejectsMalformedStripAnswer(t *testing.T) {
	for _, body := range []string{
		`{"width":-1,"height":-1,"labels":[0]}`,
		// 7 × 7905747460161236407 ≡ 1 (mod 2⁶⁴).
		`{"width":7,"height":7905747460161236407,"labels":[0]}`,
	} {
		hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body)
		}))
		t.Cleanup(hostile.Close)
		_, front := newFront(t, []string{hostile.URL}, nil)
		img := bitmap.Random(8, 0.5, 3)
		code, resp := post(t, front.URL, api.PathLabel, api.Params{ArrayWidth: 4, WantLabels: true}, img)
		if code != http.StatusBadGateway {
			t.Fatalf("answer %s: status %d, want 502 (body %s)", body, code, resp)
		}
		hresp, err := http.Get(front.URL + api.PathHealthz)
		if err != nil {
			t.Fatalf("front stopped serving after answer %s: %v", body, err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("healthz after answer %s: %d", body, hresp.StatusCode)
		}
	}
}

// TestClusterRejectsOutOfRangeStripLabels: a backend whose strip
// answer carries a label that is neither Background nor a strip-local
// position at or before its own pixel's — one no labeling can produce
// — is answered 502, over either encoding, instead of being stitched
// into the composed answer.
func TestClusterRejectsOutOfRangeStripLabels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		label int32 // written at strip position 1
		frame bool
	}{
		{"later position", 2, false},
		{"later position over the frame", 5, true},
		{"negative", -2, false},
		{"negative over the frame", -7, true},
	} {
		hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p, _ := api.ParamsFromQuery(r.URL.Query())
			sw, h := 4, 8
			if p.ArrayWidth != 0 {
				t.Errorf("strip job carries array=%d", p.ArrayWidth)
			}
			resp := &api.LabelResponse{Width: sw, Height: h, Foreground: 2, Components: 2, Largest: 1, Labels: make([]int32, sw*h)}
			for i := range resp.Labels {
				resp.Labels[i] = bitmap.Background
			}
			resp.Labels[0], resp.Labels[1] = 0, tc.label
			if tc.frame {
				frame, err := api.NewLabelsFrame(resp)
				if err != nil {
					t.Error(err)
					return
				}
				w.Header().Set("Content-Type", api.ContentTypeLabels)
				frame.WriteTo(w)
				return
			}
			server.WriteJSON(w, http.StatusOK, resp)
		}))
		t.Cleanup(hostile.Close)
		_, front := newFront(t, []string{hostile.URL}, nil)
		img := bitmap.Random(8, 0.5, 3)
		code, body := post(t, front.URL, api.PathLabel, api.Params{ArrayWidth: 4, WantLabels: true}, img)
		if code != http.StatusBadGateway {
			t.Fatalf("%s: status %d, want 502 (body %s)", tc.name, code, body)
		}
	}
}

// TestClusterCancelledRequest: a client that hangs up mid-request (the
// only backend hangs forever) aborts the fan-out; the coordinator
// records the request as 499, not as a success or a 5xx.
func TestClusterCancelledRequest(t *testing.T) {
	inner := server.New(server.Config{Workers: 2})
	proxy := chaos.NewProxy(inner, func(n int) chaos.Decision {
		return chaos.Decision{Mode: chaos.Hang}
	})
	hang := httptest.NewServer(proxy)
	t.Cleanup(hang.Close)
	t.Cleanup(proxy.Close) // LIFO: release hung requests before hang.Close waits on them
	_, front := newFront(t, []string{hang.URL}, nil)
	img := testImage(t)

	data, err := imageio.EncodeBytes(img, imageio.FormatRaw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	p := api.Params{ArrayWidth: 8}
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		front.URL+api.PathLabel+"?"+p.Query().Encode(), bytes.NewReader(data))
	req.Header.Set("Content-Type", string(imageio.FormatRaw.ContentType()))
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("request against a hung backend returned before cancellation")
	}

	// The coordinator saw the hang-up: poll the metrics for the 499.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(front.URL + api.PathMetrics)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), `slapfront_requests_total{endpoint="label",code="499"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 499 recorded:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterHealthz: the coordinator's own health endpoint reports
// per-backend routing state and stays "ok" even with the fleet down —
// slapfront degrades, it does not die.
func TestClusterHealthz(t *testing.T) {
	b := newSlapd(t)
	co, front := newFront(t, []string{b.URL, "http://127.0.0.1:1"}, nil)
	co.ProbeNow(context.Background())

	resp, err := http.Get(front.URL + api.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var snap HealthSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != "ok" || len(snap.Backends) != 2 {
		t.Fatalf("snapshot %+v, want ok with 2 backends", snap)
	}
	if !snap.Backends[0].ProbeOK {
		t.Fatalf("live backend reported down: %+v", snap.Backends[0])
	}
	if snap.Backends[1].ProbeOK {
		t.Fatalf("dead backend reported up: %+v", snap.Backends[1])
	}
}
