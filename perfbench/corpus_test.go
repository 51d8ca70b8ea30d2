package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

// TestRandomImageLanes pins the word-parallel generator to its
// definition: pixel k of raster byte j is 1 exactly when byte k of the
// j-th random word, masked to 7 bits, is below density·128.
func TestRandomImageLanes(t *testing.T) {
	for _, density := range []float64{0, 0.3, 0.5, 0.7, 1} {
		img, err := randomImage(bitmap.NewRNG(7), 40, 3, density)
		if err != nil {
			t.Fatal(err)
		}
		rng := bitmap.NewRNG(7)
		thr := uint64(density*128 + 0.5)
		for y := 0; y < 3; y++ {
			for bx := 0; bx < 5; bx++ {
				r := rng.Uint64()
				for k := 0; k < 8; k++ {
					want := (r>>(8*k))&0x7f < thr
					if got := img.Get(8*bx+k, y); got != want {
						t.Fatalf("density %g: pixel (%d, %d) = %v, want %v", density, 8*bx+k, y, got, want)
					}
				}
			}
		}
	}
}

func TestPNGWriterRoundTrips(t *testing.T) {
	var pw pngWriter
	for _, side := range []int{1, 13, 64} {
		img, err := randomImage(bitmap.NewRNG(uint64(side)), side, side+3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := imageio.EncodeBytes(img, imageio.FormatRaw)
		data, err := pw.encode(raw)
		if err != nil {
			t.Fatal(err)
		}
		back, err := imageio.DecodeBytes(data, imageio.FormatPNG, imageio.Limits{})
		if err != nil {
			t.Fatalf("%dpx: %v", side, err)
		}
		if again, _ := imageio.EncodeBytes(back, imageio.FormatRaw); !bytes.Equal(again, raw) {
			t.Errorf("%dpx: PNG round trip changed the image", side)
		}
	}
}

// answer is the response a correct slapd gives to r.
func answer(t *testing.T, r *request) *api.LabelResponse {
	t.Helper()
	img, err := imageio.DecodeBytes(r.data, imageio.Format(r.params.Format), imageio.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := server.OptionsFromParams(core.Options{}, r.params, img.W(), img.H())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Label(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	return server.ToLabelResponse(res, r.params.WantLabels)
}

func TestCheckRejectsCorruptedResponses(t *testing.T) {
	var enc encoder
	img, err := randomImage(bitmap.NewRNG(3), 48, 32, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := enc.request(img, imageio.FormatPNG, api.Params{Cost: "host", WantLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	simulated, err := enc.request(img, imageio.FormatRaw, api.Params{ArrayWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		r       *request
		corrupt func(*api.LabelResponse)
	}{
		{"one label changed", labeled, func(a *api.LabelResponse) {
			for i, l := range a.Labels {
				if l >= 0 {
					a.Labels[i] = l + 1
					return
				}
			}
		}},
		{"labels missing", labeled, func(a *api.LabelResponse) { a.Labels = nil }},
		{"component count", labeled, func(a *api.LabelResponse) { a.Components++ }},
		{"largest component", simulated, func(a *api.LabelResponse) { a.Largest-- }},
		{"dimensions", simulated, func(a *api.LabelResponse) { a.Width, a.Height = a.Height, a.Width }},
		{"simulated time", simulated, func(a *api.LabelResponse) { a.Metrics.TimeSteps++ }},
		{"unrequested labels", simulated, func(a *api.LabelResponse) { a.Labels = []int32{0} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := answer(t, tc.r)
			if err := tc.r.ref.check(resp, tc.r.params); err != nil {
				t.Fatalf("correct answer rejected: %v", err)
			}
			tc.corrupt(resp)
			if err := tc.r.ref.check(resp, tc.r.params); err == nil {
				t.Fatal("corrupted answer accepted")
			}
		})
	}
}

// TestLoadCountsWrongAnswers serves the load through a slapd whose
// answers are corrupted on the way out: every request must count as
// failed, and the run must not be reported correct.
func TestLoadCountsWrongAnswers(t *testing.T) {
	reqs, err := buildRequests(smallFrame, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	slapd := server.New(server.Config{Logf: func(string, ...any) {}})
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		slapd.ServeHTTP(rec, r)
		var resp api.LabelResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Error(err)
		}
		resp.Foreground++
		json.NewEncoder(w).Encode(resp)
	}))
	defer liar.Close()
	ph := runClosed(context.Background(), loadClient(liar.URL, 2), reqs, 2, time.Minute, true, false)
	if ph.attempted != len(reqs) || ph.failed != len(reqs) {
		t.Fatalf("attempted %d, failed %d; want %d of %d failed", ph.attempted, ph.failed, len(reqs), len(reqs))
	}
	if ph.firstErr == nil || !strings.Contains(ph.firstErr.Error(), "summary") {
		t.Errorf("first error %v does not name the wrong summary", ph.firstErr)
	}
	res := &result{Metrics: map[string]metric{}}
	res.count(ph)
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != len(reqs) {
		t.Errorf("printed result %+v, want correct=false with %d failed", last, len(reqs))
	}
}
