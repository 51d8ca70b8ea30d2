package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"slapcc"
	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/server"
)

// TestCheck: an answer equal to the reference passes, and each way of
// being wrong is caught — except simulated time when the reference
// engine cannot know it.
func TestCheck(t *testing.T) {
	img := slapcc.RandomImage(12, 0.5, 3)
	p := api.Params{Op: "sum", ArrayWidth: 4}
	want, err := Expect(img, p, slapcc.EngineSim)
	if err != nil {
		t.Fatal(err)
	}
	fg := 0 // a foreground pixel
	for want.Labels[fg] < 0 {
		fg++
	}
	for _, tc := range []struct {
		name     string
		mutate   func(r *api.LabelResponse, pp []int32, w *Want)
		rejected string
	}{
		{"exact answer", func(*api.LabelResponse, []int32, *Want) {}, ""},
		{"flipped label", func(r *api.LabelResponse, _ []int32, _ *Want) { r.Labels[fg]++ }, "labels["},
		{"shifted fold", func(_ *api.LabelResponse, pp []int32, _ *Want) { pp[fg]++ }, "per_pixel["},
		{"wrong dims", func(r *api.LabelResponse, _ []int32, _ *Want) { r.Width, r.Height = 24, 6 }, "dims"},
		{"wrong time", func(r *api.LabelResponse, _ []int32, _ *Want) { r.Metrics.TimeSteps++ }, "time_steps"},
		{"short labels", func(r *api.LabelResponse, _ []int32, _ *Want) { r.Labels = r.Labels[:10] }, "entries"},
		{"time skipped at -1", func(r *api.LabelResponse, _ []int32, w *Want) { r.Metrics.TimeSteps, w.TimeSteps = 999, -1 }, ""},
	} {
		r := &api.LabelResponse{Width: 12, Height: 12, Labels: append([]int32(nil), want.Labels...)}
		r.Metrics.TimeSteps = want.TimeSteps
		pp, w := append([]int32(nil), want.PerPixel...), *want
		tc.mutate(r, pp, &w)
		err := w.Check(r, pp)
		if (tc.rejected == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.rejected) {
			t.Errorf("%s: want rejection %q, got %v", tc.name, tc.rejected, err)
		}
	}
	// A host reference has the same labels and folds but no simulated
	// time, so it skips the time check on a simulator-served request.
	host, err := Expect(img, p, slapcc.EngineHost)
	if err != nil || host.TimeSteps != -1 || !reflect.DeepEqual(host.Labels, want.Labels) || !reflect.DeepEqual(host.PerPixel, want.PerPixel) {
		t.Errorf("host reference differs from sim: %v", err)
	}
	if _, err := Expect(img, api.Params{Op: "max"}, slapcc.EngineHost); err == nil {
		t.Error("reference for an unsupported op accepted")
	}
}

// TestBurstClassifies: every answer a burst can meet lands in exactly
// one bucket.
func TestBurstClassifies(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { http.Error(w, "no", code) }
	}
	stall := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // lets the server notice the hang-up
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}
	frames := []Frame{{Data: []byte("P1\n1 1\n1\n"), CType: "image/x-portable-bitmap"}}
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    Tally
	}{
		{"200", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{}`)) }, Tally{OK: 4}},
		{"429", status(http.StatusTooManyRequests), Tally{Shed429: 4}},
		{"503", status(http.StatusServiceUnavailable), Tally{Shed503: 4}},
		{"504", status(http.StatusGatewayTimeout), Tally{Deadline: 4}},
		{"500", status(http.StatusInternalServerError), Tally{Other: 4}},
		{"context deadline", stall, Tally{Deadline: 4}},
	} {
		hs := httptest.NewServer(tc.handler)
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		if got := Burst(ctx, client.New(hs.URL, client.WithMaxRetries(0)), frames, 4); got != tc.want {
			t.Errorf("%s: tally %+v, want %+v", tc.name, got, tc.want)
		}
		cancel()
		hs.Close()
	}
}

// TestLoop drives a real server in count and stop mode: every answer
// is verified — simulated time under the bit-serial cost model too —
// a wrong reference is caught, and a loop that would verify nothing is
// refused.
func TestLoop(t *testing.T) {
	hs := httptest.NewServer(server.New(server.Config{Workers: 2}))
	defer hs.Close()
	frames, _, err := Corpus{
		Sizes: []int{16, 24}, Formats: []string{"raw", "png"}, PerSize: 1, Density: 0.5,
		Seed: 1, Params: api.Params{Cost: "bitserial"}, Array: 8, Mix: Every, Ref: slapcc.EngineSim,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]Frame(nil), frames...)
	w := *bad[0].Want
	w.Labels = append([]int32{1 << 20}, w.Labels[1:]...)
	bad[0].Want = &w
	count := 2 * len(bad)
	loop := Loop{Client: NewClient(hs.URL, 2, 100*time.Millisecond, 10*time.Second), Frames: bad, Concurrency: 3, Count: count}
	st, err := loop.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcomes != (Tally{OK: count}) || st.Verified != count || st.Mismatches != 2 || st.FirstMismatch == nil || st.TraceBreaches != 0 {
		t.Fatalf("count mode: %+v verified %d mismatches %d (%v) breaches %d (%s)",
			st.Outcomes, st.Verified, st.Mismatches, st.FirstMismatch, st.TraceBreaches, st.FirstBreach)
	}
	if lat := st.LatencyMS(); lat.N != count || lat.P50 <= 0 || lat.P99 < lat.P50 || lat.Max < lat.P99 {
		t.Fatalf("latency: %+v", lat)
	}

	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	loop = Loop{Client: loop.Client, Frames: frames, Concurrency: 2, Stop: stop}
	if st, err = loop.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Outcomes.OK == 0 || st.Outcomes.Failed() != 0 || st.Mismatches != 0 || st.Verified != st.Outcomes.OK {
		t.Fatalf("stop mode: %+v verified %d mismatches %d", st.Outcomes, st.Verified, st.Mismatches)
	}

	for _, l := range []Loop{{Concurrency: 0, Count: 10}, {Concurrency: -1, Stop: stop}, {Concurrency: 1}, {Concurrency: 1, Count: -5}} {
		if _, err := l.Run(context.Background()); err == nil {
			t.Errorf("loop %+v accepted", l)
		}
	}
}

// TestCorpus: the same seed sends the same bytes with the same
// references, and the mixes pick the documented shapes.
func TestCorpus(t *testing.T) {
	c := Corpus{
		Sizes: []int{16, 24}, Formats: []string{"png", " raw"}, PerSize: 2, Density: 0.5,
		Seed: 7, Array: 8, Mix: Rotate, Ref: slapcc.EngineHost,
	}
	a, _, err := c.Build()
	b, _, _ := c.Build()
	c.Seed = 8
	other, _, _ := c.Build()
	if err != nil || !reflect.DeepEqual(a, b) || reflect.DeepEqual(a[0].Data, other[0].Data) {
		t.Fatalf("corpus not a function of its seed (err %v)", err)
	}
	if len(a) != 8 { // 2 sizes × 2 images × 2 formats
		t.Fatalf("rotate: %d frames, want 8", len(a))
	}
	for i, f := range a {
		if (f.Params.ArrayWidth == 8) != (i%4 == 3) || f.Want == nil || !f.Params.WantLabels {
			t.Errorf("rotate frame %d (%s): array %d, verified %v", i, f.Name, f.Params.ArrayWidth, f.Want != nil)
		}
	}
	c.Mix, c.Formats = Every, []string{"raw"}
	every, _, err := c.Build()
	if err != nil || len(every) != 12 || every[1].Params.ArrayWidth != 8 || every[2].Params.Op != "sum" || every[2].Want.PerPixel == nil {
		t.Fatalf("every: %d frames (err %v)", len(every), err)
	}
	if _, _, err := (Corpus{Sizes: []int{16}, Formats: []string{"raw"}}).Build(); err == nil {
		t.Fatal("empty corpus accepted")
	}
}
