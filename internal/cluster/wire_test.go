package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/imageio"
)

// TestClusterBoundsEndlessAnswers: a backend that answers 200 and then
// streams without end — a JSON body or a labels frame whose header
// never ends — costs the coordinator a bounded read per attempt: the
// job re-routes (here to the local fallback, so the answer is still
// the local one) and the coordinator's heap grows by a small bounded
// amount, not by what the backend sent.
func TestClusterBoundsEndlessAnswers(t *testing.T) {
	for _, tc := range []struct {
		name, ct string
		prefix   []byte
	}{
		{"JSON", "application/json", []byte(`{"error":"`)},
		{"labels frame", api.ContentTypeLabels, []byte("SLL1\x01\xff\xff\xff\xff")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const streamCap = 128 << 20 // the stub stops here, so an unbounded reader cannot hang the test
			var sent atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", tc.ct)
				w.WriteHeader(http.StatusOK)
				w.Write(tc.prefix)
				chunk := bytes.Repeat([]byte("a"), 64<<10)
				for sent.Load() < streamCap {
					n, err := w.Write(chunk)
					sent.Add(int64(n))
					if err != nil {
						return
					}
				}
			}))
			t.Cleanup(stub.Close)
			ref := newSlapd(t)
			_, front := newFront(t, []string{stub.URL}, func(cfg *Config) { cfg.RetryBudget = 2 })
			img := testImage(t)
			p := api.Params{ArrayWidth: 8, WantLabels: true}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			code, got := post(t, front.URL, api.PathLabel, p, img)
			runtime.ReadMemStats(&after)
			_, want := post(t, ref.URL, api.PathLabel, p, img)
			if code != http.StatusOK && code != http.StatusBadGateway {
				t.Fatalf("status %d, want 200 (re-routed) or 502", code)
			}
			if code == http.StatusOK && !bytes.Equal(got, want) {
				t.Fatalf("re-routed answer differs from the local one:\n%s\n%s", got, want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
				t.Fatalf("coordinator allocated %d MiB while the backend streamed %d MiB", alloc>>20, sent.Load()>>20)
			}
		})
	}
}

// TestEncodeJobsMatchesSubImage: every strip body is byte for byte the
// SLR1 encoding of the copied sub-image — at one-column, odd, 64-aligned
// and ragged array widths, widths that are not a multiple of the array
// width, height 1, and empty and full frames.
func TestEncodeJobsMatchesSubImage(t *testing.T) {
	var imgs []*bitmap.Bitmap
	for i, d := range [][2]int{{1, 1}, {2, 1}, {130, 1}, {65, 5}, {127, 9}, {128, 7}, {129, 33}, {200, 3}, {301, 17}} {
		w, h := d[0], d[1]
		imgs = append(imgs, bitmap.Random(max(w, h), 0.5, uint64(i+1)).SubImage(0, 0, w, h))
	}
	empty, full := bitmap.New(193, 6), bitmap.New(193, 6)
	full.Fill(true)
	imgs = append(imgs, empty, full)
	for _, img := range imgs {
		w, h := img.W(), img.H()
		for _, aw := range []int{1, 7, 63, 64, 65, 100, 128} {
			jobs := encodeJobs(img, aw)
			if len(jobs) != (w+aw-1)/aw {
				t.Fatalf("%dx%d at array %d: %d jobs", w, h, aw, len(jobs))
			}
			for s, j := range jobs {
				x0, sw := s*aw, min(aw, w-s*aw)
				want, err := imageio.EncodeBytes(img.SubImage(x0, 0, sw, h), imageio.FormatRaw)
				if err != nil {
					t.Fatal(err)
				}
				if j.s != s || j.x0 != x0 || j.sw != sw || !bytes.Equal(j.data, want) {
					t.Fatalf("%dx%d at array %d: strip %d (x0 %d, width %d) encodes differently from its sub-image", w, h, aw, s, j.x0, j.sw)
				}
			}
		}
	}
}
