package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"slapcc/internal/bitmap"
)

func streamFrames(n, count int) []*bitmap.Bitmap {
	frames := make([]*bitmap.Bitmap, count)
	for i := range frames {
		frames[i] = bitmap.Random(n, 0.5, uint64(i+1))
	}
	return frames
}

// TestLabelStreamOrderingAndEquivalence: results arrive in submission
// order, one per frame, and each is bit-identical to a plain Label of
// the same frame — for the synchronous single-worker stream and for
// fan-out streams wider than the host.
func TestLabelStreamOrderingAndEquivalence(t *testing.T) {
	const n, count = 31, 24
	frames := streamFrames(n, count)
	want := make([]*Result, count)
	for i, img := range frames {
		want[i] = mustLabel(t, img, Options{})
	}
	for _, workers := range []int{1, 2, 4, 7} {
		var got []StreamResult
		s := NewLabelStream(Options{}, workers, func(r StreamResult) {
			got = append(got, r)
		})
		if s.Workers() != workers {
			t.Fatalf("workers=%d: stream reports %d", workers, s.Workers())
		}
		for _, img := range frames {
			s.Submit(img)
		}
		s.Close()
		if len(got) != count {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), count)
		}
		for i, r := range got {
			if r.Frame != i {
				t.Fatalf("workers=%d: result %d carries frame %d (out of order)", workers, i, r.Frame)
			}
			if r.Err != nil {
				t.Fatalf("workers=%d frame %d: %v", workers, i, r.Err)
			}
			if !r.Result.Labels.Equal(want[i].Labels) {
				t.Errorf("workers=%d frame %d: labels diverged from one-shot Label", workers, i)
			}
			if r.Result.Metrics.Time != want[i].Metrics.Time ||
				r.Result.Metrics.Sends != want[i].Metrics.Sends ||
				r.Result.UF != want[i].UF {
				t.Errorf("workers=%d frame %d: metrics diverged from one-shot Label", workers, i)
			}
		}
	}
}

// TestLabelStreamSingleWorkerIsSynchronous: with one worker the sink
// runs inside Submit, before it returns — the single-labeler delegate
// with no goroutine hand-off.
func TestLabelStreamSingleWorkerIsSynchronous(t *testing.T) {
	img := bitmap.Random(16, 0.5, 9)
	delivered := false
	s := NewLabelStream(Options{}, 1, func(r StreamResult) { delivered = true })
	s.Submit(img)
	if !delivered {
		t.Fatal("single-worker Submit returned before the sink ran")
	}
	s.Close()
}

// TestLabelStreamError: a configuration error reaches the sink as a
// per-frame StreamResult.Err, in order, without wedging the stream.
func TestLabelStreamError(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var errs, oks int
		s := NewLabelStream(Options{UF: "no-such-kind"}, workers, func(r StreamResult) {
			if r.Err != nil {
				errs++
			} else {
				oks++
			}
		})
		for i := 0; i < 5; i++ {
			s.Submit(bitmap.Random(8, 0.5, uint64(i)))
		}
		s.Close()
		if errs != 5 || oks != 0 {
			t.Fatalf("workers=%d: %d errors, %d successes; want 5, 0", workers, errs, oks)
		}
	}
}

// TestLabelStreamCloseIdempotent: Close twice is fine; Submit after
// Close panics.
func TestLabelStreamCloseIdempotent(t *testing.T) {
	s := NewLabelStream(Options{}, 2, func(StreamResult) {})
	s.Submit(bitmap.Random(8, 0.5, 1))
	s.Close()
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close did not panic")
		}
	}()
	s.Submit(bitmap.Random(8, 0.5, 2))
}

// TestLabelerPoolConcurrent hammers one pool from many goroutines (the
// race detector patrols the arena sharing) and checks every result
// against the sequential ground truth labeling.
func TestLabelerPoolConcurrent(t *testing.T) {
	const workers, calls = 4, 32
	pool := NewLabelerPool(Options{}, workers)
	if pool.Workers() != workers {
		t.Fatalf("pool reports %d workers", pool.Workers())
	}
	frames := streamFrames(23, calls)
	want := make([]*Result, calls)
	for i, img := range frames {
		want[i] = mustLabel(t, img, Options{})
	}
	var failures atomic.Int64
	done := make(chan struct{})
	for g := 0; g < workers*2; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := g; i < calls; i += workers * 2 {
				res, err := pool.Label(frames[i])
				if err != nil || !res.Labels.Equal(want[i].Labels) {
					failures.Add(1)
				}
			}
		}(g)
	}
	for g := 0; g < workers*2; g++ {
		<-done
	}
	if failures.Load() != 0 {
		t.Fatalf("%d concurrent pool calls diverged", failures.Load())
	}
}

// TestLabelStreamManyFrames pushes enough frames through a wide stream
// to exercise backpressure and the collector's reordering window.
func TestLabelStreamManyFrames(t *testing.T) {
	const count = 200
	expect := 0
	s := NewLabelStream(Options{}, 8, func(r StreamResult) {
		if r.Frame != expect {
			t.Errorf("frame %d delivered at position %d", r.Frame, expect)
		}
		expect++
	})
	for i := 0; i < count; i++ {
		s.Submit(bitmap.Random(9+i%7, 0.4, uint64(i)))
	}
	s.Close()
	if expect != count {
		t.Fatalf("delivered %d frames, want %d", expect, count)
	}
}

func ExampleLabelStream() {
	imgs := []*bitmap.Bitmap{
		bitmap.MustParse("##\n.#"),
		bitmap.MustParse("#.\n.#"),
	}
	s := NewLabelStream(Options{}, 2, func(r StreamResult) {
		fmt.Printf("frame %d: %d components\n", r.Frame, r.Result.Labels.ComponentCount())
	})
	for _, img := range imgs {
		s.Submit(img)
	}
	s.Close()
	// Output:
	// frame 0: 1 components
	// frame 1: 2 components
}

// TestLabelerPoolPanicKeepsCapacity: a panicking labeler must not shrink
// the pool. The panic propagates to the caller, but the worker slot is
// refilled (with a fresh labeler, since the panicked one's arenas may be
// mid-run corrupt): afterwards the pool still holds Workers() usable
// frames of capacity, every one of them able to label.
func TestLabelerPoolPanicKeepsCapacity(t *testing.T) {
	const workers = 3
	p := NewLabelerPool(Options{}, workers)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Label(nil) did not panic")
			}
		}()
		p.Label(nil) // nil image: panics inside the worker's Label
	}()

	// Every slot must still be present and usable: check out all
	// Workers() labelers without blocking, exercise each, return them.
	img := bitmap.Random(12, 0.5, 9)
	want := mustLabel(t, img, Options{})
	var held []*Labeler
	for i := 0; i < workers; i++ {
		select {
		case lb := <-p.free:
			held = append(held, lb)
		default:
			t.Fatalf("pool lost a worker: only %d of %d free after the panic", i, workers)
		}
	}
	for i, lb := range held {
		res, err := lb.Label(img)
		if err != nil {
			t.Fatalf("worker %d unusable after panic recovery: %v", i, err)
		}
		if !res.Labels.Equal(want.Labels) {
			t.Fatalf("worker %d mislabels after panic recovery", i)
		}
	}
	for _, lb := range held {
		p.free <- lb
	}
	if got, err := p.Label(img); err != nil || !got.Labels.Equal(want.Labels) {
		t.Fatalf("pool unusable after refill: %v", err)
	}
}

// TestLabelerPoolLabelWith: per-call options take effect for exactly
// that call — the worker reverts to the pool's options afterwards — and
// results match a one-shot Label under the same options.
func TestLabelerPoolLabelWith(t *testing.T) {
	img := bitmap.MustParse("#.#\n.#.\n#.#")
	pool := NewLabelerPool(Options{}, 1)

	conn8 := Options{Connectivity: bitmap.Conn8}
	want8 := mustLabel(t, img, conn8)
	got8, err := pool.LabelWith(img, conn8)
	if err != nil {
		t.Fatal(err)
	}
	if !got8.Labels.Equal(want8.Labels) || got8.Metrics.Time != want8.Metrics.Time {
		t.Fatal("LabelWith(conn8) diverged from one-shot Label")
	}

	want4 := mustLabel(t, img, Options{})
	got4, err := pool.Label(img)
	if err != nil {
		t.Fatal(err)
	}
	if !got4.Labels.Equal(want4.Labels) || got4.Metrics.Time != want4.Metrics.Time {
		t.Fatal("pool options did not revert after LabelWith")
	}

	// Strip-mined per-request options flow through to the tiler.
	big := bitmap.Random(48, 0.5, 3)
	wantL := mustLabel(t, big, Options{})
	gotL, err := pool.LabelWith(big, Options{ArrayWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !gotL.Labels.Equal(wantL.Labels) {
		t.Fatal("LabelWith(ArrayWidth) mislabels")
	}
	if gotL.Metrics.N != 16 {
		t.Fatalf("strip-mined run reports array width %d, want 16", gotL.Metrics.N)
	}
}

// TestLabelerPoolAggregateWith: per-call aggregation (RunWith under a
// monoid) matches the one-shot Aggregate, and an error restores the worker and its
// options.
func TestLabelerPoolAggregateWith(t *testing.T) {
	img := bitmap.MustParse("##.\n.#.\n..#")
	pool := NewLabelerPool(Options{}, 1)
	ctx := context.Background()
	want, err := Aggregate(img, Ones(img), Sum(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := Sum()
	got, err := pool.RunWith(ctx, img, Ones(img), &sum, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PerPixel {
		if want.PerPixel[i] != got.PerPixel[i] {
			t.Fatalf("PerPixel[%d] = %d, want %d", i, got.PerPixel[i], want.PerPixel[i])
		}
	}

	// A strip-mined aggregate runs through the tiler and matches the
	// whole-image fold; a bad call errors and the worker must come back
	// with the pool's own options intact.
	strip, err := pool.RunWith(ctx, img, Ones(img), &sum, Options{ArrayWidth: 2})
	if err != nil {
		t.Fatalf("strip-mined RunWith: %v", err)
	}
	for i := range want.PerPixel {
		if want.PerPixel[i] != strip.PerPixel[i] {
			t.Fatalf("strip-mined PerPixel[%d] = %d, want %d", i, strip.PerPixel[i], want.PerPixel[i])
		}
	}
	if _, err := pool.RunWith(ctx, img, Ones(img), &Monoid{Name: "broken"}, Options{}); err == nil {
		t.Fatal("monoid without Combine did not error")
	}
	if pool.Idle() != 1 {
		t.Fatalf("worker not returned after RunWith error: Idle() = %d", pool.Idle())
	}
	if res, err := pool.Label(img); err != nil || !res.Labels.Equal(mustLabel(t, img, Options{}).Labels) {
		t.Fatalf("pool unusable after RunWith error: %v", err)
	}
}
