package core

import (
	"context"
	"sync/atomic"
	"testing"

	"slapcc/internal/bitmap"
)

func randomFrames(n, count int) []*bitmap.Bitmap {
	frames := make([]*bitmap.Bitmap, count)
	for i := range frames {
		frames[i] = bitmap.Random(n, 0.5, uint64(i+1))
	}
	return frames
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
	frames := randomFrames(23, calls)
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
				res, err := pool.LabelWith(frames[i], Options{})
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
				t.Fatal("LabelWith(nil) did not panic")
			}
		}()
		p.LabelWith(nil, Options{}) // nil image: panics inside the worker's run
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
	if got, err := p.LabelWith(img, Options{}); err != nil || !got.Labels.Equal(want.Labels) {
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

	// The pool's one worker, checked out directly, labels under the
	// pool's own options again.
	want4 := mustLabel(t, img, Options{})
	lb := <-pool.free
	got4, err := lb.Label(img)
	pool.free <- lb
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
	if res, err := pool.LabelWith(img, Options{}); err != nil || !res.Labels.Equal(mustLabel(t, img, Options{}).Labels) {
		t.Fatalf("pool unusable after RunWith error: %v", err)
	}
}
