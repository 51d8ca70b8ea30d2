package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"slapcc/internal/bitmap"
)

// stripRunsFor labels each strip of img as an independent whole-image
// run over a *materialized* sub-image — exactly what a remote backend
// sees on the wire — and returns the StripRuns in strip order.
func stripRunsFor(t *testing.T, img *bitmap.Bitmap, opt Options) []StripRun {
	t.Helper()
	w, h := img.W(), img.H()
	aw := opt.ArrayWidth
	strips := (w + aw - 1) / aw
	stripOpt := opt
	stripOpt.ArrayWidth = 0
	stripOpt.StripWorkers = 0
	runs := make([]StripRun, strips)
	for s := 0; s < strips; s++ {
		x0, sw := stripSpan(w, aw, s)
		res := mustLabel(t, img.SubImage(x0, 0, sw, h), stripOpt)
		runs[s] = StripRun{Labels: res.Labels, Metrics: res.Metrics, UF: res.UF, Speculation: res.Speculation}
	}
	return runs
}

// TestComposeStripsMatchesLabelLarge is the cluster seam's contract:
// strips labeled independently over materialized sub-images (the wire
// shape) and stitched by ComposeStrips must reproduce the strip-mined
// Label bit-for-bit — labels, composed metrics under both schedule models,
// seam phases under both seam models, and the union–find report.
func TestComposeStripsMatchesLabelLarge(t *testing.T) {
	const n = 40
	for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
		for _, seam := range []SeamModel{SeamDistributed, SeamHost} {
			for _, sched := range []ScheduleModel{ScheduleSequential, SchedulePipelined} {
				for _, fam := range []string{"random50", "vserpentine", "spiral"} {
					f, ok := bitmap.FamilyByName(fam)
					if !ok {
						t.Fatalf("family %s missing", fam)
					}
					img := f.Generate(n)
					opt := Options{Connectivity: conn, Seam: seam, Schedule: sched, ArrayWidth: 16}
					want := mustLabelLarge(t, img, opt)
					got, err := ComposeStrips(img, stripRunsFor(t, img, opt), nil, opt)
					if err != nil {
						t.Fatalf("%s/conn%d/%s/%s: ComposeStrips: %v", fam, conn, seam, sched, err)
					}
					if !got.Labels.Equal(want.Labels) {
						t.Errorf("%s/conn%d/%s/%s: composed labels diverged", fam, conn, seam, sched)
					}
					if !reflect.DeepEqual(got.Metrics, want.Metrics) {
						t.Errorf("%s/conn%d/%s/%s: composed metrics diverged:\n got %+v\nwant %+v",
							fam, conn, seam, sched, got.Metrics, want.Metrics)
					}
					if !reflect.DeepEqual(got.UF, want.UF) {
						t.Errorf("%s/conn%d/%s/%s: composed UF report diverged: got %+v want %+v",
							fam, conn, seam, sched, got.UF, want.UF)
					}
					if got.Speculation != want.Speculation {
						t.Errorf("%s/conn%d/%s/%s: speculation stats diverged", fam, conn, seam, sched)
					}
				}
			}
		}
	}
}

// TestComposeAggregateStripsMatchesAggregateLarge is the aggregation
// half of the same contract: per-strip Corollary-4 folds over
// materialized sub-images, composed under the monoid, must equal the
// strip-mined Aggregate bit-for-bit.
func TestComposeAggregateStripsMatchesAggregateLarge(t *testing.T) {
	img := bitmap.Random(40, 0.5, 0xC0FFEE)
	w, h := img.W(), img.H()
	initial := Ones(img)
	for _, op := range []Monoid{Sum(), Min()} {
		for _, sched := range []ScheduleModel{ScheduleSequential, SchedulePipelined} {
			opt := Options{ArrayWidth: 16, Schedule: sched}
			want, err := Aggregate(img, initial, op, opt)
			if err != nil {
				t.Fatalf("Aggregate: %v", err)
			}
			aw := opt.ArrayWidth
			strips := (w + aw - 1) / aw
			stripOpt := opt
			stripOpt.ArrayWidth = 0
			runs := make([]StripRun, strips)
			for s := 0; s < strips; s++ {
				x0, sw := stripSpan(w, aw, s)
				res, err := Aggregate(img.SubImage(x0, 0, sw, h), initial[x0*h:(x0+sw)*h], op, stripOpt)
				if err != nil {
					t.Fatalf("strip %d: Aggregate: %v", s, err)
				}
				runs[s] = StripRun{Labels: res.Labels, Metrics: res.Metrics, UF: res.UF, PerPixel: res.PerPixel}
			}
			got, err := ComposeStrips(img, runs, &op, opt)
			if err != nil {
				t.Fatalf("ComposeStrips: %v", err)
			}
			if !got.Labels.Equal(want.Labels) {
				t.Errorf("%s/%s: composed labels diverged", op.Name, sched)
			}
			if !reflect.DeepEqual(got.PerPixel, want.PerPixel) {
				t.Errorf("%s/%s: composed per-pixel folds diverged", op.Name, sched)
			}
			if !reflect.DeepEqual(got.Metrics, want.Metrics) {
				t.Errorf("%s/%s: composed metrics diverged", op.Name, sched)
			}
			if !reflect.DeepEqual(got.UF, want.UF) {
				t.Errorf("%s/%s: composed UF report diverged", op.Name, sched)
			}
		}
	}
}

// TestComposeStripsValidation pins the precondition errors: bad array
// width, wrong strip count, wrong strip dimensions, missing per-pixel
// folds on aggregation composes.
func TestComposeStripsValidation(t *testing.T) {
	img := bitmap.Random(20, 0.5, 7)
	opt := Options{ArrayWidth: 8}
	runs := stripRunsFor(t, img, opt)

	if _, err := ComposeStrips(img, runs, nil, Options{ArrayWidth: 0}); err == nil {
		t.Error("ArrayWidth 0 accepted")
	}
	if _, err := ComposeStrips(img, runs, nil, Options{ArrayWidth: 20}); err == nil {
		t.Error("ArrayWidth == image width accepted")
	}
	if _, err := ComposeStrips(img, runs[:2], nil, opt); err == nil {
		t.Error("wrong strip count accepted")
	}
	bad := append([]StripRun(nil), runs...)
	bad[1].Labels = bitmap.NewLabelMap(3, 3)
	if _, err := ComposeStrips(img, bad, nil, opt); err == nil {
		t.Error("wrong strip dimensions accepted")
	}
	bad = append([]StripRun(nil), runs...)
	bad[0].Labels = nil
	if _, err := ComposeStrips(img, bad, nil, opt); err == nil {
		t.Error("nil strip labels accepted")
	}
	sum := Sum()
	if _, err := ComposeStrips(img, runs, &sum, opt); err == nil {
		t.Error("aggregation compose without per-pixel folds accepted")
	}
	if _, err := ComposeStrips(img, runs, &Monoid{Name: "broken"}, opt); err == nil {
		t.Error("monoid without Combine accepted")
	}
}

// countdownCtx cancels itself after its Err method has been polled n
// times — a deterministic stand-in for "the client hung up mid-run".
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestLabelCtxCancelsBetweenStrips exercises the satellite contract: a
// strip-mined run polls its context between strips and stops early,
// returning an error that unwraps to context.Canceled. Poll budget 2 =
// the entry check plus strip 0's check, so the run dies before strip 1
// of 5.
func TestLabelCtxCancelsBetweenStrips(t *testing.T) {
	img := bitmap.Random(40, 0.5, 3)
	lb := NewLabeler(Options{ArrayWidth: 8})
	sum := Sum()
	ctx := &countdownCtx{Context: context.Background(), n: 2}
	if _, err := lb.Run(ctx, img, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under mid-run cancellation: got %v, want context.Canceled", err)
	}
	// The labeler must shed the dead context: the same arenas label fine
	// on the next (uncancelled) run.
	if _, err := lb.Label(img); err != nil {
		t.Fatalf("Label after a cancelled run: %v", err)
	}

	// Aggregation path, same budget arithmetic.
	ctx = &countdownCtx{Context: context.Background(), n: 2}
	if _, err := lb.Run(ctx, img, Ones(img), &sum); !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregating Run under mid-run cancellation: got %v, want context.Canceled", err)
	}

	// Already-cancelled context: rejected on entry, before any work.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lb.Run(done, img, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with pre-cancelled ctx: got %v, want context.Canceled", err)
	}
}

// deadlineCtx is countdownCtx for deadlines: Err flips to
// DeadlineExceeded after n polls — "the request's time budget ran out
// mid-run".
type deadlineCtx struct {
	context.Context
	n int
}

func (c *deadlineCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.DeadlineExceeded
}

// TestLabelCtxDeadlineBetweenStrips: an expiring deadline budget stops
// a strip-mined run between strips exactly as a cancellation does, and
// the error unwraps to context.DeadlineExceeded — the distinction slapd
// uses to answer 504 (server out of time) instead of 499 (client hung
// up).
func TestLabelCtxDeadlineBetweenStrips(t *testing.T) {
	img := bitmap.Random(40, 0.5, 3)
	lb := NewLabeler(Options{ArrayWidth: 8})
	sum := Sum()
	ctx := &deadlineCtx{Context: context.Background(), n: 2}
	_, err := lb.Run(ctx, img, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run under mid-run expiry: got %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("expiry error also claims context.Canceled")
	}
	// The labeler sheds the expired context and keeps working.
	if _, err := lb.Label(img); err != nil {
		t.Fatalf("Label after an expired run: %v", err)
	}

	ctx = &deadlineCtx{Context: context.Background(), n: 2}
	if _, err := lb.Run(ctx, img, Ones(img), &sum); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("aggregating Run under mid-run expiry: got %v, want context.DeadlineExceeded", err)
	}
}

// TestPoolLabelWithCtx covers the pool's context entry: a live context
// passes through to a normal run; a cancelled one aborts — in the
// worker wait or between strips — with a wrapped context error.
func TestPoolLabelWithCtx(t *testing.T) {
	img := bitmap.Random(24, 0.5, 9)
	pool := NewLabelerPool(Options{}, 1)
	opt := Options{ArrayWidth: 8}
	sum := Sum()

	res, err := pool.RunWith(context.Background(), img, nil, nil, opt)
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	want := mustLabelLarge(t, img, opt)
	if !res.Labels.Equal(want.Labels) {
		t.Error("RunWith diverged from the strip-mined Label")
	}

	agg, err := pool.RunWith(context.Background(), img, Ones(img), &sum, opt)
	if err != nil {
		t.Fatalf("aggregating RunWith: %v", err)
	}
	if agg.Labels == nil || len(agg.PerPixel) != img.W()*img.H() {
		t.Error("aggregating RunWith returned a malformed result")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.RunWith(cancelled, img, nil, nil, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWith with cancelled ctx: got %v, want context.Canceled", err)
	}
	if _, err := pool.RunWith(cancelled, img, Ones(img), &sum, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregating RunWith with cancelled ctx: got %v, want context.Canceled", err)
	}
}
