package core

import (
	"fmt"
	"runtime"
	"testing"

	"slapcc/internal/bitmap"
)

// atGMP runs f with GOMAXPROCS pinned to p, restoring it after. The
// multicore suites sweep this process-wide knob; no test in this repo
// uses t.Parallel, so nothing else observes the change.
func atGMP(t *testing.T, p int, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("gmp%d", p), func(t *testing.T) {
		old := runtime.GOMAXPROCS(p)
		defer runtime.GOMAXPROCS(old)
		f(t)
	})
}

var gmpSweep = []int{1, 2, 4}

// TestMulticoreStreamOrdering pins the LabelerPool/LabelStream delivery
// contract under contention: with more workers than procs and more
// procs than one, results still arrive strictly in submission order and
// bit-identical to a direct Label of the same frame.
func TestMulticoreStreamOrdering(t *testing.T) {
	const n, frames = 24, 32
	imgs := make([]*bitmap.Bitmap, frames)
	want := make([]*Result, frames)
	for i := range imgs {
		imgs[i] = bitmap.Random(n, 0.5, uint64(i)+1)
		want[i] = mustLabel(t, imgs[i], Options{})
	}
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			for _, workers := range []int{2, 4} {
				next := 0
				s := NewLabelStream(Options{}, workers, func(r StreamResult) {
					if r.Frame != next {
						t.Errorf("w%d: frame %d delivered at position %d", workers, r.Frame, next)
					}
					next++
					if r.Err != nil {
						t.Errorf("w%d: frame %d: %v", workers, r.Frame, r.Err)
						return
					}
					if !r.Result.Labels.Equal(want[r.Frame].Labels) {
						t.Errorf("w%d: frame %d labels differ from direct Label", workers, r.Frame)
					}
				})
				for _, img := range imgs {
					s.Submit(img)
				}
				s.Close()
				if next != frames {
					t.Errorf("w%d: sink saw %d frames, want %d", workers, next, frames)
				}
			}
		})
	}
}

// TestMulticoreStripWorkersDeterminism pins the strip fan-out contract:
// a strip-mined run's labels AND composed simulated metrics are
// bit-identical whether strips run sequentially or fanned across
// workers, at every GOMAXPROCS — the fan-out is a wall-clock
// optimization, never a semantic knob.
func TestMulticoreStripWorkersDeterminism(t *testing.T) {
	const n, aw = 96, 32
	img := bitmap.Random(n, 0.5, 7)
	base := mustLabel(t, img, Options{ArrayWidth: aw})
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			for _, workers := range []int{2, 4} {
				got := mustLabel(t, img, Options{ArrayWidth: aw, StripWorkers: workers})
				if !got.Labels.Equal(base.Labels) {
					t.Errorf("w%d: strip fan-out changed the labeling", workers)
				}
				if !metricsIdentical(t, base, got) {
					t.Errorf("w%d: strip fan-out changed composed metrics:\nbase %+v\ngot %+v",
						workers, base.Metrics, got.Metrics)
				}
			}
		})
	}
}

// TestMulticoreHostEngineStable: the host engine's canonical labels do
// not depend on GOMAXPROCS either.
func TestMulticoreHostEngineStable(t *testing.T) {
	const n = 64
	img := bitmap.Random(n, 0.5, 9)
	want := mustLabel(t, img, Options{})
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			host := mustLabel(t, img, Options{Engine: EngineHost})
			if !host.Labels.Equal(want.Labels) {
				t.Error("host engine labels diverged from simulator's canonical labels")
			}
		})
	}
}
