package core

import (
	"fmt"
	"runtime"
	"slices"
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

// TestMulticoreHostStrips: a strip-mined host run answers the same at
// every strip fan-out and GOMAXPROCS — labels, folds, summary and UF
// report — with labels, without them (SkipLabels, which strip runs do
// not honor: the stitch reads their labels), and aggregating.
func TestMulticoreHostStrips(t *testing.T) {
	img := bitmap.RandomRect(300, 96, 0.5, 13)
	initial := make([]int32, img.W()*img.H())
	for i := range initial {
		initial[i] = int32(i%17) - 4
	}
	sum := Sum()
	type call struct {
		name string
		skip bool
		op   *Monoid
	}
	calls := []call{{"label", false, nil}, {"summary", true, nil}, {"sum", false, &sum}}
	run := func(t *testing.T, workers int) []*Result {
		var out []*Result
		for _, c := range calls {
			opt := Options{Engine: EngineHost, ArrayWidth: 37, StripWorkers: workers, SkipLabels: c.skip}
			out = append(out, mustRun(t, c.name, img, initial, c.op, opt))
		}
		return out
	}
	var want []*Result
	atGMP(t, 1, func(t *testing.T) { want = run(t, 0) })
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			for workers := 0; workers <= 8; workers++ {
				for i, got := range run(t, workers) {
					name := fmt.Sprintf("w%d %s", workers, calls[i].name)
					if !got.Labels.Equal(want[i].Labels) || !slices.Equal(got.PerPixel, want[i].PerPixel) {
						t.Errorf("%s: labels or folds differ from the sequential strips", name)
					}
					if *got.Summary != *want[i].Summary || got.UF != want[i].UF {
						t.Errorf("%s: summary %+v UF %+v, sequential %+v %+v", name, *got.Summary, got.UF, *want[i].Summary, want[i].UF)
					}
					requireHostShape(t, name, got)
				}
			}
		})
	}
}

// TestMulticoreHostBands: a host frame large enough to run in column
// bands (one per core, up to four here) answers exactly as it does on
// one core, where it runs as one band: the labels, the folds, the
// summary and the UF report, under both connectivities, with labels,
// without them, and aggregating.
func TestMulticoreHostBands(t *testing.T) {
	img := bitmap.RandomRect(1024, 512, 0.55, 11)
	initial := make([]int32, img.W()*img.H())
	for i := range initial {
		initial[i] = int32(i%29) - 9
	}
	type answer struct{ label, summary, agg *Result }
	run := func(t *testing.T, conn bitmap.Connectivity) answer {
		opt := Options{Engine: EngineHost, Connectivity: conn}
		var a answer
		a.label = mustLabel(t, img, opt)
		opt.SkipLabels = true
		a.summary = mustLabel(t, img, opt)
		opt.SkipLabels = false
		var err error
		if a.agg, err = Aggregate(img, initial, Sum(), opt); err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
		var want answer
		atGMP(t, 1, func(t *testing.T) { want = run(t, conn) })
		for _, p := range gmpSweep[1:] {
			atGMP(t, p, func(t *testing.T) {
				got := run(t, conn)
				for _, c := range []struct {
					name      string
					got, want *Result
				}{{"label", got.label, want.label}, {"summary", got.summary, want.summary}, {"aggregate", got.agg, want.agg}} {
					if *c.got.Summary != *c.want.Summary || c.got.UF != c.want.UF {
						t.Errorf("conn%d %s: summary %+v UF %+v, one core %+v %+v", conn, c.name, *c.got.Summary, c.got.UF, *c.want.Summary, c.want.UF)
					}
					if (c.got.Labels == nil) != (c.want.Labels == nil) || c.got.Labels != nil && !c.got.Labels.Equal(c.want.Labels) {
						t.Errorf("conn%d %s: labels differ from one core", conn, c.name)
					}
					if !slices.Equal(c.got.PerPixel, c.want.PerPixel) {
						t.Errorf("conn%d %s: per-pixel folds differ from one core", conn, c.name)
					}
				}
			})
		}
	}
}
