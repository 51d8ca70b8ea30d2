package sweet

import (
	"fmt"
	"runtime"
	"time"

	"slapcc/internal/benchfmt"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/slap"
)

// withGMP runs f at GOMAXPROCS p and restores the previous setting.
// The core scenarios sweep this process-wide knob — safe here because
// scenarios run strictly sequentially and nothing else is in flight.
func withGMP(p int, f func() error) error {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	return f()
}

// sampleMBs measures f (which must process `pixels` pixels per call)
// count times, framesPer calls per sample, returning MB/s samples.
// ≥ 3 samples is what lets a later diff use the significance test
// instead of the loose point heuristic.
func sampleMBs(count, framesPer int, pixels int64, f func() error) ([]float64, error) {
	samples := make([]float64, count)
	for s := range samples {
		t0 := time.Now()
		for k := 0; k < framesPer; k++ {
			if err := f(); err != nil {
				return nil, err
			}
		}
		samples[s] = float64(pixels*int64(framesPer)) / 1e6 / time.Since(t0).Seconds()
	}
	return samples, nil
}

// sampled builds a gated throughput Result from raw samples.
func sampled(name string, samples []float64, attrs map[string]string) benchfmt.Result {
	r := benchfmt.Result{
		Name: name, Unit: "MB/s", Better: benchfmt.HigherIsBetter,
		Samples: samples, Attrs: attrs,
	}
	r.Value = r.Mean()
	return r
}

// runEngine: the PR 2/PR 8 engine matrix — the simulator, the host
// engine, and the bit-serial cost model.
func runEngine(cfg Config) ([]benchfmt.Result, error) {
	n := cfg.scale(1024, 128)
	img := bitmap.Random(n, 0.5, cfg.Seed)
	pixels := int64(n) * int64(n)
	label := func(opt core.Options) func() error {
		return func() error {
			_, err := core.Label(img, opt)
			return err
		}
	}
	var res []benchfmt.Result

	seq, err := sampleMBs(cfg.Count, 1, pixels, label(core.Options{}))
	if err != nil {
		return nil, err
	}
	res = append(res, sampled("core/engine-seq/mb_per_s", seq, nil))

	host, err := sampleMBs(cfg.Count, cfg.scale(8, 2), pixels, label(core.Options{Engine: core.EngineHost}))
	if err != nil {
		return nil, err
	}
	res = append(res, sampled("core/engine-host/mb_per_s", host, nil))

	bits, err := sampleMBs(cfg.Count, 1, pixels,
		label(core.Options{Cost: slap.BitSerial(slap.WordBitsForDims(n, n))}))
	if err != nil {
		return nil, err
	}
	res = append(res, sampled("core/engine-bitserial/mb_per_s", bits, nil))
	return res, nil
}

// runStream: the frame-streaming subsystem across worker counts, each
// measured with GOMAXPROCS matched to the worker count. One worker is
// the synchronous delegate path; more workers exercise the fan-out and
// in-order collector.
func runStream(cfg Config) ([]benchfmt.Result, error) {
	n := cfg.scale(256, 64)
	frames := cfg.scale(16, 4)
	imgs := make([]*bitmap.Bitmap, frames)
	for i := range imgs {
		imgs[i] = bitmap.Random(n, 0.5, cfg.Seed+uint64(i))
	}
	pixels := int64(n) * int64(n) * int64(frames)
	var res []benchfmt.Result
	for _, w := range []int{1, 2, 4} {
		runOnce := func() error {
			var streamErr error
			s := core.NewLabelStream(core.Options{}, w, func(r core.StreamResult) {
				if r.Err != nil && streamErr == nil {
					streamErr = r.Err
				}
			})
			for _, img := range imgs {
				s.Submit(img)
			}
			s.Close()
			return streamErr
		}
		var samples []float64
		err := withGMP(w, func() error {
			var err error
			samples, err = sampleMBs(cfg.Count, 1, pixels, runOnce)
			return err
		})
		if err != nil {
			return nil, err
		}
		res = append(res, sampled(fmt.Sprintf("core/stream/w%d/mb_per_s", w), samples,
			map[string]string{"workers": fmt.Sprint(w), "frames": fmt.Sprint(frames)}))
	}
	return res, nil
}

// runStripWorkers: strip-mined labeling with the strips fanned across a
// worker pool — the LabelLarge multicore path. Composed metrics are
// bit-identical at every width (other tests enforce it); this measures
// what the fan-out buys in wall time.
func runStripWorkers(cfg Config) ([]benchfmt.Result, error) {
	n, aw := cfg.scale(1024, 128), cfg.scale(128, 32)
	img := bitmap.Random(n, 0.5, cfg.Seed)
	pixels := int64(n) * int64(n)
	var res []benchfmt.Result
	for _, w := range []int{1, 2, 4} {
		opt := core.Options{ArrayWidth: aw, StripWorkers: w}
		var samples []float64
		err := withGMP(w, func() error {
			var err error
			samples, err = sampleMBs(cfg.Count, 1, pixels, func() error {
				_, err := core.Label(img, opt)
				return err
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		res = append(res, sampled(fmt.Sprintf("core/stripworkers/w%d/mb_per_s", w), samples,
			map[string]string{"workers": fmt.Sprint(w), "array_width": fmt.Sprint(aw)}))
	}
	return res, nil
}

// runReuse: steady-state throughput and per-frame allocations of one
// reused Labeler — the arena-reuse contract from the PR 2 baseline.
func runReuse(cfg Config) ([]benchfmt.Result, error) {
	n := cfg.scale(256, 64)
	frames := cfg.scale(8, 4)
	imgs := make([]*bitmap.Bitmap, frames)
	for i := range imgs {
		imgs[i] = bitmap.Random(n, 0.5, cfg.Seed+uint64(i))
	}
	pixels := int64(n) * int64(n) * int64(frames)
	lb := core.NewLabeler(core.Options{})
	runOnce := func() error {
		for _, img := range imgs {
			if _, err := lb.Label(img); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm the arenas before measuring either time or allocations.
	if err := runOnce(); err != nil {
		return nil, err
	}
	samples, err := sampleMBs(cfg.Count, 1, pixels, runOnce)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := runOnce(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(frames)
	return []benchfmt.Result{
		sampled("core/reuse/mb_per_s", samples, nil),
		{Name: "core/reuse/allocs_per_frame", Unit: "allocs/frame", Value: allocs},
	}, nil
}
