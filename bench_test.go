// Benchmarks: one per reproduction experiment (the E1–E13 index lives
// in internal/harness; docs/METRICS.md defines what the step counts
// mean). Each benchmark runs a representative configuration of its
// experiment and reports the simulated SLAP step counts as custom
// metrics ("simsteps"), so `go test -bench=.` regenerates the headline
// numbers; the full sweeps come from cmd/slapbench, and the end-to-end
// serving numbers from perfbench (docs/BENCHMARKING.md).
package slapcc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"slapcc/api"
	"slapcc/internal/baseline"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/lowerbound"
	"slapcc/internal/obs"
	"slapcc/internal/server"
	"slapcc/internal/slap"
	"slapcc/internal/stats"
	"slapcc/internal/unionfind"
)

const benchN = 256

func benchLabel(b *testing.B, img *bitmap.Bitmap, opt core.Options) *core.Result {
	b.Helper()
	b.ReportAllocs()
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.Label(img, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// BenchmarkE1UnitCostLinear — Lemma 2: O(n) under unit-cost union–find.
func BenchmarkE1UnitCostLinear(b *testing.B) {
	img := bitmap.Random(benchN, 0.5, 1)
	res := benchLabel(b, img, core.Options{UnitCostUF: true})
	b.ReportMetric(float64(res.Metrics.Time), "simsteps")
	b.ReportMetric(float64(res.Metrics.Time)/benchN, "simsteps/n")
}

// BenchmarkE2TarjanScaling — §3: O(n lg n) worst case with Tarjan UF.
func BenchmarkE2TarjanScaling(b *testing.B) {
	img := bitmap.BinaryMerge(benchN)
	res := benchLabel(b, img, core.Options{})
	b.ReportMetric(float64(res.Metrics.Time), "simsteps")
	b.ReportMetric(float64(res.Metrics.Time)/(benchN*stats.Log2(benchN)), "simsteps/nlgn")
}

// BenchmarkE3BlumScaling — Theorem 3: O(n lg n / lg lg n) with k-UF trees.
func BenchmarkE3BlumScaling(b *testing.B) {
	img := bitmap.BinaryMerge(benchN)
	res := benchLabel(b, img, core.Options{UF: unionfind.KindBlum})
	b.ReportMetric(float64(res.Metrics.Time), "simsteps")
	b.ReportMetric(float64(res.UF.MaxOpCost), "maxopcost")
}

// BenchmarkE4PerFamily — §3: near-O(n) on typical images (random50).
func BenchmarkE4PerFamily(b *testing.B) {
	for _, name := range []string{"random50", "checker", "spiral", "fig3a"} {
		fam, _ := bitmap.FamilyByName(name)
		img := fam.Generate(benchN)
		b.Run(name, func(b *testing.B) {
			res := benchLabel(b, img, core.Options{})
			b.ReportMetric(float64(res.Metrics.Time)/benchN, "simsteps/n")
		})
	}
}

// BenchmarkE5IdleCompression — §3 heuristic ablation.
func BenchmarkE5IdleCompression(b *testing.B) {
	img := bitmap.VSerpentine(benchN)
	for _, idle := range []bool{false, true} {
		name := "off"
		if idle {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			res := benchLabel(b, img, core.Options{IdleCompression: idle})
			b.ReportMetric(float64(res.Metrics.Time), "simsteps")
		})
	}
}

// BenchmarkE6Aggregate — Corollary 4 extension overhead.
func BenchmarkE6Aggregate(b *testing.B) {
	img := bitmap.Random(benchN, 0.5, 1)
	b.ReportAllocs()
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.Aggregate(img, core.Ones(img), core.Sum(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Metrics.Time), "simsteps")
}

// BenchmarkE7BitSerial — Theorem 5: Ω(n lg n) on 1-bit links.
func BenchmarkE7BitSerial(b *testing.B) {
	b.ReportAllocs()
	var last lowerbound.Datapoint
	for i := 0; i < b.N; i++ {
		d, err := lowerbound.Measure(benchN, 1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(float64(last.BitSteps), "bitsteps")
	b.ReportMetric(float64(last.BoundSteps), "boundsteps")
	b.ReportMetric(last.RatioToBound(), "ratio")
}

// BenchmarkE8Baselines — prior SLAP approaches vs Algorithm CC.
func BenchmarkE8Baselines(b *testing.B) {
	img := bitmap.Random(benchN, 0.5, 1)
	b.Run("cc", func(b *testing.B) {
		res := benchLabel(b, img, core.Options{})
		b.ReportMetric(float64(res.Metrics.Time), "simsteps")
	})
	b.Run("blockmerge", func(b *testing.B) {
		b.ReportAllocs()
		var last *baseline.Result
		for i := 0; i < b.N; i++ {
			res, err := baseline.BlockMerge(img)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.Metrics.Time), "simsteps")
	})
	small := bitmap.HSerpentine(64)
	b.Run("naive64serp", func(b *testing.B) {
		b.ReportAllocs()
		var last *baseline.Result
		for i := 0; i < b.N; i++ {
			res, err := baseline.NaivePropagation(small, 0)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.Metrics.Time), "simsteps")
	})
}

// BenchmarkE9HardImages — the paper's Figure 3 textures.
func BenchmarkE9HardImages(b *testing.B) {
	for _, fig := range []struct {
		name string
		gen  func(int) *bitmap.Bitmap
	}{{"fig3a", bitmap.Fig3a}, {"fig3b", bitmap.Fig3b}} {
		img := fig.gen(benchN)
		b.Run(fig.name, func(b *testing.B) {
			res := benchLabel(b, img, core.Options{})
			b.ReportMetric(float64(res.Metrics.Time)/benchN, "simsteps/n")
		})
	}
}

// BenchmarkE10UFVariants — union–find variant ablation.
func BenchmarkE10UFVariants(b *testing.B) {
	img := bitmap.BinaryMerge(benchN)
	for _, kind := range unionfind.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			res := benchLabel(b, img, core.Options{UF: kind})
			b.ReportMetric(float64(res.Metrics.Time), "simsteps")
			b.ReportMetric(float64(res.UF.MaxOpCost), "maxopcost")
		})
	}
}

// BenchmarkE11Speculation — §3 speculative forwarding ablation.
func BenchmarkE11Speculation(b *testing.B) {
	img := bitmap.HSerpentine(benchN)
	for _, spec := range []bool{false, true} {
		name := "off"
		if spec {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			res := benchLabel(b, img, core.Options{Speculate: spec})
			b.ReportMetric(float64(res.Metrics.Time), "simsteps")
			b.ReportMetric(float64(res.Speculation.Wasted), "wasted")
		})
	}
}

// BenchmarkEngineThroughput contrasts the two execution engines on the
// same frame: "sim" and "sim-bitserial" run the metered simulator
// (what every experiment number comes from), "host" answers the same
// labeling question with the word-parallel host engine — identical
// labels and folds, no simulation. The MB/s gap is the price of
// metering, and what makes the host engine the free verification
// oracle for soaks (cost=host on the wire). The "sim" row is the raw
// host-side simulation speed (pixels simulated per wall second), the
// series earlier runs recorded as BenchmarkSimulatorThroughput/seq.
// "host-2048" is a frame large enough for the host engine to label in
// column bands, one per core (internal/hostcc), so the CI comparator
// tracks the banded kernel.
func BenchmarkEngineThroughput(b *testing.B) {
	const n = 1024
	img := bitmap.Random(n, 0.5, 1)
	big := bitmap.Random(2*n, 0.5, 1)
	for _, mode := range []struct {
		name string
		img  *bitmap.Bitmap
		opt  core.Options
	}{
		{"sim", img, core.Options{}},
		{"sim-bitserial", img, core.Options{Cost: slap.BitSerial(slap.WordBitsForDims(n, n))}},
		{"host", img, core.Options{Engine: core.EngineHost}},
		{"host-2048", big, core.Options{Engine: core.EngineHost}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(mode.img.W() * mode.img.H()))
			benchLabel(b, mode.img, mode.opt)
		})
	}
}

// BenchmarkUnionFindKinds measures host-side op throughput per structure,
// reusing one structure via Reset the way the simulator does.
func BenchmarkUnionFindKinds(b *testing.B) {
	const n = 1 << 14
	for _, kind := range unionfind.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			u, _ := unionfind.Make(kind, n)
			for i := 0; i < b.N; i++ {
				u.Reset(n)
				for span := 1; span < n; span *= 2 {
					for base := 0; base+span < n; base += 2 * span {
						u.Union(base, base+span)
					}
				}
				for j := 0; j < n; j++ {
					u.Find(j)
				}
			}
		})
	}
}

// BenchmarkLabelerReuse contrasts the one-shot Label with an explicit
// reused Labeler on a stream of distinct frames — the videopipeline
// scenario. The reused labeler's only steady-state allocations are the
// returned results; the one-shot path pays pool traffic per call and is
// the fair baseline for it.
func BenchmarkLabelerReuse(b *testing.B) {
	const n, frames = 256, 8
	stream := make([]*bitmap.Bitmap, frames)
	for i := range stream {
		stream[i] = bitmap.Random(n, 0.5, uint64(i+1))
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(frames * n * n))
		for i := 0; i < b.N; i++ {
			for _, img := range stream {
				if _, err := core.Label(img, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(frames * n * n))
		lab := core.NewLabeler(core.Options{})
		for i := 0; i < b.N; i++ {
			for _, img := range stream {
				if _, err := lab.Label(img); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkLabelLarge measures the strip-mined path end to end: a
// 1024×1024 frame labeled on a 128-wide array (8 strips + seam merge),
// sequentially on one warm arena set and fanned across worker labelers.
// "whole" is the same frame on a whole-image array for reference: the
// tiler's host-side overhead over it is the price of the fixed PE count.
func BenchmarkLabelLarge(b *testing.B) {
	const n, aw = 1024, 128
	img := bitmap.Random(n, 0.5, 1)
	for _, mode := range []struct {
		name string
		opt  core.Options
	}{
		{"whole", core.Options{}},
		{"strips-seq", core.Options{ArrayWidth: aw}},
		{"strips-pool", core.Options{ArrayWidth: aw, StripWorkers: 8}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n * n))
			lab := core.NewLabeler(mode.opt)
			for i := 0; i < b.N; i++ {
				if _, err := lab.Label(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStripCompose times the coordinator's in-process half of one
// strip-mined host request, as slapfront serves cluster-labels: a 512²
// random-0.5 frame at array=128 cut into four SLR1 strip bodies, the
// four strip answers rebuilt from their labels frames, composed,
// summarized, and the composed answer written as a labels frame. The
// strip answers are labeled once, before the timer; MB/s counts frame
// pixels.
func BenchmarkStripCompose(b *testing.B) {
	const n, aw = 512, 128
	img := bitmap.Random(n, 0.5, 1)
	opt := core.Options{Engine: core.EngineHost, ArrayWidth: aw}
	stripOpt := core.Options{Engine: core.EngineHost}
	var frames [][]byte
	for x0 := 0; x0 < n; x0 += aw {
		res, err := core.Label(img.SubImage(x0, 0, aw, n), stripOpt)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := api.AppendLabelsFrame(nil, server.ToLabelResponse(res, true))
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
	}
	runs := make([]core.StripRun, len(frames))
	b.ReportAllocs()
	b.SetBytes(n * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range frames {
			if body := img.StripView(s*aw, aw).AppendRaw(nil); len(body) == 0 {
				b.Fatal("empty strip body")
			}
			var resp api.AggregateResponse
			if err := api.ReadLabelsFrame(bytes.NewReader(frames[s]), &resp.LabelResponse, aw*n); err != nil {
				b.Fatal(err)
			}
			run, err := server.ToStripRun(&resp, aw, n, false)
			if err != nil {
				b.Fatal(err)
			}
			runs[s] = run
		}
		res, err := core.ComposeStrips(img, runs, nil, opt)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := api.NewLabelsFrame(server.Answer(server.ToAggregateResponse(res, nil, true), nil))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := frame.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead prices the request-tracing tax on the
// host-engine path at a small and a large frame; the bound is 2% of the
// untraced frames/s. The tax is per request, so the 128² frame shows
// what the 1024² one hides. "untraced" runs the pool
// with a bare context — every span hook is a nil check; "traced" builds
// a per-request trace and records the same pool/engine/strip spans
// slapd does, finishing and rendering the Server-Timing header each
// iteration.
func BenchmarkTraceOverhead(b *testing.B) {
	opt := core.Options{Engine: core.EngineHost, ArrayWidth: 256, SkipLabels: true}
	pool := core.NewLabelerPool(opt, 1)
	for _, n := range []int{128, 1024} {
		img := bitmap.Random(n, 0.5, 1)
		run := func(b *testing.B, ctxFor func() (context.Context, *obs.Trace)) {
			b.ReportAllocs()
			b.SetBytes(int64(n * n))
			for i := 0; i < b.N; i++ {
				ctx, tr := ctxFor()
				if _, err := pool.RunWith(ctx, img, nil, nil, opt); err != nil {
					b.Fatal(err)
				}
				if tr != nil {
					tr.Finish()
					if tr.ServerTiming() == "" {
						b.Fatal("empty Server-Timing")
					}
				}
			}
		}
		b.Run(fmt.Sprintf("n%d/untraced", n), func(b *testing.B) {
			run(b, func() (context.Context, *obs.Trace) { return context.Background(), nil })
		})
		b.Run(fmt.Sprintf("n%d/traced", n), func(b *testing.B) {
			run(b, func() (context.Context, *obs.Trace) {
				tr := obs.New("bench", "label", nil)
				return obs.ContextWith(context.Background(), tr.Root()), tr
			})
		})
	}
}
