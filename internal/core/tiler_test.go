package core

import (
	"testing"

	"slapcc/internal/bitmap"
	"slapcc/internal/seqcc"
)

// mustLabelLarge is mustLabel through the strip-mined entry point.
func mustLabelLarge(t *testing.T, img *bitmap.Bitmap, opt Options) *Result {
	t.Helper()
	res, err := Label(img, opt)
	if err != nil {
		t.Fatalf("LabelLarge: %v", err)
	}
	return res
}

// TestLabelLargeMatchesGroundTruth sweeps families × array widths ×
// connectivities: the strip-mined labeling must be bit-identical to both
// the whole-image run and the sequential ground truth. ArrayWidth 1 is
// the stress extreme — every column boundary is a seam.
func TestLabelLargeMatchesGroundTruth(t *testing.T) {
	const n = 48
	for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
		for _, fam := range bitmap.Families() {
			img := fam.Generate(n)
			whole := mustLabel(t, img, Options{Connectivity: conn})
			if err := seqcc.CheckConn(img, whole.Labels, conn); err != nil {
				t.Fatalf("%s/conn%d: whole-image run wrong: %v", fam.Name, conn, err)
			}
			for _, aw := range []int{1, 7, 16, 48, 64} {
				res := mustLabelLarge(t, img, Options{Connectivity: conn, ArrayWidth: aw})
				if !res.Labels.Equal(whole.Labels) {
					t.Errorf("%s/conn%d/aw%d: strip-mined labeling diverged from whole-image run",
						fam.Name, conn, aw)
				}
			}
		}
	}
}

// TestLabelLargeNonSquareFuzz labels fuzzed non-square images through
// the tiler at several array widths and checks against the ground truth:
// the last strip is narrower than the array almost everywhere here.
func TestLabelLargeNonSquareFuzz(t *testing.T) {
	rng := bitmap.NewRNG(0xA11CE)
	for trial := 0; trial < 60; trial++ {
		w := 1 + rng.Intn(97)
		h := 1 + rng.Intn(53)
		density := 0.15 + 0.7*rng.Float64()
		img := bitmap.RandomRect(w, h, density, rng.Uint64())
		aw := 1 + rng.Intn(w)
		conn := bitmap.Conn4
		if trial%2 == 1 {
			conn = bitmap.Conn8
		}
		res := mustLabelLarge(t, img, Options{Connectivity: conn, ArrayWidth: aw})
		if err := seqcc.CheckConn(img, res.Labels, conn); err != nil {
			t.Fatalf("trial %d (%dx%d aw=%d conn%d): %v", trial, w, h, aw, conn, err)
		}
	}
}

// TestLabelLargeHuge is the production-scale check: every built-in
// family at 2048×2048 on a 256-wide array, bit-identical to the
// sequential ground truth. Conn8 rides along for two families.
func TestLabelLargeHuge(t *testing.T) {
	if testing.Short() {
		t.Skip("2048×2048 family sweep skipped in -short mode")
	}
	const n, aw = 2048, 256
	lab := NewLabeler(Options{ArrayWidth: aw})
	for _, fam := range bitmap.Families() {
		img := fam.Generate(n)
		res, err := lab.Label(img)
		if err != nil {
			t.Fatalf("%s: %v", fam.Name, err)
		}
		if err := seqcc.CheckConn(img, res.Labels, bitmap.Conn4); err != nil {
			t.Fatalf("%s: %v", fam.Name, err)
		}
	}
	for _, name := range []string{"random50", "hserpentine"} {
		fam, ok := bitmap.FamilyByName(name)
		if !ok {
			t.Fatalf("family %s missing", name)
		}
		img := fam.Generate(n)
		res, err := Label(img, Options{ArrayWidth: aw, Connectivity: bitmap.Conn8})
		if err != nil {
			t.Fatalf("%s/conn8: %v", name, err)
		}
		if err := seqcc.CheckConn(img, res.Labels, bitmap.Conn8); err != nil {
			t.Fatalf("%s/conn8: %v", name, err)
		}
	}
}

// TestLabelLargeSchedule pins the composed sequential schedule model:
// per-phase makespans of the composed report equal the sum of the
// per-strip phases, N is the array width, and the seam phases come
// last — "seam-merge" alone under SeamHost, then "seam-broadcast" and
// "seam-rewrite" under the default distributed relabel.
func TestLabelLargeSchedule(t *testing.T) {
	img := bitmap.Random(40, 0.5, 99)
	const aw = 16 // strips of 16, 16, 8

	// Strip runs are plain runs over the views; their phase makespans
	// must sum to the composed ones.
	var sum int64
	for _, x0 := range []int{0, 16, 32} {
		sw := 16
		if x0 == 32 {
			sw = 8
		}
		sub := img.SubImage(x0, 0, sw, img.H())
		r := mustLabel(t, sub, Options{})
		sum += r.Metrics.Time
	}

	res := mustLabelLarge(t, img, Options{ArrayWidth: aw, Seam: SeamHost})
	if res.Metrics.N != aw {
		t.Errorf("composed N = %d, want the array width %d", res.Metrics.N, aw)
	}
	last := res.Metrics.Phases[len(res.Metrics.Phases)-1]
	if last.Name != "seam-merge" {
		t.Fatalf("last composed phase is %q, want seam-merge under SeamHost", last.Name)
	}
	if last.Makespan <= 0 || last.Sends != int64(2*img.H()*2) {
		t.Errorf("seam-merge phase %+v: want positive makespan and 2h sends per seam (2 seams)", last)
	}
	if got := res.Metrics.Time - last.Makespan; got != sum {
		t.Errorf("composed strip time %d, want Σ strip makespans %d", got, sum)
	}

	// Distributed relabel (the default): the remap broadcast and per-PE
	// rewrite are their own array phases after seam-merge, and the strip
	// portion of the composed time is unchanged.
	dist := mustLabelLarge(t, img, Options{ArrayWidth: aw})
	n := len(dist.Metrics.Phases)
	names := []string{dist.Metrics.Phases[n-3].Name, dist.Metrics.Phases[n-2].Name, dist.Metrics.Phases[n-1].Name}
	if names[0] != "seam-merge" || names[1] != "seam-broadcast" || names[2] != "seam-rewrite" {
		t.Fatalf("trailing composed phases are %v, want [seam-merge seam-broadcast seam-rewrite]", names)
	}
	var seamTime int64
	for _, p := range dist.Metrics.Phases[n-3:] {
		seamTime += p.Makespan
	}
	if got := dist.Metrics.Time - seamTime; got != sum {
		t.Errorf("distributed: composed strip time %d, want Σ strip makespans %d", got, sum)
	}
	if !dist.Labels.Equal(res.Labels) {
		t.Error("seam model changed the labeling")
	}
	if dist.UF != res.UF {
		t.Errorf("seam model changed the UF report:\nhost %+v\ndist %+v", res.UF, dist.UF)
	}
}

// TestLabelLargePipelinedSchedule pins the pipelined schedule model:
// work totals (per-phase makespans, traffic) are identical to the
// sequential composition; only the composed Time shrinks, by at most
// the later strips' input makespans plus the overlapped seam offload.
func TestLabelLargePipelinedSchedule(t *testing.T) {
	img := bitmap.Random(48, 0.5, 7)
	const aw = 16
	seq := mustLabelLarge(t, img, Options{ArrayWidth: aw})
	pipe := mustLabelLarge(t, img, Options{ArrayWidth: aw, Schedule: SchedulePipelined})
	if !pipe.Labels.Equal(seq.Labels) {
		t.Fatal("schedule model changed the labeling")
	}
	if pipe.UF != seq.UF {
		t.Errorf("schedule model changed the UF report")
	}
	if len(pipe.Metrics.Phases) != len(seq.Metrics.Phases) {
		t.Fatalf("phase count differs: %d vs %d", len(pipe.Metrics.Phases), len(seq.Metrics.Phases))
	}
	for i, ps := range seq.Metrics.Phases {
		pp := pipe.Metrics.Phases[i]
		if pp.Name != ps.Name || pp.Busy != ps.Busy || pp.Sends != ps.Sends || pp.Words != ps.Words {
			t.Errorf("phase %q: work totals differ between schedules: %+v vs %+v", ps.Name, pp, ps)
		}
		if pp.Name != "seam-merge" && pp.Makespan != ps.Makespan {
			t.Errorf("phase %q: makespan differs between schedules (only seam-merge's may)", ps.Name)
		}
	}
	if pipe.Metrics.Sends != seq.Metrics.Sends || pipe.Metrics.Words != seq.Metrics.Words {
		t.Error("schedule model changed the traffic totals")
	}
	if pipe.Metrics.Time >= seq.Metrics.Time {
		t.Errorf("pipelined Time %d not below sequential %d", pipe.Metrics.Time, seq.Metrics.Time)
	}
	// The input saving is bounded by the later strips' input makespans;
	// the offload saving by the overlapped boundary columns.
	input, ok := seq.Metrics.Phase("input")
	if !ok {
		t.Fatal("no input phase")
	}
	seamSeq, _ := seq.Metrics.Phase("seam-merge")
	seamPipe, _ := pipe.Metrics.Phase("seam-merge")
	maxSaving := input.Makespan + (seamSeq.Makespan - seamPipe.Makespan)
	if saving := seq.Metrics.Time - pipe.Metrics.Time; saving > maxSaving {
		t.Errorf("pipelined saving %d exceeds the model bound %d", saving, maxSaving)
	}

	// SkipInput leaves nothing to overlap but the seam offload.
	seqNoIn := mustLabelLarge(t, img, Options{ArrayWidth: aw, SkipInput: true})
	pipeNoIn := mustLabelLarge(t, img, Options{ArrayWidth: aw, SkipInput: true, Schedule: SchedulePipelined})
	seamSeqNI, _ := seqNoIn.Metrics.Phase("seam-merge")
	seamPipeNI, _ := pipeNoIn.Metrics.Phase("seam-merge")
	if got, want := seqNoIn.Metrics.Time-pipeNoIn.Metrics.Time, seamSeqNI.Makespan-seamPipeNI.Makespan; got != want {
		t.Errorf("SkipInput pipelined saving %d, want exactly the seam offload overlap %d", got, want)
	}
}

// TestLabelLargeDeterministicAcrossModes: repeated runs, warm-labeler
// runs, and pool-fanned runs must agree bit for bit — labels, composed
// metrics, UF report, speculation. The strip schedule model is
// sequential no matter how the host executes it.
func TestLabelLargeDeterministicAcrossModes(t *testing.T) {
	img := bitmap.RandomRect(90, 37, 0.5, 4242)
	base := Options{ArrayWidth: 13, Connectivity: bitmap.Conn8, Speculate: true}
	first := mustLabelLarge(t, img, base)
	if err := seqcc.CheckConn(img, first.Labels, bitmap.Conn8); err != nil {
		t.Fatal(err)
	}
	warm := NewLabeler(base)
	warm.Label(bitmap.Random(21, 0.4, 5)) // dirty the arenas first
	cases := map[string]func() (*Result, error){
		"repeat": func() (*Result, error) { return Label(img, base) },
		"warm":   func() (*Result, error) { return warm.Label(img) },
		"pool3": func() (*Result, error) {
			opt := base
			opt.StripWorkers = 3
			return Label(img, opt)
		},
		"pool16": func() (*Result, error) {
			opt := base
			opt.StripWorkers = 16
			return Label(img, opt)
		},
	}
	for name, run := range cases {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Labels.Equal(first.Labels) {
			t.Errorf("%s: labels diverged", name)
		}
		if !metricsIdentical(t, first, res) {
			t.Errorf("%s: composed metrics diverged:\nfirst %+v\ngot   %+v", name, first.Metrics, res.Metrics)
		}
	}
}

// TestLabelLargeArrayWidthZeroIsLabel: ArrayWidth 0 (and any width at
// least the image's) must stay bit-identical to the plain path —
// the whole-image array of every run before strip-mining existed.
func TestLabelLargeArrayWidthZeroIsLabel(t *testing.T) {
	img := bitmap.Random(33, 0.5, 7)
	plain := mustLabel(t, img, Options{})
	for _, aw := range []int{0, 33, 100} {
		res := mustLabelLarge(t, img, Options{ArrayWidth: aw})
		if !res.Labels.Equal(plain.Labels) || !metricsIdentical(t, plain, res) {
			t.Errorf("aw=%d: diverged from the plain whole-image run", aw)
		}
	}
}

// TestLabelLargeRejectsBadOptions: negative tiling options and unknown
// seam/schedule models are configuration errors.
func TestLabelLargeRejectsBadOptions(t *testing.T) {
	img := bitmap.Random(16, 0.5, 1)
	if _, err := Label(img, Options{ArrayWidth: -1}); err == nil {
		t.Error("negative ArrayWidth accepted")
	}
	if _, err := Label(img, Options{StripWorkers: -2}); err == nil {
		t.Error("negative StripWorkers accepted")
	}
	if _, err := Label(img, Options{ArrayWidth: 4, StripWorkers: -1}); err == nil {
		t.Error("negative StripWorkers accepted on the strip path")
	}
	if _, err := Label(img, Options{Seam: "telepathy"}); err == nil {
		t.Error("unknown seam model accepted")
	}
	if _, err := Label(img, Options{ArrayWidth: 4, Schedule: "asap"}); err == nil {
		t.Error("unknown schedule model accepted")
	}
	if _, err := Aggregate(img, Ones(img), Monoid{Name: "broken"}, Options{ArrayWidth: 4}); err == nil {
		t.Error("monoid without Combine accepted on the strip path")
	}
	if _, err := Aggregate(img, Ones(img)[:3], Sum(), Options{ArrayWidth: 4}); err == nil {
		t.Error("short initial slice accepted on the strip path")
	}
}

// TestGoldenLargeStepCounts pins the composed accounting of the
// strip-mined path for two family/ArrayWidth pairs under every
// seam-relabel × schedule model combination, exactly as
// TestGoldenStepCounts pins the whole-image accounting. The SeamHost ×
// ScheduleSequential rows are the original strip-mining model and must
// never drift (they pin "the sequential model is unchanged bit for
// bit"); the others pin the distributed relabel and the pipelined
// schedule. Update deliberately when a schedule model or the cost
// accounting changes.
func TestGoldenLargeStepCounts(t *testing.T) {
	cases := []struct {
		name string
		img  *bitmap.Bitmap
		opt  Options
		want int64
	}{
		{"checker64-aw16-host-seq", bitmap.Checker(64), Options{ArrayWidth: 16, Seam: SeamHost}, goldenLargeChecker64AW16HostSeq},
		{"serp64-aw32-host-seq", bitmap.HSerpentine(64), Options{ArrayWidth: 32, Seam: SeamHost}, goldenLargeSerp64AW32HostSeq},
		{"checker64-aw16-dist-seq", bitmap.Checker(64), Options{ArrayWidth: 16}, goldenLargeChecker64AW16DistSeq},
		{"serp64-aw32-dist-seq", bitmap.HSerpentine(64), Options{ArrayWidth: 32}, goldenLargeSerp64AW32DistSeq},
		{"checker64-aw16-dist-pipe", bitmap.Checker(64), Options{ArrayWidth: 16, Schedule: SchedulePipelined}, goldenLargeChecker64AW16DistPipe},
		{"serp64-aw32-dist-pipe", bitmap.HSerpentine(64), Options{ArrayWidth: 32, Schedule: SchedulePipelined}, goldenLargeSerp64AW32DistPipe},
	}
	for _, tc := range cases {
		res, err := Label(tc.img, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Metrics.Time != tc.want {
			t.Errorf("%s: composed simulated time changed: got %d, golden %d — if intentional, update tiler_test.go",
				tc.name, res.Metrics.Time, tc.want)
		}
	}
}

// Golden values; see TestGoldenLargeStepCounts. The host-seq constants
// predate the distributed relabel (PR 3) and are pinned unchanged.
const (
	goldenLargeChecker64AW16HostSeq  = 6024
	goldenLargeSerp64AW32HostSeq     = 7457
	goldenLargeChecker64AW16DistSeq  = 6039
	goldenLargeSerp64AW32DistSeq     = 5787
	goldenLargeChecker64AW16DistPipe = 5527
	goldenLargeSerp64AW32DistPipe    = 5659
)

// TestGoldenAggregateLargeStepCounts pins the strip-mined aggregation's
// composed accounting the same way.
func TestGoldenAggregateLargeStepCounts(t *testing.T) {
	img := bitmap.Checker(64)
	res, err := Aggregate(img, Ones(img), Sum(), Options{ArrayWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Time != goldenAggChecker64AW16DistSeq {
		t.Errorf("agg checker64-aw16 dist-seq: got %d, golden %d — if intentional, update tiler_test.go",
			res.Metrics.Time, goldenAggChecker64AW16DistSeq)
	}
	img2 := bitmap.HSerpentine(64)
	res2, err := Aggregate(img2, Ones(img2), Sum(), Options{ArrayWidth: 32, Schedule: SchedulePipelined})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.Time != goldenAggSerp64AW32DistPipe {
		t.Errorf("agg serp64-aw32 dist-pipe: got %d, golden %d — if intentional, update tiler_test.go",
			res2.Metrics.Time, goldenAggSerp64AW32DistPipe)
	}
}

// Golden values; see TestGoldenAggregateLargeStepCounts.
const (
	goldenAggChecker64AW16DistSeq = 7183
	goldenAggSerp64AW32DistPipe   = 6831
)

// aggEqual compares two aggregation results bit for bit (labels and
// per-pixel folds).
func aggEqual(a, b *Result) bool {
	if !a.Labels.Equal(b.Labels) || len(a.PerPixel) != len(b.PerPixel) {
		return false
	}
	for i := range a.PerPixel {
		if a.PerPixel[i] != b.PerPixel[i] {
			return false
		}
	}
	return true
}

// TestAggregateLargeMatchesWholeImage sweeps families × monoids × array
// widths × connectivities: the strip-mined aggregation must be
// bit-identical — labels and per-pixel folds — to the whole-image run.
// ArrayWidth 1 is the stress extreme; positions-initial Min reproduces
// the canonical labels, Sum computes areas (non-idempotent, so each
// strip piece must be combined exactly once).
func TestAggregateLargeMatchesWholeImage(t *testing.T) {
	const n = 48
	ops := []struct {
		op        Monoid
		positions bool
	}{
		{Sum(), false},
		{Min(), true},
		{Max(), true},
	}
	for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
		for _, fam := range bitmap.Families() {
			img := fam.Generate(n)
			for oi, tc := range ops {
				initial := Ones(img)
				if tc.positions {
					for i := range initial {
						initial[i] = int32(i)
					}
				}
				whole, err := Aggregate(img, initial, tc.op, Options{Connectivity: conn})
				if err != nil {
					t.Fatalf("%s/conn%d/%s: whole: %v", fam.Name, conn, tc.op.Name, err)
				}
				for _, aw := range []int{1, 7, 16, 48} {
					if oi > 0 && aw != 7 {
						continue // Min/Max ride one width; Sum sweeps all
					}
					res, err := Aggregate(img, initial, tc.op, Options{Connectivity: conn, ArrayWidth: aw})
					if err != nil {
						t.Fatalf("%s/conn%d/%s/aw%d: %v", fam.Name, conn, tc.op.Name, aw, err)
					}
					if !aggEqual(whole, res) {
						t.Errorf("%s/conn%d/%s/aw%d: strip-mined aggregation diverged from whole-image run",
							fam.Name, conn, tc.op.Name, aw)
					}
				}
			}
		}
	}
}

// TestAggregateLargeNonSquareFuzz aggregates fuzzed non-square images
// through the tiler: random shapes, widths, monoids, connectivities,
// seam and schedule models — always bit-identical to the whole-image
// run.
func TestAggregateLargeNonSquareFuzz(t *testing.T) {
	rng := bitmap.NewRNG(0x5EAB)
	monoids := []Monoid{Sum(), Min(), Max(), Or()}
	for trial := 0; trial < 40; trial++ {
		w := 1 + rng.Intn(97)
		h := 1 + rng.Intn(53)
		density := 0.15 + 0.7*rng.Float64()
		img := bitmap.RandomRect(w, h, density, rng.Uint64())
		aw := 1 + rng.Intn(w)
		conn := bitmap.Conn4
		if trial%2 == 1 {
			conn = bitmap.Conn8
		}
		op := monoids[trial%len(monoids)]
		initial := make([]int32, w*h)
		for i := range initial {
			initial[i] = int32(rng.Intn(1 << 16))
		}
		opt := Options{Connectivity: conn, ArrayWidth: aw}
		if trial%3 == 1 {
			opt.Seam = SeamHost
		}
		if trial%4 == 2 {
			opt.Schedule = SchedulePipelined
		}
		whole, err := Aggregate(img, initial, op, Options{Connectivity: conn})
		if err != nil {
			t.Fatalf("trial %d: whole: %v", trial, err)
		}
		res, err := Aggregate(img, initial, op, opt)
		if err != nil {
			t.Fatalf("trial %d (%dx%d aw=%d conn%d %s): %v", trial, w, h, aw, conn, op.Name, err)
		}
		if !aggEqual(whole, res) {
			t.Errorf("trial %d (%dx%d aw=%d conn%d %s seam=%q sched=%q): diverged",
				trial, w, h, aw, conn, op.Name, opt.Seam, opt.Schedule)
		}
	}
}

// TestAggregateLargeHuge is the production-scale check the acceptance
// criteria name: every built-in family at 2048×2048 on a 256-wide
// array, bit-identical to the whole-image aggregation.
func TestAggregateLargeHuge(t *testing.T) {
	if testing.Short() {
		t.Skip("2048×2048 family sweep skipped in -short mode")
	}
	const n, aw = 2048, 256
	lab := NewLabeler(Options{ArrayWidth: aw})
	wholeLab := NewLabeler(Options{})
	for _, fam := range bitmap.Families() {
		img := fam.Generate(n)
		initial := Ones(img)
		whole, err := wholeLab.Aggregate(img, initial, Sum())
		if err != nil {
			t.Fatalf("%s: whole: %v", fam.Name, err)
		}
		res, err := lab.Aggregate(img, initial, Sum())
		if err != nil {
			t.Fatalf("%s: %v", fam.Name, err)
		}
		if !aggEqual(whole, res) {
			t.Errorf("%s: 2048×2048 strip-mined aggregation diverged", fam.Name)
		}
	}
}

// TestAggregateLargeDeterministicAcrossModes: repeated, warm, and
// pool-fanned strip-mined aggregations agree bit for bit — per-pixel
// folds, labels, composed metrics, UF report.
func TestAggregateLargeDeterministicAcrossModes(t *testing.T) {
	img := bitmap.RandomRect(90, 37, 0.5, 4242)
	initial := Ones(img)
	base := Options{ArrayWidth: 13, Connectivity: bitmap.Conn8}
	first, err := Aggregate(img, initial, Sum(), base)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewLabeler(base)
	warm.Label(bitmap.Random(21, 0.4, 5)) // dirty the arenas first
	cases := map[string]func() (*Result, error){
		"repeat": func() (*Result, error) { return Aggregate(img, initial, Sum(), base) },
		"warm":   func() (*Result, error) { return warm.Aggregate(img, initial, Sum()) },
		"pool3": func() (*Result, error) {
			opt := base
			opt.StripWorkers = 3
			return Aggregate(img, initial, Sum(), opt)
		},
	}
	for name, run := range cases {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !aggEqual(first, res) {
			t.Errorf("%s: results diverged", name)
		}
		if res.Metrics.Time != first.Metrics.Time || res.UF != first.UF {
			t.Errorf("%s: composed metrics diverged", name)
		}
	}
}

// TestSeamModelsAgreeOnResults: SeamHost vs SeamDistributed and
// sequential vs pipelined schedules may only change the charged phases,
// never the labeling, the per-pixel folds, or the union–find report.
func TestSeamModelsAgreeOnResults(t *testing.T) {
	img := bitmap.RandomRect(70, 41, 0.45, 31337)
	base := mustLabelLarge(t, img, Options{ArrayWidth: 24, Seam: SeamHost})
	for _, seam := range []SeamModel{SeamHost, SeamDistributed} {
		for _, sched := range []ScheduleModel{ScheduleSequential, SchedulePipelined} {
			res := mustLabelLarge(t, img, Options{ArrayWidth: 24, Seam: seam, Schedule: sched})
			if !res.Labels.Equal(base.Labels) {
				t.Errorf("seam=%s sched=%s: labeling diverged", seam, sched)
			}
			if res.UF != base.UF {
				t.Errorf("seam=%s sched=%s: UF report diverged", seam, sched)
			}
		}
	}
}
