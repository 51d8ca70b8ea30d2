package core

import (
	"testing"

	"slapcc/internal/bitmap"
)

// metricsIdentical compares everything the experiments report.
func metricsIdentical(t *testing.T, a, b *Result) bool {
	t.Helper()
	if a.Metrics.Time != b.Metrics.Time ||
		a.Metrics.Sends != b.Metrics.Sends ||
		a.Metrics.Words != b.Metrics.Words ||
		a.Metrics.MaxQueue != b.Metrics.MaxQueue ||
		a.Metrics.PEMemory != b.Metrics.PEMemory {
		return false
	}
	if len(a.Metrics.Phases) != len(b.Metrics.Phases) {
		return false
	}
	for i := range a.Metrics.Phases {
		pa, pb := a.Metrics.Phases[i], b.Metrics.Phases[i]
		if pa.Name != pb.Name || pa.Makespan != pb.Makespan || pa.Busy != pb.Busy ||
			pa.Idle != pb.Idle || pa.Sends != pb.Sends || pa.Words != pb.Words ||
			pa.NilRecvs != pb.NilRecvs || pa.MaxQueue != pb.MaxQueue {
			return false
		}
	}
	return a.UF == b.UF && a.Speculation == b.Speculation
}

// TestEngineEquivalence is the arena-reuse conformance table: for every
// bitmap family and both connectivities, a Labeler reused across all
// preceding runs must produce the LabelMap and bit-identical
// slap.Metrics (time, sends, words, queue peaks, per-phase breakdowns)
// and UF report of a fresh run. This is what lets the arena reuse be
// chosen freely on performance grounds. (Fused vs per-phase execution
// is pinned by fused_equiv_test.go.)
func TestEngineEquivalence(t *testing.T) {
	const n = 23
	for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
		reused := NewLabeler(Options{Connectivity: conn})
		for _, fam := range bitmap.Families() {
			img := fam.Generate(n)

			fresh := mustLabel(t, img, Options{Connectivity: conn})
			again, err := reused.Label(img)
			if err != nil {
				t.Fatalf("%s/conn%d: reused labeler: %v", fam.Name, conn, err)
			}
			if !again.Labels.Equal(fresh.Labels) {
				t.Errorf("%s/conn%d: reused labeler changed the labeling", fam.Name, conn)
			}
			if !metricsIdentical(t, fresh, again) {
				t.Errorf("%s/conn%d: reused labeler changed the metrics:\nfresh %+v\ngot   %+v",
					fam.Name, conn, fresh.Metrics, again.Metrics)
			}
		}
	}
}

// TestLabelerReuseAcrossShapes: one Labeler must serve images of
// changing sizes, densities, and union–find kinds, always matching a
// fresh run bit for bit.
func TestLabelerReuseAcrossShapes(t *testing.T) {
	lab := NewLabeler(Options{})
	for _, n := range []int{1, 17, 64, 9, 33} {
		img := bitmap.Random(n, 0.5, uint64(n))
		fresh := mustLabel(t, img, Options{})
		got, err := lab.Label(img)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Labels.Equal(fresh.Labels) || !metricsIdentical(t, fresh, got) {
			t.Fatalf("n=%d: reused labeler diverged from fresh run", n)
		}
	}
	// Switching options requires a new Labeler; the pooled one-shot path
	// must behave identically for every UF kind after arbitrary reuse.
	img := bitmap.Random(21, 0.6, 7)
	for _, opt := range []Options{
		{UF: "blum"}, {UF: "quickfind"}, {UnitCostUF: true}, {Speculate: true, IdleCompression: true},
	} {
		lab := NewLabeler(opt)
		first, err := lab.Label(img)
		if err != nil {
			t.Fatal(err)
		}
		second, err := lab.Label(img)
		if err != nil {
			t.Fatal(err)
		}
		if !second.Labels.Equal(first.Labels) || !metricsIdentical(t, first, second) {
			t.Fatalf("opt %+v: second run on one labeler diverged", opt)
		}
	}
}

// TestLabelerAggregateReuse: the Corollary 4 extension also runs on a
// reused Labeler with identical output and metrics.
func TestLabelerAggregateReuse(t *testing.T) {
	lab := NewLabeler(Options{})
	img := bitmap.Random(19, 0.5, 3)
	fresh, err := Aggregate(img, Ones(img), Sum(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab.Label(bitmap.Random(31, 0.4, 9)) // dirty the arenas with another shape
	got, err := lab.Aggregate(img, Ones(img), Sum())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.PerPixel {
		if fresh.PerPixel[i] != got.PerPixel[i] {
			t.Fatalf("position %d: %d vs %d", i, fresh.PerPixel[i], got.PerPixel[i])
		}
	}
	if fresh.Metrics.Time != got.Metrics.Time || fresh.Metrics.Sends != got.Metrics.Sends {
		t.Fatalf("aggregate metrics diverged: %d/%d vs %d/%d",
			fresh.Metrics.Time, fresh.Metrics.Sends, got.Metrics.Time, got.Metrics.Sends)
	}
}

// TestLabelerSteadyStateAllocs pins the tentpole: a warm Labeler's Label
// call allocates only the returned Result (labels, metrics copy) — the
// simulation itself is allocation-free.
func TestLabelerSteadyStateAllocs(t *testing.T) {
	img := bitmap.Random(64, 0.5, 2)
	lab := NewLabeler(Options{})
	if _, err := lab.Label(img); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := lab.Label(img); err != nil {
			t.Fatal(err)
		}
	})
	// Result + LabelMap + metrics deep copy + phase slice ≈ a handful.
	if allocs > 25 {
		t.Fatalf("warm Label allocates %.0f times per call, want ≤ 25", allocs)
	}
}
