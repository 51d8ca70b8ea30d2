package benchfmt

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// noisy returns n samples around mean with ±2% deterministic jitter —
// the synthetic benchmark distributions for the significance table.
func noisy(mean float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = mean * (1 + 0.02*(2*rng.Float64()-1))
	}
	return out
}

func fileWith(pr int, results ...Result) *File {
	return &File{Schema: SchemaV1, PR: pr, Runner: Runner{Cores: 1, GOMAXPROCS: 1}, Results: results}
}

func sampled(name string, better Direction, samples []float64) Result {
	r := Result{Name: name, Unit: "MB/s", Better: better, Samples: samples}
	r.Value = r.Mean()
	return r
}

// TestCompareSignificance is the significance table: clear regression,
// clear win, and pure noise, over sampled distributions.
func TestCompareSignificance(t *testing.T) {
	cases := []struct {
		name            string
		better          Direction
		old, new        []float64
		wantRegression  bool
		wantImprovement bool
	}{
		{"clear regression", HigherIsBetter, noisy(100, 8, 1), noisy(60, 8, 2), true, false},
		{"clear win", HigherIsBetter, noisy(100, 8, 3), noisy(150, 8, 4), false, true},
		{"pure noise", HigherIsBetter, noisy(100, 8, 5), noisy(100, 8, 6), false, false},
		{"lower-better regression", LowerIsBetter, noisy(10, 8, 7), noisy(16, 8, 8), true, false},
		{"small but significant drift stays under threshold", HigherIsBetter,
			noisy(100, 8, 9), noisy(96, 8, 10), false, false},
		// 3v3 Mann–Whitney bottoms out near p=0.1, above alpha — but a
		// collapse past the point threshold must still gate.
		{"sampled collapse gates even at minimum sample count", HigherIsBetter,
			noisy(100, 3, 11), noisy(40, 3, 12), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := fileWith(8, sampled("m/x", tc.better, tc.old))
			cur := fileWith(10, sampled("m/x", tc.better, tc.new))
			d := Compare(old, cur, DiffOptions{})
			if len(d.Deltas) != 1 {
				t.Fatalf("want 1 delta, got %+v", d.Deltas)
			}
			del := d.Deltas[0]
			if !del.Sampled {
				t.Fatalf("want a sampled comparison, got %+v", del)
			}
			if del.Regression != tc.wantRegression || del.Improvement != tc.wantImprovement {
				t.Errorf("verdict (reg=%v imp=%v p=%.4f), want (reg=%v imp=%v)",
					del.Regression, del.Improvement, del.PValue, tc.wantRegression, tc.wantImprovement)
			}
		})
	}
}

// TestCompareInjectedSlowdownFails is the gate's reason to exist: take
// the real committed PR 8 trajectory point, synthesize a run whose host
// engine lost its win, and the diff must report a regression.
func TestCompareInjectedSlowdownFails(t *testing.T) {
	pr8, err := Load(filepath.Join(repoRoot, "BENCH_pr8.json"))
	if err != nil {
		t.Fatal(err)
	}
	// A "current run" identical to PR 8 except the host engine
	// collapsed to 2x instead of 16.5x.
	slowed := fileWith(10,
		Result{Name: "cost-host/frames_per_s", Unit: "frames/s", Better: HigherIsBetter, Value: 12.5},
		Result{Name: "engine/host_over_bitserial", Unit: "x", Better: HigherIsBetter, Value: 2.0},
		Result{Name: "cost-bitserial/frames_per_s", Unit: "frames/s", Better: HigherIsBetter, Value: 6.3},
	)
	d := Compare(pr8, slowed, DiffOptions{})
	regs := d.Regressions()
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (host fps, ratio), got %+v", regs)
	}
	names := map[string]bool{}
	for _, r := range regs {
		names[r.Name] = true
	}
	if !names["cost-host/frames_per_s"] || !names["engine/host_over_bitserial"] {
		t.Errorf("wrong regressions flagged: %v", names)
	}
	// The healthy bitserial row must not be flagged.
	for _, del := range d.Deltas {
		if del.Name == "cost-bitserial/frames_per_s" && del.Regression {
			t.Errorf("healthy metric flagged as regression: %+v", del)
		}
	}
}

// TestComparePointThresholdIsLoose: point comparisons (pre-schema
// trajectory points have no samples) tolerate runner-to-runner drift up to
// PointThreshold.
func TestComparePointThresholdIsLoose(t *testing.T) {
	old := fileWith(8, Result{Name: "m/x", Unit: "MB/s", Better: HigherIsBetter, Value: 100})
	drifted := fileWith(10, Result{Name: "m/x", Unit: "MB/s", Better: HigherIsBetter, Value: 75})
	if d := Compare(old, drifted, DiffOptions{}); d.Deltas[0].Regression {
		t.Errorf("25%% point drift must not gate (threshold is 40%%): %+v", d.Deltas[0])
	}
	collapsed := fileWith(10, Result{Name: "m/x", Unit: "MB/s", Better: HigherIsBetter, Value: 40})
	if d := Compare(old, collapsed, DiffOptions{}); !d.Deltas[0].Regression {
		t.Errorf("60%% point collapse must gate: %+v", d.Deltas[0])
	}
}

// TestCompareInformationalNeverGates: latency and GC metrics are
// recorded but can never fail a build.
func TestCompareInformationalNeverGates(t *testing.T) {
	old := fileWith(8, Result{Name: "steady/latency_p99_ms", Unit: "ms", Better: Informational, Value: 10})
	cur := fileWith(10, Result{Name: "steady/latency_p99_ms", Unit: "ms", Better: Informational, Value: 1000})
	d := Compare(old, cur, DiffOptions{})
	if len(d.Regressions()) != 0 {
		t.Errorf("informational metric gated the diff: %+v", d.Deltas)
	}
}

func TestCompareCoverageDrift(t *testing.T) {
	old := fileWith(8,
		Result{Name: "a/x", Unit: "MB/s", Better: HigherIsBetter, Value: 1},
		Result{Name: "gone/x", Unit: "MB/s", Better: HigherIsBetter, Value: 1})
	cur := fileWith(10,
		Result{Name: "a/x", Unit: "MB/s", Better: HigherIsBetter, Value: 1},
		Result{Name: "fresh/x", Unit: "MB/s", Better: HigherIsBetter, Value: 1})
	d := Compare(old, cur, DiffOptions{})
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "gone/x" {
		t.Errorf("OnlyOld = %v", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "fresh/x" {
		t.Errorf("OnlyNew = %v", d.OnlyNew)
	}
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"only in old: gone/x", "only in new: fresh/x", "a/x"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered diff missing %q:\n%s", want, sb.String())
		}
	}
}
