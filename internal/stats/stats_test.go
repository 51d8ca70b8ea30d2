package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty summary should be zero, got %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Min != 42 || s.Max != 42 || s.Mean != 42 || s.Median != 42 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if s.StdDev != 0 {
		t.Fatalf("single sample stddev should be 0, got %g", s.StdDev)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 {
		t.Fatalf("mean: want 2.5, got %g", s.Mean)
	}
	if s.Median != 2.5 {
		t.Fatalf("median: want 2.5, got %g", s.Median)
	}
	if s.Min != 1 || s.Max != 4 {
		t.Fatalf("min/max: got %g/%g", s.Min, s.Max)
	}
	want := math.Sqrt(5.0 / 3.0)
	if !almostEqual(s.StdDev, want, 1e-12) {
		t.Fatalf("stddev: want %g, got %g", want, s.StdDev)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("median: want 5, got %g", s.Median)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 3, 1e-9) || !almostEqual(fit.Intercept, -7, 1e-9) {
		t.Fatalf("want y=3x-7, got %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Fatalf("exact fit should have R2=1, got %g", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want error for a single point")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("want error for constant x")
	}
}

func TestFitPowerExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * x * x // y = 5 x^2
	}
	p, c, r2, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 2, 1e-9) || !almostEqual(c, 5, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Fatalf("want p=2 c=5 r2=1, got p=%g c=%g r2=%g", p, c, r2)
	}
}

func TestFitPowerRejectsNonPositive(t *testing.T) {
	if _, _, _, err := FitPower([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("want error for non-positive x")
	}
	if _, _, _, err := FitPower([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Fatal("want error for non-positive y")
	}
}

func TestLog2(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 1}, {1, 1}, {2, 1}, {4, 2}, {1024, 10}} {
		if got := Log2(tc.n); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Log2(%d): want %g, got %g", tc.n, tc.want, got)
		}
	}
}

// Property: the fitted line through any affine data recovers the slope and
// intercept regardless of the (distinct) sample positions.
func TestFitLineRecoversAffineQuick(t *testing.T) {
	f := func(slope, intercept float64, seed uint8) bool {
		if math.Abs(slope) > 1e6 || math.Abs(intercept) > 1e6 {
			return true // avoid float blowup; not the property under test
		}
		xs := make([]float64, 8)
		ys := make([]float64, 8)
		for i := range xs {
			xs[i] = float64(i) + float64(seed%7)
			ys[i] = slope*xs[i] + intercept
		}
		fit, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(fit.Slope, slope, 1e-6+1e-9*math.Abs(slope)) &&
			almostEqual(fit.Intercept, intercept, 1e-5+1e-9*math.Abs(intercept))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize bounds — Min ≤ Median ≤ Max and Min ≤ Mean ≤ Max.
func TestSummarizeBoundsQuick(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.95, 4}, {-1, 1}, {2, 5},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	// Percentile must not mutate its input.
	if xs[0] != 5 {
		t.Errorf("Percentile sorted its input in place: %v", xs)
	}
}
