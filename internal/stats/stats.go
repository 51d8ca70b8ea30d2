// Package stats provides the small set of numeric helpers used by the
// benchmark harness: summaries of sample sets and least-squares fits in
// log space, which estimate the growth exponent of measured step counts.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample set.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
}

// Summarize computes a Summary of xs. It returns a zero Summary when xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varSum += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(varSum / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// LinearFit is a least-squares line y = Slope*x + Intercept with the
// coefficient of determination R2.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits y = a*x + b by ordinary least squares. It returns an error
// when fewer than two points are given or all x values coincide.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate fit, all x equal")
	}
	fit := LinearFit{}
	fit.Slope = (n*sxy - sx*sy) / den
	fit.Intercept = (sy - fit.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		fit.R2 = 1
		return fit, nil
	}
	ssRes := 0.0
	for i := range xs {
		r := ys[i] - (fit.Slope*xs[i] + fit.Intercept)
		ssRes += r * r
	}
	fit.R2 = 1 - ssRes/ssTot
	return fit, nil
}

// FitPower fits y = c*x^p by least squares on (log x, log y) and returns
// the exponent p, scale c, and R2 of the log-space fit. All inputs must be
// positive.
func FitPower(xs, ys []float64) (exponent, scale, r2 float64, err error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: FitPower requires positive samples, got (%g, %g)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	fit, err := FitLine(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return fit.Slope, math.Exp(fit.Intercept), fit.R2, nil
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by the
// nearest-rank method on a sorted copy; it returns 0 for an empty set.
// This is the same estimator the load generator and the trace ring use,
// so percentiles are comparable across every reporting surface.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// Log2 returns the base-2 logarithm of n as a float64; Log2(0) and Log2(1)
// return 1 so that quantities like n·lg n stay positive for tiny n.
func Log2(n int) float64 {
	if n <= 2 {
		return 1
	}
	return math.Log2(float64(n))
}
