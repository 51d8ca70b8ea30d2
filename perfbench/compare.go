package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type verdict string

const (
	worse      verdict = "worse"
	within     verdict = "within"
	better     verdict = "better"
	unresolved verdict = "unresolved"
)

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so the numbers match the acceptance check.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// judge compares the runs b of a change against the runs a of its
// parent for one metric. worseBy is the median's move in the metric's
// bad direction, as a share of a's median. A spread (either side's)
// wider than the bound leaves the verdict unresolved, unless every run
// of b beats every run of a.
func judge(a, b []float64, higherIsBetter bool, bound float64) (v verdict, worseBy, spr float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy = (mb - ma) / math.Abs(ma)
	if higherIsBetter {
		worseBy = -worseBy
	}
	spr = math.Max(spread(a), spread(b))
	switch {
	case spr > bound:
		if beatsAll(b, a, higherIsBetter) {
			return better, worseBy, spr
		}
		return unresolved, worseBy, spr
	case worseBy > bound:
		return worse, worseBy, spr
	case worseBy < -bound:
		return better, worseBy, spr
	}
	return within, worseBy, spr
}

// beatsAll reports whether every value of b is strictly better than
// every value of a.
func beatsAll(b, a []float64, higherIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := b[0], a[0]
	for _, x := range b {
		if higherIsBetter == (x < worstB) {
			worstB = x
		}
	}
	for _, x := range a {
		if higherIsBetter == (x > bestA) {
			bestA = x
		}
	}
	if higherIsBetter {
		return worstB > bestA
	}
	return worstB < bestA
}

// loadRuns reads dir/<workload>.jsonl: one run result per line.
func loadRuns(dir, workload string) ([]result, error) {
	f, err := os.Open(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name(), err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// compare prints, per workload and end-to-end metric, the median and
// quartiles of each side with the verdict, and reports whether any
// verdict is worse.
func compare(s *spec, dirA, dirB string, out io.Writer) (anyWorse bool, err error) {
	fmt.Fprintf(out, "%-15s %-16s %-9s %28s %28s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse%", "spread%", "bound%", "verdict")
	for _, wl := range s.Workloads {
		a, errA := loadRuns(dirA, wl.Name)
		b, errB := loadRuns(dirB, wl.Name)
		if errors.Is(errA, fs.ErrNotExist) && errors.Is(errB, fs.ErrNotExist) {
			continue
		}
		if err := errors.Join(errA, errB); err != nil {
			return false, err
		}
		for _, m := range s.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			if len(va) == 0 || len(vb) == 0 || m.Bound == nil {
				return false, fmt.Errorf("%s: %s has no bound or no values on one side", wl.Name, m.Name)
			}
			v, worseBy, spr := judge(va, vb, m.Better == "higher", *m.Bound)
			anyWorse = anyWorse || v == worse
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			fmt.Fprintf(out, "%-15s %-16s %-9s %28s %28s %8.1f %7.1f %6.0f  %s\n",
				wl.Name, m.Name, m.Unit, fmtQ(a1, am, a3), fmtQ(b1, bm, b3), 100*worseBy, 100*spr, 100**m.Bound, v)
		}
	}
	return anyWorse, nil
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func fmtQ(q1, med, q3 float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func compareMain(args []string, out, errw io.Writer) (int, error) {
	fset := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fset.SetOutput(errw)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fset.Parse(args); err != nil {
		return 1, err
	}
	if fset.NArg() != 2 {
		return 1, fmt.Errorf("compare needs two run directories, A and B")
	}
	s, err := loadSpec(*benchPath)
	if err != nil {
		return 1, err
	}
	anyWorse, err := compare(s, fset.Arg(0), fset.Arg(1), out)
	if err != nil {
		return 1, err
	}
	if anyWorse {
		return 2, fmt.Errorf("B is worse than A beyond a bound")
	}
	return 0, nil
}
