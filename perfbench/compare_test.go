package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Reference values from Python: statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10, 12.5, 11, 9.5, 13}, 9.75, 11, 12.75},
	} {
		q1, m, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.data, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   verdict
	}{
		{"unchanged", steady, []float64{100.2, 99.8, 100.1, 100.7, 99.5}, false, within},
		{"slower by more than the bound", steady, []float64{115, 116, 114, 115, 115.5}, false, worse},
		{"faster by more than the bound", steady, []float64{85, 86, 84, 85, 85.5}, false, better},
		{"throughput drop is worse", steady, []float64{85, 86, 84, 85, 85.5}, true, worse},
		{"throughput gain is better", steady, []float64{115, 116, 114, 115, 115.5}, true, better},
		{"spread wider than the bound", steady, []float64{80, 120, 95, 130, 70}, false, unresolved},
		{"wide spread but every run better", []float64{100, 130, 115, 125, 105}, []float64{60, 90, 75, 85, 70}, false, better},
		{"wide spread, overlapping runs", []float64{100, 130, 115, 125, 105}, []float64{60, 110, 75, 85, 70}, false, unresolved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, _, _ := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
				t.Errorf("judge = %s, want %s", got, tc.want)
			}
		})
	}
}

func writeRuns(t *testing.T, dir, workload string, latencies []float64) {
	t.Helper()
	var b strings.Builder
	for _, l := range latencies {
		b.WriteString(`{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_p50_ms":{"value":`)
		b.WriteString(strconv.FormatFloat(l, 'g', -1, 64))
		b.WriteString(`,"unit":"ms"}}}` + "\n")
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".jsonl"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareExitsTwoOnWorse(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "BENCHMARK.json")
	err := os.WriteFile(specPath, []byte(`{"command": ["true"], "paths": ["p"], "run_seconds": 1,
		"workloads": [{"name": "w1", "why": "a"}, {"name": "w2", "why": "b"}],
		"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "x", "unit": "us", "better": "lower"}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	a, b := t.TempDir(), t.TempDir()
	writeRuns(t, a, "w1", []float64{10, 10.1, 9.9, 10, 10.05})
	writeRuns(t, b, "w1", []float64{10.1, 10, 9.95, 10.05, 10})
	var out bytes.Buffer
	worse, err := compare(s, a, b, &out)
	if err != nil || worse {
		t.Fatalf("same runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "within") {
		t.Errorf("table lacks the within verdict:\n%s", out.String())
	}
	writeRuns(t, b, "w1", []float64{12, 12.1, 11.9, 12, 12.05})
	out.Reset()
	if code, err := mainErr([]string{"compare", "-bench", specPath, a, b}, &out, &out); code != 2 {
		t.Fatalf("slower runs: exit %d (%v), want 2\n%s", code, err, out.String())
	}
	writeRuns(t, b, "w2", []float64{1})
	if _, err := compare(s, a, b, &out); err == nil {
		t.Error("a workload present on one side only was not reported")
	}
}
