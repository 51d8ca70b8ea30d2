package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"slapcc/internal/benchfmt"
)

// goBenchLine is the Go benchmark output contract: benchstat must be
// able to parse every stdout line the harness emits.
var goBenchLine = regexp.MustCompile(`^BenchmarkSweet/[a-z0-9/._\-]+ \t\s+1 \t\s+[0-9.e+\-]+ \S+$`)

// TestSweetSmoke is the in-process end-to-end smoke: boot a real slapd,
// drive a service scenario and a core scenario at short scale, and
// check both output formats — Go benchmark lines on stdout and a
// schema-valid typed BENCH artifact on disk.
func TestSweetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon and measures; skipped in -short")
	}
	outPath := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	var out, errw bytes.Buffer
	code, err := run([]string{
		"-short", "-run", "steady|engine", "-count", "3",
		"-o", outPath, "-pr", "10", "-title", "smoke",
	}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("run: code %d, err %v\nstderr:\n%s", code, err, errw.String())
	}

	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("want a benchmark line per metric, got %d lines:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		if !goBenchLine.MatchString(line) {
			t.Errorf("stdout line is not Go benchmark format: %q", line)
		}
	}

	f, err := benchfmt.Load(outPath)
	if err != nil {
		t.Fatalf("artifact unreadable: %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	if f.Schema != benchfmt.SchemaV1 || f.PR != 10 {
		t.Errorf("schema %q PR %d, want %q 10", f.Schema, f.PR, benchfmt.SchemaV1)
	}
	if f.Runner.Cores == 0 || f.Runner.GoVersion == "" {
		t.Errorf("runner provenance missing: %+v", f.Runner)
	}
	for _, name := range []string{
		"steady/frames_per_s",
		"steady/latency_p99_ms",
		"steady/stage/label_p95_ms",
		"core/engine-seq/mb_per_s",
		"core/engine-host/mb_per_s",
	} {
		r := f.Find(name)
		if r == nil {
			t.Errorf("artifact missing %s", name)
			continue
		}
		if r.Value <= 0 {
			t.Errorf("%s: non-positive value %v", name, r.Value)
		}
	}
	// Core metrics must carry raw samples so a later diff can use the
	// significance test instead of the loose point heuristic.
	if r := f.Find("core/engine-seq/mb_per_s"); r != nil && len(r.Samples) != 3 {
		t.Errorf("core/engine-seq/mb_per_s: %d samples, want 3", len(r.Samples))
	}
}

// TestSweetDiffGateFires: a baseline claiming absurdly high throughput
// must make -diff exit with the regression code.
func TestSweetDiffGateFires(t *testing.T) {
	if testing.Short() {
		t.Skip("measures; skipped in -short")
	}
	dir := t.TempDir()
	base := &benchfmt.File{
		Schema: benchfmt.SchemaV1, PR: 8, Title: "impossible baseline",
		Runner: benchfmt.Runner{Cores: 1, GOMAXPROCS: 1},
		Results: []benchfmt.Result{{
			Name: "core/reuse/mb_per_s", Unit: "MB/s",
			Better: benchfmt.HigherIsBetter,
			Value:  1e9, Samples: []float64{1e9, 1e9 + 1, 1e9 + 2},
		}},
	}
	basePath := filepath.Join(dir, "BENCH_base.json")
	if err := base.Write(basePath); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	code, err := run([]string{"-short", "-run", "reuse", "-diff", basePath}, &out, &errw)
	if code != 2 || err == nil {
		t.Fatalf("want exit code 2 with error, got code %d err %v\nstdout:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("rendered diff does not flag the regression:\n%s", out.String())
	}
}

// TestSweetList pins the scenario inventory the docs enumerate.
func TestSweetList(t *testing.T) {
	var out, errw bytes.Buffer
	code, err := run([]string{"-list"}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("run -list: code %d err %v", code, err)
	}
	for _, name := range []string{
		"steady", "burst", "overload", "strip", "batch", "cost",
		"engine", "stream", "stripworkers", "reuse",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list missing scenario %s:\n%s", name, out.String())
		}
	}
	if strings.Contains(out.String(), "linktune") {
		t.Errorf("-list still offers the retired linktune scenario:\n%s", out.String())
	}
}

// TestSweetBadFlags: unknown scenarios and the retired -gmp flag fail
// cleanly.
func TestSweetBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code, err := run([]string{"-run", "nonesuch"}, &out, &errw); err == nil || code != 1 {
		t.Errorf("unknown scenario: want code 1 with error, got %d, %v", code, err)
	}
	if code, err := run([]string{"-gmp", "1,2"}, &out, &errw); err == nil || code != 1 {
		t.Errorf("-gmp: want rejection as an unknown flag (code 1), got %d, %v", code, err)
	}
}
