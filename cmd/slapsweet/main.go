// Command slapsweet is the repo's end-to-end benchmark and regression
// harness, in the mold of the Go benchmarks repo's sweet/bent drivers.
// One invocation boots a real slapd in process, drives the named
// scenarios (steady-state, burst, overload, strip-mined, batch,
// cost=host vs cost=bitserial, and the core multicore sweeps), captures
// diagnostics (CPU/heap profiles from the debug listener, GC deltas,
// per-stage Server-Timing percentiles), and emits the results twice:
// Go benchmark lines on stdout (benchstat-ready) and a typed BENCH JSON
// artifact (see internal/benchfmt and docs/BENCHMARKING.md).
//
// Usage:
//
//	slapsweet -o BENCH_pr10.json                 # full run, all scenarios
//	slapsweet -short -run 'steady|engine'        # seconds-long smoke
//	slapsweet -o new.json -diff BENCH_pr10.json  # exit 2 on regression
//	slapsweet -list                              # scenario inventory
//
// -diff compares the fresh run against a committed trajectory point
// with the benchstat-style significance test: sampled metrics gate on
// Mann-Whitney + a practical threshold, point metrics (the pre-schema
// trajectory carries no samples) on a loose collapse threshold, and
// informational metrics (latencies, GC) never gate. A significant
// regression exits 2 — the CI gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"slapcc/internal/benchfmt"
	"slapcc/internal/sweet"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slapsweet:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run executes the harness; the int is the exit code (1 = error,
// 2 = regression gate fired), separated from err so tests can tell a
// failed run from a failed diff.
func run(args []string, out, errw io.Writer) (int, error) {
	fs := flag.NewFlagSet("slapsweet", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		pattern  = fs.String("run", "", "anchored regexp selecting scenarios (empty = all; see -list)")
		list     = fs.Bool("list", false, "print the scenario inventory and exit")
		short    = fs.Bool("short", false, "seconds-long smoke scale instead of full measurement scale")
		count    = fs.Int("count", 0, "samples per core measurement (0 = 3)")
		outPath  = fs.String("o", "", "write the typed BENCH JSON artifact here")
		pr       = fs.Int("pr", 0, "PR number stamped into the artifact")
		title    = fs.String("title", "", "title stamped into the artifact")
		profDir  = fs.String("profiledir", "", "capture CPU+heap pprof profiles per service scenario into this directory")
		diffPath = fs.String("diff", "", "compare against this BENCH file; exit 2 on significant regression")
		seed     = fs.Uint64("seed", 1, "corpus seed")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *list {
		for _, s := range sweet.Scenarios() {
			fmt.Fprintf(out, "%-14s %-8s %s\n", s.Name, s.Kind, s.Desc)
		}
		return 0, nil
	}

	cfg := sweet.Config{
		Short:      *short,
		Count:      *count,
		ProfileDir: *profDir,
		Seed:       *seed,
		Log:        errw,
	}

	f, err := sweet.Run(*pattern, cfg)
	if err != nil {
		return 1, err
	}
	f.PR = *pr
	f.Title = *title
	if f.Title == "" {
		f.Title = "slapsweet run"
	}

	if err := benchfmt.WriteGoBench(out, f); err != nil {
		return 1, err
	}
	if *outPath != "" {
		if err := f.Write(*outPath); err != nil {
			return 1, err
		}
		fmt.Fprintf(errw, "slapsweet: wrote %s (%d metrics)\n", *outPath, len(f.Results))
	}

	if *diffPath != "" {
		old, err := benchfmt.Load(*diffPath)
		if err != nil {
			return 1, fmt.Errorf("loading -diff baseline: %w", err)
		}
		d := benchfmt.Compare(old, f, benchfmt.DiffOptions{})
		if err := d.Render(out); err != nil {
			return 1, err
		}
		if regs := d.Regressions(); len(regs) > 0 {
			return 2, fmt.Errorf("%d significant regression(s) vs %s", len(regs), *diffPath)
		}
		fmt.Fprintf(errw, "slapsweet: no significant regression vs %s\n", *diffPath)
	}
	return 0, nil
}
