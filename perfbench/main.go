// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against in-process slapd and slapfront tiers on
// loopback TCP, checks every answer against a reference computed in
// process, and prints each metric by name and unit, then one JSON
// result as the last line of standard output:
//
//	perfbench --workload small-open --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// load with client tracing on every other request and then the layer
// ladder, and reports the per-layer metrics. A wrong, failed or refused
// answer makes the run exit 1.
//
//	perfbench compare [-bench BENCHMARK.json] A B
//
// compares two sets of runs: A and B are directories holding one
// <workload>.jsonl file per workload, each line the result of one run.
// It exits 2 if any end-to-end metric got worse by more than its bound.
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string, out, errw io.Writer) (int, error) {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], out, errw)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		name    = fs.String("workload", "", "workload to run (small-open, large-host, sim-strips, cluster-labels)")
		seed    = fs.Uint64("seed", 1, "seed of the generated frames")
		seconds = fs.Float64("seconds", 25, "length of the measured phases in seconds")
		trace   = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return 1, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 1, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	res, err := run(config{
		workload:     w,
		seed:         *seed,
		seconds:      *seconds,
		trace:        *trace == 1,
		setups:       9,
		ladderBudget: 4 * time.Second,
		log:          errw,
	})
	if err != nil {
		return 1, err
	}
	if err := printResult(out, res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d requests failed or were answered wrongly", res.Failed, res.Attempted)
	}
	return 0, nil
}
