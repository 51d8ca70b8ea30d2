// Command slapbench runs the reproduction experiment suite (E1–E13,
// indexed in internal/harness) and prints the result tables; the
// simulated-cost conventions the tables use are defined in
// docs/METRICS.md, and the system layout in docs/ARCHITECTURE.md.
//
// Usage:
//
//	slapbench                      # full suite, default sizes
//	slapbench -id E3 -sizes 64,128,256,512
//	slapbench -quick               # small sizes (CI-friendly)
//	slapbench -csv > results.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"slapcc/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slapbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slapbench", flag.ContinueOnError)
	exps := harness.All()
	var (
		id    = fs.String("id", "", "run only this experiment ("+exps[0].ID+".."+exps[len(exps)-1].ID+")")
		sizes = fs.String("sizes", "", "comma-separated image sizes (default 32,64,128,256,512)")
		quick = fs.Bool("quick", false, "use the quick size sweep (16,32,64)")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		seed  = fs.Uint64("seed", 1, "seed for randomized workloads")
		list  = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
	}
	cfg.Seed = *seed
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		cfg.Sizes = parsed
	}

	if *id != "" {
		e, ok := harness.ByID(*id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *id)
		}
		exps = []harness.Experiment{e}
	}

	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "running %s — %s ...\n", e.ID, e.Title)
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			if *csv {
				if err := t.WriteCSV(os.Stdout); err != nil {
					return err
				}
			} else if err := t.Render(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
