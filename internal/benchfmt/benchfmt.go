// Package benchfmt defines the typed schema for the repository's
// BENCH_*.json trajectory files, loads the committed trajectory, emits
// results in Go benchmark format so standard tooling
// (benchstat) can consume them, and implements the benchstat-style
// comparison behind `slapsweet -diff`: per-metric deltas with a
// noise-aware significance test, so a run can fail on regression
// against the committed trajectory instead of eyeballing JSON.
//
// The schema is deliberately flat: a File is a runner description plus
// a list of named Results, each a metric with a unit, an improvement
// direction, and either raw samples or a single summary value. Scenario
// structure lives in the slash-separated names ("steady/frames_per_s",
// "core/stream/w2/mb_per_s"), which keeps the comparison logic a
// name join rather than a schema walk. See docs/BENCHMARKING.md for the
// scenario inventory and how the trajectory files are produced.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// SchemaV1 identifies the first typed BENCH schema. Every committed
// BENCH file carries it; the pre-schema BENCH_pr2/pr4/pr8.json were
// migrated once, their unmapped numbers kept as informational source/
// results.
const SchemaV1 = "slap-bench/v1"

// Direction says which way a metric improves. Informational metrics
// (empty direction) are recorded and diffed for the log but can never
// gate a build: latencies on shared CI runners and GC counters are too
// noisy to block merges, while throughput collapses are exactly what
// the gate exists to catch.
type Direction string

const (
	HigherIsBetter Direction = "higher"
	LowerIsBetter  Direction = "lower"
	Informational  Direction = ""
)

// File is one BENCH_*.json artifact under the typed schema.
type File struct {
	Schema   string   `json:"schema"`
	PR       int      `json:"pr"`
	Title    string   `json:"title,omitempty"`
	Date     string   `json:"date,omitempty"` // YYYY-MM-DD
	Runner   Runner   `json:"runner"`
	Protocol string   `json:"protocol,omitempty"`
	Results  []Result `json:"results"`
}

// Runner records where the numbers came from. Cores is the physical
// CPU count (runtime.NumCPU); GOMAXPROCS>Cores measurements are real
// measurements of the Go scheduler's interleaving but cannot show
// parallel speedup, and readers need both numbers to tell which regime
// a row was measured in.
type Runner struct {
	CPU        string `json:"cpu,omitempty"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go,omitempty"`
}

// Result is one named measurement.
type Result struct {
	// Name is the canonical slash-separated metric path, e.g.
	// "steady/frames_per_s". Names are what the diff joins on, so the
	// scenario runner and the committed trajectory must agree on them.
	Name string `json:"name"`
	// Unit is the human unit ("frames/s", "ms", "MB/s"). For the Go
	// benchmark emission it must not contain spaces.
	Unit string `json:"unit"`
	// Better is the improvement direction; Informational metrics never
	// gate a diff.
	Better Direction `json:"better,omitempty"`
	// Value is the summary statistic (the mean of Samples when they
	// are present, otherwise the single measurement).
	Value float64 `json:"value"`
	// Samples holds the raw per-run measurements when the scenario ran
	// more than once; the diff's significance test needs ≥ 3 on both
	// sides to say anything beyond the threshold heuristic.
	Samples []float64 `json:"samples,omitempty"`
	// Attrs carries dimensions that are not part of the name
	// (gomaxprocs, workers, frame size, cost model).
	Attrs map[string]string `json:"attrs,omitempty"`
	Note  string            `json:"note,omitempty"`
}

// Mean returns the summary value, preferring the recorded samples.
func (r *Result) Mean() float64 {
	if len(r.Samples) == 0 {
		return r.Value
	}
	sum := 0.0
	for _, s := range r.Samples {
		sum += s
	}
	return sum / float64(len(r.Samples))
}

var nameRe = regexp.MustCompile(`^[a-z0-9_.-]+(/[a-z0-9_.-]+)*$`)

// Validate checks the file against the schema contract: a known schema
// tag, well-formed unique metric names, units without spaces, known
// directions, and a Value consistent with Samples when both are given.
func (f *File) Validate() error {
	if f.Schema != SchemaV1 {
		return fmt.Errorf("benchfmt: unknown schema %q (want %q)", f.Schema, SchemaV1)
	}
	if len(f.Results) == 0 {
		return fmt.Errorf("benchfmt: no results")
	}
	seen := make(map[string]bool, len(f.Results))
	for i := range f.Results {
		r := &f.Results[i]
		if !nameRe.MatchString(r.Name) {
			return fmt.Errorf("benchfmt: result %d: bad name %q (want lowercase slash-separated path)", i, r.Name)
		}
		if seen[r.Name] {
			return fmt.Errorf("benchfmt: duplicate result name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Unit == "" || strings.ContainsAny(r.Unit, " \t") {
			return fmt.Errorf("benchfmt: result %q: bad unit %q", r.Name, r.Unit)
		}
		switch r.Better {
		case HigherIsBetter, LowerIsBetter, Informational:
		default:
			return fmt.Errorf("benchfmt: result %q: bad direction %q", r.Name, r.Better)
		}
		for _, s := range r.Samples {
			if s != s { // NaN
				return fmt.Errorf("benchfmt: result %q: NaN sample", r.Name)
			}
		}
	}
	return nil
}

// Find returns the result with the given name, or nil.
func (f *File) Find(name string) *Result {
	for i := range f.Results {
		if f.Results[i].Name == name {
			return &f.Results[i]
		}
	}
	return nil
}

// Sort orders results by name, for stable emission.
func (f *File) Sort() {
	sort.Slice(f.Results, func(i, j int) bool { return f.Results[i].Name < f.Results[j].Name })
}

// Write marshals the file (validated, sorted) to path with a trailing
// newline, matching the repository's committed BENCH style.
func (f *File) Write(path string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	f.Sort()
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// Load reads and validates a BENCH file from path.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// Parse decodes a BENCH file from raw bytes; see Load.
func Parse(raw []byte) (*File, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("benchfmt: not a JSON object: %w", err)
	}
	if probe.Schema == "" {
		return nil, fmt.Errorf("benchfmt: missing \"schema\" field (want %q)", SchemaV1)
	}
	f := &File{}
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadTrajectory loads every BENCH_pr*.json in dir ordered by PR
// number — the committed measurement trajectory.
func LoadTrajectory(dir string) ([]*File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		return nil, err
	}
	var files []*File
	for _, p := range paths {
		// Derived artifacts like BENCH_pr4_service.json ride CI, not the
		// trajectory; trajectory files are exactly BENCH_pr<digits>.json.
		base := strings.TrimSuffix(filepath.Base(p), ".json")
		num := strings.TrimPrefix(base, "BENCH_pr")
		if num == "" || strings.IndexFunc(num, func(r rune) bool { return r < '0' || r > '9' }) >= 0 {
			continue
		}
		f, err := Load(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("benchfmt: no BENCH_pr*.json files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].PR < files[j].PR })
	return files, nil
}
