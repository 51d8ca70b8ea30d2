package benchfmt

import (
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot locates the committed BENCH trajectory from the package dir.
const repoRoot = "../.."

func validFile() *File {
	return &File{
		Schema: SchemaV1, PR: 10,
		Runner: Runner{Cores: 1, GOMAXPROCS: 4},
		Results: []Result{
			{Name: "steady/frames_per_s", Unit: "frames/s", Better: HigherIsBetter, Value: 90},
			{Name: "steady/latency_p99_ms", Unit: "ms", Better: Informational, Value: 170},
			{Name: "core/engine-par/gmp4/mb_per_s", Unit: "MB/s", Better: HigherIsBetter,
				Value: 8, Samples: []float64{7.9, 8.0, 8.1}},
		},
	}
}

func TestValidateAcceptsCanonicalFile(t *testing.T) {
	if err := validFile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*File)
		want string
	}{
		{"unknown schema", func(f *File) { f.Schema = "v0" }, "unknown schema"},
		{"no results", func(f *File) { f.Results = nil }, "no results"},
		{"bad name", func(f *File) { f.Results[0].Name = "Steady FPS" }, "bad name"},
		{"duplicate name", func(f *File) { f.Results[1].Name = f.Results[0].Name }, "duplicate"},
		{"empty unit", func(f *File) { f.Results[0].Unit = "" }, "bad unit"},
		{"spaced unit", func(f *File) { f.Results[0].Unit = "frames / s" }, "bad unit"},
		{"bad direction", func(f *File) { f.Results[0].Better = "sideways" }, "bad direction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFile()
			tc.mut(f)
			err := f.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// goBenchLine is the shape the Go benchmark parser (and benchstat)
// accepts: name starting with Benchmark, an iteration count, then
// value-unit pairs.
var goBenchLine = regexp.MustCompile(`^BenchmarkSweet/[^ \t]+ \t +1 \t +[0-9.e+-]+ [^ \t]+$`)

func TestWriteGoBenchFormat(t *testing.T) {
	var sb strings.Builder
	if err := WriteGoBench(&sb, validFile()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	// 2 point results + 3 samples of the sampled result.
	if len(lines) != 5 {
		t.Fatalf("want 5 benchmark lines, got %d:\n%s", len(lines), sb.String())
	}
	for _, line := range lines {
		if !goBenchLine.MatchString(line) {
			t.Errorf("line not in Go benchmark format: %q", line)
		}
	}
	if !strings.Contains(sb.String(), "BenchmarkSweet/steady/frames_per_s") {
		t.Errorf("missing canonical benchmark name:\n%s", sb.String())
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	f := validFile()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.PR != f.PR || len(got.Results) != len(f.Results) {
		t.Fatalf("round trip changed the file: %+v", got)
	}
	r := got.Find("core/engine-par/gmp4/mb_per_s")
	if r == nil || len(r.Samples) != 3 || r.Better != HigherIsBetter {
		t.Fatalf("round trip lost the sampled result: %+v", r)
	}
}

// TestLoadTrajectoryGolden golden-loads the committed trajectory.
// BENCH_pr2/pr4/pr8.json were migrated from pre-schema shapes; these
// canonical names and values must survive, because `slapsweet -diff`
// joins on the names and the scenario runner emits the same ones. The
// numbers the migration kept beyond them live under source/ and must
// never join or gate.
func TestLoadTrajectoryGolden(t *testing.T) {
	files, err := LoadTrajectory(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	byPR := map[int]*File{}
	for _, f := range files {
		byPR[f.PR] = f
	}
	for _, pr := range []int{2, 4, 8} {
		if byPR[pr] == nil {
			t.Fatalf("trajectory missing PR %d (got %d files)", pr, len(files))
		}
	}

	want := []struct {
		pr     int
		name   string
		value  float64
		better Direction
	}{
		{2, "core/engine-seq/mb_per_s", 8.54, HigherIsBetter},
		{2, "core/engine-par/gmp1/mb_per_s", 8.2, HigherIsBetter},
		{2, "core/reuse/mb_per_s", 8.88, HigherIsBetter},
		{2, "core/reuse/allocs_per_frame", 16, Informational},
		{2, "core/stream/w1/mb_per_s", 7.9, HigherIsBetter},
		{4, "steady/frames_per_s", 86.75710211316827, HigherIsBetter},
		{4, "steady/pixel_mb_per_s", 2.4619139212903622, HigherIsBetter},
		{4, "steady/latency_p99_ms", 170.101261, Informational},
		{4, "overload/rejected_429", 46, Informational},
		{8, "cost-host/frames_per_s", 103.6, HigherIsBetter},
		{8, "cost-host/pixel_mb_per_s", 108.68, HigherIsBetter},
		{8, "cost-bitserial/frames_per_s", 6.27, HigherIsBetter},
		{8, "engine/host_over_bitserial", 16.5, HigherIsBetter},
		{8, "core/engine-seq/mb_per_s", 5.85, HigherIsBetter},
		{8, "core/engine-host/mb_per_s", 52.7, HigherIsBetter},
	}
	for _, w := range want {
		r := byPR[w.pr].Find(w.name)
		if r == nil {
			t.Errorf("PR %d: lost metric %q", w.pr, w.name)
			continue
		}
		if math.Abs(r.Value-w.value) > 1e-9 {
			t.Errorf("PR %d %s: value %v, want %v", w.pr, w.name, r.Value, w.value)
		}
		if r.Better != w.better {
			t.Errorf("PR %d %s: direction %q, want %q", w.pr, w.name, r.Better, w.better)
		}
	}

	// The runner provenance survived migration: every measurement in
	// BENCH_pr2/pr4/pr8 came from a 1-core box, which is what makes
	// BENCH_pr10's GOMAXPROCS>1 rows "first".
	for _, pr := range []int{2, 4, 8} {
		if got := byPR[pr].Runner.Cores; got != 1 {
			t.Errorf("PR %d: runner cores %d, want 1", pr, got)
		}
		for _, r := range byPR[pr].Results {
			if strings.HasPrefix(r.Name, "source/") && r.Better != Informational {
				t.Errorf("PR %d %s: migrated source number gates (direction %q)", pr, r.Name, r.Better)
			}
		}
	}
}

// TestLoadTrajectorySkipsDerivedArtifacts: CI-derived names like
// BENCH_pr4_service.json must not be mistaken for trajectory points.
func TestLoadTrajectorySkipsDerivedArtifacts(t *testing.T) {
	files, err := LoadTrajectory(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		if i > 0 && files[i-1].PR >= f.PR {
			t.Errorf("trajectory not strictly ordered by PR: %d then %d", files[i-1].PR, f.PR)
		}
	}
}

// TestParseRejectsSchemaless: a file without the schema tag, or not
// JSON at all, is refused, and the refusal names the missing field.
func TestParseRejectsSchemaless(t *testing.T) {
	if _, err := Parse([]byte(`{"surprise": 1}`)); err == nil || !strings.Contains(err.Error(), `"schema"`) {
		t.Fatalf("schema-less file: want an error naming the schema field, got %v", err)
	}
	if _, err := Load(filepath.Join(repoRoot, "go.mod")); err == nil {
		t.Fatal("want error for non-JSON file")
	}
}
