package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json, which the runs are judged by,
// in step with the workloads and metric catalog in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(keys); !slices.Equal(got, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Errorf("top-level keys %v", got)
	}
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Command, []string{"bash", "perfbench/run.sh"}) || !slices.Equal(s.Paths, []string{"perfbench"}) {
		t.Errorf("command %v, paths %v", s.Command, s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if n := len(s.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here (want 2–8, equal)", n, len(workloads))
	}
	for i, wl := range s.Workloads {
		checkName(wl.Name)
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, wl.Name, workloads[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1–200 characters", wl.Name)
		}
	}

	if len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics (limits 16, 128)", len(s.EndToEnd), len(s.PerLayer))
	}
	largest := 0.0
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		} else if *m.Bound > largest {
			largest = *m.Bound
		}
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound == nil || *m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound; got %+v", m)
		}
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	matchCatalog(t, "end_to_end", s.EndToEnd, endToEnd, checkName)
	matchCatalog(t, "per_layer", s.PerLayer, perLayer, checkName)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}

	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, d := range perLayer {
		if _, err := workloadByName(d.on); err != nil || d.layer == "" {
			t.Errorf("per-layer %s: needs a layer and a workload it is read on (%q)", d.name, d.on)
		}
		if d.moves == "" && d.note == "" || d.moves != "" && !e2e[d.moves] {
			t.Errorf("per-layer %s: moves %q is not an end-to-end metric, and no note says why", d.name, d.moves)
		}
	}
}

func matchCatalog(t *testing.T, key string, got []specMetric, want []metricDef, checkName func(string)) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s lists %d metrics, the catalog %d", key, len(got), len(want))
		return
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, m := range got {
		checkName(m.Name)
		d := want[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("%s[%d] = %s %s %s, catalog %s %s %s", key, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s %s: bad unit %q or direction %q", key, m.Name, m.Unit, m.Better)
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
