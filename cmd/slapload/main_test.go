package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slapcc/internal/cluster"
	"slapcc/internal/server"
)

// TestLoadAgainstRealServer is the acceptance loop in miniature: a
// mixed-size, mixed-format corpus through a real server handler with
// full verification, ordered batches, and an over-capacity burst, all
// reported into the JSON artifact.
func TestLoadAgainstRealServer(t *testing.T) {
	hs := httptest.NewServer(server.New(server.Config{Workers: 2, QueueDepth: 2}))
	defer hs.Close()

	outPath := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	err := run([]string{
		"-url", hs.URL,
		"-frames", "24", "-concurrency", "3",
		"-sizes", "16,24", "-corpus", "2",
		"-formats", "png,pbm,raw,art",
		"-array", "8",
		"-batches", "2", "-batchsize", "4",
		"-overload", "12",
		"-out", outPath,
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}

	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("bad report: %v\n%s", err, blob)
	}
	if rep.Errors != 0 || rep.Verify.Mismatches != 0 {
		t.Fatalf("errors %d, mismatches %d", rep.Errors, rep.Verify.Mismatches)
	}
	if !rep.Verify.Enabled || rep.Verify.Frames != 24 {
		t.Fatalf("verify: %+v", rep.Verify)
	}
	if rep.Batch.Batches != 2 || rep.Batch.Frames != 8 || rep.Batch.Errors != 0 || rep.Batch.Mismatches != 0 {
		t.Fatalf("batch: %+v", rep.Batch)
	}
	// Two sizes × (whole + strip-mined + strip-mined-pipelined): the
	// aggregate spot-checks must all verify against AggregateLarge.
	if rep.Aggregate.Checks != 6 || rep.Aggregate.Strip != 4 ||
		rep.Aggregate.Errors != 0 || rep.Aggregate.Mismatches != 0 {
		t.Fatalf("aggregate: %+v", rep.Aggregate)
	}
	if rep.Overload.Requests != 12 || rep.Overload.OK+rep.Overload.Rejected429+rep.Overload.Errors != 12 || rep.Overload.Errors != 0 {
		t.Fatalf("overload: %+v", rep.Overload)
	}
	if rep.LatencyMS.P50 <= 0 || rep.LatencyMS.P99 < rep.LatencyMS.P50 {
		t.Fatalf("latency: %+v", rep.LatencyMS)
	}
	// The Server-Timing headers must break server time down by stage.
	for _, stage := range []string{"queue", "decode", "label", "encode"} {
		st, ok := rep.ServerStages[stage]
		if !ok || st.N == 0 {
			t.Fatalf("no server stage %q in report: %+v", stage, rep.ServerStages)
		}
		if st.P99 < st.P50 {
			t.Fatalf("stage %q percentiles inverted: %+v", stage, st)
		}
	}
	if rep.FramesPerS <= 0 || rep.MBPerS <= 0 {
		t.Fatalf("throughput: %+v", rep)
	}
	if !strings.Contains(out.String(), "latency: p50") {
		t.Fatalf("no summary:\n%s", out.String())
	}
}

// TestRunFlagErrors: a missing -url, malformed lists, and a loop that
// would verify nothing fail fast, before any request is sent.
func TestRunFlagErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-url") {
		t.Fatalf("missing url: %v", err)
	}
	if err := run([]string{"-url", "http://x", "-sizes", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad sizes accepted")
	}
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-concurrency", "0", "concurrency"},
		{"-frames", "0", "frames"},
		{"-frames", "-5", "frames"},
	} {
		err := run([]string{"-url", "http://x", tc.flag, tc.value}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: want an error naming %s, got %v", tc.flag, tc.value, tc.want, err)
		}
	}
}

// TestReportContracts pins what other tools read from a run: the CI
// workflow parses the -out report and greps stdout for "server stage".
func TestReportContracts(t *testing.T) {
	hs := httptest.NewServer(server.New(server.Config{}))
	defer hs.Close()
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-url", hs.URL, "-frames", "12", "-concurrency", "2", "-sizes", "16,24", "-corpus", "2",
		"-formats", "raw,png", "-batches", "1", "-batchsize", "2", "-overload", "4",
		"-out", filepath.Join(dir, "report.json"),
	}, &out)
	if err != nil || !strings.Contains(out.String(), "server stage") {
		t.Fatalf("%v\n%s", err, out.String())
	}
	blob, err := os.ReadFile(filepath.Join(dir, "report.json"))
	var doc map[string]any
	if err != nil || json.Unmarshal(blob, &doc) != nil {
		t.Fatalf("report unreadable: %v\n%s", err, blob)
	}
	get := func(path string) any {
		var v any = doc
		for _, k := range strings.Split(path, ".") {
			m, _ := v.(map[string]any)
			v = m[k]
		}
		return v
	}
	for path, want := range map[string]any{
		"frames": 12.0, "verify.frames": 12.0, "errors": 0.0, "verify.mismatches": 0.0, "aggregate.mismatches": 0.0,
		"overload.requests": 4.0, "overload.errors": 0.0,
	} {
		if got := get(path); got != want {
			t.Errorf("report %s = %v, want %v", path, got, want)
		}
	}
	for _, path := range []string{"frames_per_s", "pixel_mb_per_s", "latency_ms.p50", "latency_ms.p99", "overload.rejected_429"} {
		if _, ok := get(path).(float64); !ok {
			t.Errorf("report lacks %s:\n%s", path, blob)
		}
	}
	for _, literal := range []string{`"errors": 0`, `"mismatches": 0`} {
		if !bytes.Contains(blob, []byte(literal)) {
			t.Errorf("report lacks the literal %s the CI greps for", literal)
		}
	}
}

// TestLoadAgainstCluster drives the -cluster scenario end to end: two
// slapd backends behind a slapfront coordinator, one killed outright
// mid-corpus (its strips re-shard to the survivor), and every response
// — including the strip-mined frames that fan out across the fleet —
// still verifies bit-for-bit with zero errors.
func TestLoadAgainstCluster(t *testing.T) {
	b1 := httptest.NewServer(server.New(server.Config{Workers: 2}))
	defer b1.Close()
	b2 := httptest.NewServer(server.New(server.Config{Workers: 2}))
	co := cluster.New(cluster.Config{
		Backends:    []string{b1.URL, b2.URL},
		RetryBudget: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	defer co.Close()
	front := httptest.NewServer(co)
	defer front.Close()

	// Kill backend 2 while the loop runs: refused connections from the
	// first in-flight strip onward.
	killed := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		b2.CloseClientConnections()
		b2.Close()
		close(killed)
	}()

	outPath := filepath.Join(t.TempDir(), "bench-cluster.json")
	var out bytes.Buffer
	err := run([]string{
		"-url", front.URL,
		"-cluster",
		"-frames", "32", "-concurrency", "3",
		"-sizes", "16,24", "-corpus", "2",
		"-formats", "png,raw",
		"-array", "8",
		"-out", outPath,
	}, &out)
	<-killed
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}

	blob, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("bad report: %v\n%s", err, blob)
	}
	if !rep.Cluster {
		t.Fatalf("report not marked cluster: %+v", rep)
	}
	if rep.Errors != 0 || rep.Verify.Mismatches != 0 {
		t.Fatalf("cluster run with a killed backend: errors %d, mismatches %d\n%s", rep.Errors, rep.Verify.Mismatches, out.String())
	}
	if rep.Batch.Batches != 0 {
		t.Fatalf("batch phase ran against a coordinator: %+v", rep.Batch)
	}
	if rep.Aggregate.Checks == 0 || rep.Aggregate.Errors != 0 || rep.Aggregate.Mismatches != 0 {
		t.Fatalf("aggregate: %+v", rep.Aggregate)
	}
	// The coordinator's Server-Timing must survive the extra tier.
	if st, ok := rep.ServerStages["decode"]; !ok || st.N == 0 {
		t.Fatalf("no coordinator decode stage in report: %+v", rep.ServerStages)
	}
}
