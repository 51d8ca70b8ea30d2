package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestShortSoak runs the whole harness — real slapfront, three real
// backends behind chaos proxies, a kill/restart/latency/err500/burst
// schedule scaled down to a few seconds — and requires the SLOs to
// hold: zero mismatches, zero unexplained errors, drained gauges.
func TestShortSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	out := &bytes.Buffer{}
	rep := filepath.Join(t.TempDir(), "BENCH_chaos.json")
	err := run([]string{
		"-duration", "5s",
		"-concurrency", "2",
		"-sizes", "48",
		"-out", rep,
	}, out)
	if err != nil {
		t.Fatalf("soak failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "SLO: all green") {
		t.Fatalf("no green SLO verdict:\n%s", out.String())
	}
	// Every successful request carried a trace; the stage-sum audit must
	// have actually run (a green verdict with zero audits would be vacuous).
	if !strings.Contains(out.String(), "traces: ") || strings.Contains(out.String(), "traces: 0 audited") {
		t.Fatalf("trace audit did not run:\n%s", out.String())
	}
}

// TestParseSchedule pins the schedule DSL: well-formed entries parse in
// time order, malformed ones fail loudly.
func TestParseSchedule(t *testing.T) {
	evs, err := parseSchedule("10s:kill:1; 5s:latency:0:100ms:2s ;20s:burst:8", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 || evs[0].kind != "latency" || evs[1].kind != "kill" || evs[2].kind != "burst" {
		t.Fatalf("parsed %+v", evs)
	}
	if evs[0].delay != 100*time.Millisecond || evs[0].window != 2*time.Second || evs[2].burst != 8 {
		t.Fatalf("args lost: %+v", evs)
	}
	for _, bad := range []string{
		"5s:kill:3",       // backend out of range
		"5s:explode:0",    // unknown kind
		"nope:kill:0",     // bad offset
		"5s:latency:0:1s", // missing window
		"5s:burst:0",      // zero burst
		"kill:0",          // missing offset
	} {
		if _, err := parseSchedule(bad, 3); err == nil {
			t.Errorf("schedule %q accepted", bad)
		}
	}
}

// TestRunFlagErrors: bad flags fail before the fleet boots — in
// particular a soak with no clients, which would otherwise run its
// whole duration and only then report that no traffic completed.
func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-concurrency", "0"}, "concurrency"},
		{[]string{"-verifyengine", "quantum"}, "verifyengine"},
		{[]string{"-sizes", "nope"}, "sizes"},
		{[]string{"-schedule", "5s:explode:0"}, "unknown kind"},
	} {
		out := &bytes.Buffer{}
		err := run(append([]string{"-duration", "1h"}, tc.args...), out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: want an error mentioning %q, got %v", tc.args, tc.want, err)
		}
		if strings.Contains(out.String(), "slapchaos: front") {
			t.Errorf("%v: fleet booted before the flag error:\n%s", tc.args, out.String())
		}
	}
}
