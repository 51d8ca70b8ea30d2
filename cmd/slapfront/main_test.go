package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"slapcc"
	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/server"
)

// TestDaemonLifecycle boots slapfront on an ephemeral port in front of
// one real slapd handler, labels strip-mined through the real client,
// checks the answer against the in-process reference, then delivers
// the shutdown signal — the whole coordinator loop in one test.
func TestDaemonLifecycle(t *testing.T) {
	backend := httptest.NewServer(server.New(server.Config{Workers: 2}))
	defer backend.Close()

	signals := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-backends", backend.URL, "-probe", "0"},
			&out, signals, func(addr string) { ready <- addr })
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	img := slapcc.RandomImage(32, 0.5, 42)
	want, err := slapcc.LabelWithOptions(img, slapcc.Options{ArrayWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Label(ctx, img, api.Params{Format: "raw", ArrayWidth: 8, WantLabels: true})
	if err != nil {
		t.Fatalf("label: %v", err)
	}
	if resp.Components != want.Labels.ComponentCount() || resp.Metrics.TimeSteps != want.Metrics.Time {
		t.Fatalf("cluster labeling diverged from local strip-mined run: %+v", resp)
	}

	signals <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop")
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Fatalf("no shutdown log:\n%s", out.String())
	}
}

// TestBadFlags: flag errors surface instead of starting a daemon.
func TestBadFlags(t *testing.T) {
	if err := run([]string{"-backends"}, &bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("dangling -backends accepted")
	}
	if err := run([]string{"-addr", "definitely:not:an:addr"}, &bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestDebugListener boots slapfront with the private -debugaddr
// listener and smoke-tests the pprof heap profile and the
// /debug/requests trace ring on it.
func TestDebugListener(t *testing.T) {
	signals := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-debugaddr", "127.0.0.1:0"},
			&out, signals, func(addr string) { ready <- addr })
	}()

	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	debugAddr := debugAddrFromLog(t, out.String())

	for _, path := range []string{"/debug/pprof/heap?debug=1", "/debug/requests"} {
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}

	signals <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// debugAddrFromLog extracts the bound debug address from the startup
// log ("... debug listening on 127.0.0.1:NNN").
func debugAddrFromLog(t *testing.T, log string) string {
	t.Helper()
	for _, line := range strings.Split(log, "\n") {
		if i := strings.Index(line, "debug listening on "); i >= 0 {
			return strings.TrimSpace(line[i+len("debug listening on "):])
		}
	}
	t.Fatalf("no debug listener log:\n%s", log)
	return ""
}
