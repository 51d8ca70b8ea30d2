// Command slapload is the closed-loop load generator for slapd: it
// drives a mixed corpus of frames (sizes × formats, PNG/PBM/art/raw)
// through the service from a fixed set of concurrent clients, verifies
// responses bit-for-bit against the in-process labeler, and reports
// service-level numbers — p50/p95/p99 latency, frames/s, MB/s — as both
// a human summary and a JSON report (-out).
//
// Usage:
//
//	slapd -addr :8117 &
//	slapload -url http://localhost:8117 -frames 1000 -concurrency 4 \
//	         -sizes 64,128,256 -formats png,pbm,raw -out report.json
//
// The target may equally be a slapfront coordinator: it serves the same
// endpoints, so the same loop and aggregate spot-checks run (strip-mined
// frames then fan out across the fleet and must still verify
// bit-for-bit — kill a backend mid-run to watch the coordinator
// re-shard).
//
// Phases:
//
//  1. warmup (a few frames, uncounted);
//  2. the closed loop: -frames single-frame requests over -concurrency
//     workers, retrying on 429 through the client's backoff, verifying
//     labels and simulated metrics when -verify is on (every 4th
//     request strip-mines on a -array-wide machine when given, pinning
//     the service against the in-process strip-mined run);
//  3. aggregate spot-checks (unless -aggverify=false): /v1/aggregate
//     requests — whole-image and, when -array is set, strip-mined with
//     array= — verified value-for-value against the in-process
//     Aggregate;
//  4. an optional -overload burst fired without retry to observe the
//     admission queue shedding with 429.
//
// -cost stamps cost= on every request (unit, bitserial, or host — the
// host engine answers without simulation, so responses carry no
// simulated metrics). -verifyengine selects which engine builds the
// verification references: it defaults to matching -cost, and
// -verifyengine host makes reference building ~free (the word-parallel
// host labeler produces the same labels and folds as the simulator).
// When the engines differ, labels and folds still verify bit-for-bit
// but simulated-time comparisons are skipped. Reference-build and
// response-check time are reported as their own JSON stats, so the
// loop's frames/s stays a pure service number.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"slapcc"
	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slapload:", err)
		os.Exit(1)
	}
}

// report is the JSON artifact.
type report struct {
	Target      string       `json:"target"`
	Frames      int          `json:"frames"`
	Concurrency int          `json:"concurrency"`
	Sizes       []int        `json:"sizes"`
	Formats     []string     `json:"formats"`
	ArrayWidth  int          `json:"array_width,omitempty"`
	DurationS   float64      `json:"duration_s"`
	FramesPerS  float64      `json:"frames_per_s"`
	MBPerS      float64      `json:"mb_per_s"`
	PixelMBPerS float64      `json:"pixel_mb_per_s"`
	BytesSent   int64        `json:"bytes_sent"`
	LatencyMS   loadgen.Dist `json:"latency_ms"`
	Errors      int          `json:"errors"`
	Retried429  int64        `json:"retried_429"`
	Cost        string       `json:"cost,omitempty"`
	// ServerStages breaks the server's own wall time down by stage, from
	// the Server-Timing headers the service emits: where p99 actually
	// went (queue? decode? label?) rather than one opaque latency number.
	ServerStages map[string]loadgen.Dist `json:"server_stages,omitempty"`
	Verify       struct {
		Enabled bool `json:"enabled"`
		// Engine is what built the references: "sim" re-runs the
		// simulator per corpus frame, "host" uses the host engine (same
		// labels, no simulation — reference building becomes ~free).
		Engine     string `json:"engine,omitempty"`
		Frames     int    `json:"frames"`
		Mismatches int    `json:"mismatches"`
		// BuildRefS is the time spent precomputing references before the
		// loop; CheckS is the cumulative time comparing responses inside
		// it. Reporting them apart keeps the loop's frames/s an honest
		// service number.
		BuildRefS float64 `json:"build_ref_s"`
		CheckS    float64 `json:"check_s"`
	} `json:"verify"`
	Aggregate struct {
		Checks     int `json:"checks"`
		Strip      int `json:"strip_mined"`
		Errors     int `json:"errors"`
		Mismatches int `json:"mismatches"`
	} `json:"aggregate"`
	Overload struct {
		Requests    int `json:"requests"`
		OK          int `json:"ok"`
		Rejected429 int `json:"rejected_429"`
		Errors      int `json:"errors"`
	} `json:"overload"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slapload", flag.ContinueOnError)
	var (
		url      = fs.String("url", "", "slapd base URL (required), e.g. http://localhost:8117")
		frames   = fs.Int("frames", 1000, "single-frame requests in the closed loop")
		conc     = fs.Int("concurrency", 4, "concurrent closed-loop clients")
		sizes    = fs.String("sizes", "64,128,256", "comma-separated square frame sizes")
		formats  = fs.String("formats", "png,pbm,raw", "comma-separated wire formats to mix")
		density  = fs.Float64("density", 0.5, "foreground density of generated frames")
		corpus   = fs.Int("corpus", 4, "distinct frames generated per size")
		verify   = fs.Bool("verify", true, "verify every response bit-for-bit against the in-process labeler")
		verifyEn = fs.String("verifyengine", "", "engine that builds verification references: sim (default; re-simulates every corpus frame) or host (host engine, ~free)")
		cost     = fs.String("cost", "", "cost= stamped on every request: unit (default), bitserial, or host (host engine: no simulated metrics in responses)")
		array    = fs.Int("array", 0, "strip-mine every 4th request on an array this wide (0 = never)")
		aggVer   = fs.Bool("aggverify", true, "spot-check /v1/aggregate (incl. strip-mined array= runs) against in-process Aggregate; needs -verify")
		overload = fs.Int("overload", 0, "fire this many concurrent no-retry requests to observe 429s (0 = skip)")
		outPath  = fs.String("out", "", "write the JSON report here as well as stdout")
		timeout  = fs.Duration("timeout", 120*time.Second, "per-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("need -url (start one with: slapd -addr :8117)")
	}
	loop := loadgen.Loop{Concurrency: *conc, Count: *frames}
	if err := loop.Validate(); err != nil {
		return err
	}
	sizeList, err := loadgen.ParseSizes(*sizes)
	if err != nil {
		return fmt.Errorf("bad -sizes: %w", err)
	}
	formatList := strings.Split(*formats, ",")

	// Which engine answers requests (via cost=) and which builds the
	// references. They default to matching, so simulated-time checks
	// stay meaningful; when they differ — e.g. -verifyengine host
	// against a bitserial service — labels and folds still verify
	// bit-for-bit but the TimeSteps comparison is skipped, since only
	// the simulator has simulated time.
	reqEngine := slapcc.EngineSim
	switch strings.ToLower(*cost) {
	case "", "unit", "bitserial":
	case "host":
		reqEngine = slapcc.EngineHost
	default:
		return fmt.Errorf("bad -cost %q (want unit, bitserial, or host)", *cost)
	}
	refEngine := reqEngine
	switch strings.ToLower(*verifyEn) {
	case "":
	case "sim":
		refEngine = slapcc.EngineSim
	case "host":
		refEngine = slapcc.EngineHost
	default:
		return fmt.Errorf("bad -verifyengine %q (want sim or host)", *verifyEn)
	}

	corp := loadgen.Corpus{
		Sizes: sizeList, Formats: formatList, PerSize: *corpus, Density: *density,
		Seed: 1, Params: api.Params{Cost: *cost}, Array: *array, Mix: loadgen.Rotate,
	}
	if *verify {
		corp.Ref = refEngine
	}
	specs, refDur, err := corp.Build()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "corpus: %d specs (%d sizes x %d formats x %d frames)\n",
		len(specs), len(sizeList), len(formatList), *corpus)

	loop.Client = loadgen.NewClient(*url, 8, 2*time.Second, *timeout)
	loop.Frames = specs
	c := loop.Client.Client
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("target not healthy: %w", err)
	}

	rep := &report{
		Target: *url, Frames: *frames, Concurrency: *conc,
		Sizes: sizeList, Formats: formatList, ArrayWidth: *array,
		Cost: *cost,
	}
	rep.Verify.Enabled = *verify
	if *verify {
		rep.Verify.Engine = string(refEngine)
		rep.Verify.BuildRefS = refDur.Seconds()
	}

	// Phases 1–2: warmup and the closed loop.
	st, err := loop.Run(ctx)
	if err != nil {
		return err
	}
	rep.DurationS = st.Elapsed.Seconds()
	rep.Errors = st.Outcomes.Failed()
	rep.Retried429 = st.Seen429
	rep.BytesSent = st.BytesSent
	rep.FramesPerS, rep.MBPerS, rep.PixelMBPerS = st.Rates()
	rep.LatencyMS = st.LatencyMS()
	rep.ServerStages = st.ServerStages()
	if *verify {
		rep.Verify.Frames = st.Verified
		rep.Verify.Mismatches = st.Mismatches
		rep.Verify.CheckS = st.CheckTime.Seconds()
	}

	// Phase 3: aggregate spot-checks against in-process Aggregate.
	if *aggVer && *verify {
		if err := runAggChecks(ctx, c, sizeList, *density, *array, *cost, refEngine, rep); err != nil {
			return err
		}
	}

	// Phase 4: the over-capacity burst, no retries.
	if *overload > 0 {
		bc := client.New(*url, client.WithMaxRetries(0), client.WithHTTPClient(&http.Client{Timeout: *timeout}))
		burst := loadgen.Burst(ctx, bc, specs, *overload)
		rep.Overload.Requests = burst.Total()
		rep.Overload.OK = burst.OK
		rep.Overload.Rejected429 = burst.Shed429
		rep.Overload.Errors = burst.Failed() - burst.Shed429
	}

	summarize(out, rep)
	if st.FirstError != nil {
		fmt.Fprintf(out, "first error: %v\n", st.FirstError)
	}
	if st.FirstMismatch != nil {
		fmt.Fprintf(out, "first mismatch: %v\n", st.FirstMismatch)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", *outPath)
	}
	if rep.Errors > 0 || rep.Verify.Mismatches > 0 || rep.Aggregate.Errors > 0 || rep.Aggregate.Mismatches > 0 {
		return fmt.Errorf("%d errors, %d verify mismatches, %d aggregate errors, %d aggregate mismatches",
			rep.Errors, rep.Verify.Mismatches, rep.Aggregate.Errors, rep.Aggregate.Mismatches)
	}
	return nil
}

// runAggChecks drives /v1/aggregate — one whole-image and, when the
// image is wider than -array, two strip-mined requests per size (the
// sequential and the pipelined schedule) — and verifies labels,
// per-pixel folds and composed simulated time against the in-process
// Aggregate. The pipelined rows pin the schedule model whose
// composed time the service must reproduce exactly.
func runAggChecks(ctx context.Context, c *client.Client, sizes []int, density float64, array int, cost string, refEngine slapcc.Engine, rep *report) error {
	for _, n := range sizes {
		img := slapcc.RandomImage(n, density, uint64(n)*0xA99)
		checks := []api.Params{{Op: "sum", WantLabels: true, Cost: cost}}
		if array > 0 && array < n {
			checks = append(checks,
				api.Params{Op: "sum", ArrayWidth: array, WantLabels: true, Cost: cost},
				api.Params{Op: "sum", ArrayWidth: array, Schedule: "pipelined", WantLabels: true, Cost: cost})
		}
		for _, p := range checks {
			want, err := loadgen.Expect(img, p, refEngine)
			if err != nil {
				return fmt.Errorf("agg-%d: in-process reference: %w", n, err)
			}
			rep.Aggregate.Checks++
			if p.ArrayWidth > 0 {
				rep.Aggregate.Strip++
			}
			resp, err := c.Aggregate(ctx, img, p)
			if err != nil {
				rep.Aggregate.Errors++
				continue
			}
			if want.Check(&resp.LabelResponse, resp.PerPixel) != nil {
				rep.Aggregate.Mismatches++
			}
		}
	}
	return nil
}

func summarize(out io.Writer, rep *report) {
	fmt.Fprintf(out, "loop: %d frames in %.2fs over %d clients -> %.1f frames/s, %.2f MB/s wire, %.2f Mpix/s\n",
		rep.Frames-rep.Errors, rep.DurationS, rep.Concurrency, rep.FramesPerS, rep.MBPerS, rep.PixelMBPerS)
	fmt.Fprintf(out, "latency: p50 %.2fms  p95 %.2fms  p99 %.2fms  mean %.2fms  max %.2fms\n",
		rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Mean, rep.LatencyMS.Max)
	fmt.Fprintf(out, "errors: %d   429-retries absorbed: %d\n", rep.Errors, rep.Retried429)
	if len(rep.ServerStages) > 0 {
		names := make([]string, 0, len(rep.ServerStages))
		for name := range rep.ServerStages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := rep.ServerStages[name]
			fmt.Fprintf(out, "server stage %-8s p50 %.2fms  p95 %.2fms  p99 %.2fms  (%d samples)\n",
				name+":", st.P50, st.P95, st.P99, st.N)
		}
	}
	if rep.Verify.Enabled {
		fmt.Fprintf(out, "verify: %d frames checked (engine %s), %d mismatches; refs built in %.3fs, response checks %.3fs\n",
			rep.Verify.Frames, rep.Verify.Engine, rep.Verify.Mismatches, rep.Verify.BuildRefS, rep.Verify.CheckS)
	}
	if rep.Aggregate.Checks > 0 {
		fmt.Fprintf(out, "aggregate: %d checks (%d strip-mined), %d errors, %d mismatches\n",
			rep.Aggregate.Checks, rep.Aggregate.Strip, rep.Aggregate.Errors, rep.Aggregate.Mismatches)
	}
	if rep.Overload.Requests > 0 {
		fmt.Fprintf(out, "overload: %d fired -> %d ok, %d shed with 429, %d errors\n",
			rep.Overload.Requests, rep.Overload.OK, rep.Overload.Rejected429, rep.Overload.Errors)
	}
}
