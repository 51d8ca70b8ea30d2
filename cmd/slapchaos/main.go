// Command slapchaos is the tail-tolerance soak harness: it boots a real
// slapfront coordinator over an in-process fleet of N real slapd
// backends — each behind a fault-injecting chaos proxy — then drives
// mixed verified traffic through a declarative fault schedule (backend
// kills and restarts, latency windows, 500 windows, truncated bodies,
// overload bursts) and asserts the service-level objectives that the
// robustness machinery exists to defend:
//
//   - zero response mismatches: every answer, no matter which backend
//     died mid-strip, is bit-identical to the in-process reference
//     (built by the host engine by default — the same labels and folds
//     as the simulator at a fraction of the cost, so soak verification
//     is ~free; -verifyengine sim re-simulates and additionally pins
//     composed simulated time);
//   - zero unexplained errors: only admission shedding (429/503) and
//     deadline expiry (504) are legitimate failures under chaos;
//   - a p99 latency bound: hedging and re-sharding must keep the tail
//     from inheriting a straggler's stall;
//   - drained gauges: when traffic stops, every backend's outstanding
//     count returns to zero — no leaked slots, no stuck hedges.
//
// Usage:
//
//	slapchaos -duration 60s -backends 3 -concurrency 4 \
//	          -schedule "5s:latency:0:300ms:5s;15s:kill:1;25s:restart:1;35s:err500:2:3s;45s:burst:32" \
//	          -out BENCH_chaos.json
//
// The schedule is OFFSET:KIND[:ARGS] entries separated by semicolons:
//
//	kill:N             close backend N's listener mid-flight (crash)
//	restart:N          re-listen backend N on its original address
//	latency:N:D:W      delay backend N's requests by D for window W
//	err500:N:W         backend N answers 500 for window W
//	truncate:N:W       backend N truncates response bodies for window W
//	burst:C            fire C concurrent no-retry requests (overload;
//	                   C ≤ 256)
//
// Delays and windows must not be negative.
//
// Exit status is nonzero on any SLO breach; the JSON report (same
// BENCH_*.json idiom as slapload) records what happened either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"slapcc"
	"slapcc/client"
	"slapcc/internal/cluster"
	"slapcc/internal/cluster/chaos"
	"slapcc/internal/loadgen"
	"slapcc/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slapchaos:", err)
		os.Exit(1)
	}
}

// ---- fleet -----------------------------------------------------------

// fleetBackend is one in-process slapd behind its chaos proxy. The
// bound address survives kill/restart cycles so slapfront's backend
// list stays valid: a kill closes the listener (in-flight connections
// die abruptly, like a crashed process), a restart re-listens on the
// same port.
type fleetBackend struct {
	idx   int
	inner *server.Server
	proxy *chaos.Proxy
	addr  string

	mu sync.Mutex
	hs *http.Server
	up bool
}

func newFleetBackend(idx, workers int) (*fleetBackend, error) {
	b := &fleetBackend{
		idx:   idx,
		inner: server.New(server.Config{Workers: workers}),
	}
	b.proxy = chaos.NewProxy(b.inner, func(n int) chaos.Decision { return chaos.Decision{Mode: chaos.Pass} })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.addr = ln.Addr().String()
	b.serve(ln)
	return b, nil
}

func (b *fleetBackend) serve(ln net.Listener) {
	hs := &http.Server{Handler: b.proxy}
	b.mu.Lock()
	b.hs, b.up = hs, true
	b.mu.Unlock()
	go hs.Serve(ln)
}

// kill crashes the backend: the listener closes and every open
// connection is severed without draining.
func (b *fleetBackend) kill() error {
	b.mu.Lock()
	hs := b.hs
	b.hs, b.up = nil, false
	b.mu.Unlock()
	if hs == nil {
		return fmt.Errorf("backend %d already down", b.idx)
	}
	return hs.Close()
}

// restart re-listens on the original address. The port was freed by
// kill, but give the kernel a beat to release it.
func (b *fleetBackend) restart() error {
	b.mu.Lock()
	up := b.up
	b.mu.Unlock()
	if up {
		return fmt.Errorf("backend %d already up", b.idx)
	}
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", b.addr); err == nil {
			b.serve(ln)
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("backend %d: re-listen %s: %w", b.idx, b.addr, err)
}

// window arms a fault on the backend's proxy for dur, then reverts to
// Pass. The plan closure checks the wall clock per request, so no
// un-arming race can wedge the proxy in a faulty state.
func (b *fleetBackend) window(mode chaos.Mode, delay, dur time.Duration) {
	until := time.Now().Add(dur)
	b.proxy.SetPlan(func(n int) chaos.Decision {
		if time.Now().Before(until) {
			return chaos.Decision{Mode: mode, Delay: delay}
		}
		return chaos.Decision{Mode: chaos.Pass}
	})
}

func (b *fleetBackend) shutdown() {
	b.mu.Lock()
	hs := b.hs
	b.hs, b.up = nil, false
	b.mu.Unlock()
	b.proxy.Close()
	if hs != nil {
		hs.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b.inner.Shutdown(ctx)
}

// ---- fault schedule --------------------------------------------------

// event is one parsed schedule entry.
type event struct {
	at      time.Duration
	kind    string
	backend int
	delay   time.Duration // latency events
	window  time.Duration // windowed events
	burst   int           // burst events
	raw     string
}

// maxBurst caps a burst's size: each request of a burst is a goroutine
// and a connection of its own.
const maxBurst = 256

// parseSchedule parses "OFFSET:KIND[:ARGS];..." into time-ordered
// events, validating backend indices against the fleet size, delays
// and windows against zero and burst sizes against maxBurst.
func parseSchedule(s string, backends int) ([]event, error) {
	var evs []event
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("schedule entry %q: want OFFSET:KIND[:ARGS]", entry)
		}
		at, err := time.ParseDuration(parts[0])
		if err != nil || at < 0 {
			return nil, fmt.Errorf("schedule entry %q: bad offset %q", entry, parts[0])
		}
		ev := event{at: at, kind: parts[1], raw: entry}
		idx := func(s string) (int, error) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 || n >= backends {
				return 0, fmt.Errorf("schedule entry %q: backend %q out of range [0,%d)", entry, s, backends)
			}
			return n, nil
		}
		span := func(what, s string) (time.Duration, error) {
			d, err := time.ParseDuration(s)
			if err != nil || d < 0 {
				return 0, fmt.Errorf("schedule entry %q: bad %s %q", entry, what, s)
			}
			return d, nil
		}
		args := parts[2:]
		switch ev.kind {
		case "kill", "restart":
			if len(args) != 1 {
				return nil, fmt.Errorf("schedule entry %q: want %s:N", entry, ev.kind)
			}
			if ev.backend, err = idx(args[0]); err != nil {
				return nil, err
			}
		case "latency":
			if len(args) != 3 {
				return nil, fmt.Errorf("schedule entry %q: want latency:N:DELAY:WINDOW", entry)
			}
			if ev.backend, err = idx(args[0]); err != nil {
				return nil, err
			}
			if ev.delay, err = span("delay", args[1]); err != nil {
				return nil, err
			}
			if ev.window, err = span("window", args[2]); err != nil {
				return nil, err
			}
		case "err500", "truncate":
			if len(args) != 2 {
				return nil, fmt.Errorf("schedule entry %q: want %s:N:WINDOW", entry, ev.kind)
			}
			if ev.backend, err = idx(args[0]); err != nil {
				return nil, err
			}
			if ev.window, err = span("window", args[1]); err != nil {
				return nil, err
			}
		case "burst":
			if len(args) != 1 {
				return nil, fmt.Errorf("schedule entry %q: want burst:CONCURRENCY", entry)
			}
			if ev.burst, err = strconv.Atoi(args[0]); err != nil || ev.burst < 1 || ev.burst > maxBurst {
				return nil, fmt.Errorf("schedule entry %q: bad burst size (want 1..%d)", entry, maxBurst)
			}
		default:
			return nil, fmt.Errorf("schedule entry %q: unknown kind %q", entry, ev.kind)
		}
		evs = append(evs, ev)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs, nil
}

// ---- report ----------------------------------------------------------

type report struct {
	DurationS   float64  `json:"duration_s"`
	Backends    int      `json:"backends"`
	Concurrency int      `json:"concurrency"`
	Schedule    []string `json:"schedule"`
	Requests    int64    `json:"requests"`
	Mismatches  int64    `json:"mismatches"`
	Errors      struct {
		Shed        int64 `json:"shed_429_503"`
		Deadline    int64 `json:"deadline_504"`
		Unexplained int64 `json:"unexplained"`
	} `json:"errors"`
	LatencyMS loadgen.Dist `json:"latency_ms"`
	Bursts    struct {
		Fired       int `json:"fired"`
		OK          int `json:"ok"`
		Rejected429 int `json:"rejected_429"`
		Errors      int `json:"errors"`
	} `json:"bursts"`
	Counters struct {
		Retries      int64 `json:"retries"`
		Fallbacks    int64 `json:"fallbacks"`
		BreakerOpens int64 `json:"breaker_opens"`
		Hedges       int64 `json:"hedges"`
		HedgeWins    int64 `json:"hedge_wins"`
	} `json:"counters"`
	// Trace audits the Server-Timing stage breakdown of every successful
	// request: stages must be present, and their sum can never exceed
	// the request's wall time (each top-level stage is a disjoint slice
	// of the coordinator's handling).
	Trace struct {
		Checked     int64  `json:"checked"`
		Breaches    int64  `json:"breaches"`
		FirstBreach string `json:"first_breach,omitempty"`
	} `json:"trace"`
	OutstandingDrained bool     `json:"outstanding_drained"`
	FirstUnexplained   string   `json:"first_unexplained,omitempty"`
	SLOBreaches        []string `json:"slo_breaches"`
}

// ---- the harness -----------------------------------------------------

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slapchaos", flag.ContinueOnError)
	var (
		duration = fs.Duration("duration", 60*time.Second, "how long the verified traffic loop runs")
		backends = fs.Int("backends", 3, "in-process slapd backends in the fleet")
		workers  = fs.Int("workers", 2, "labeler pool size per backend")
		conc     = fs.Int("concurrency", 4, "concurrent closed-loop clients")
		sizes    = fs.String("sizes", "48,96", "comma-separated square frame sizes")
		array    = fs.Int("array", 16, "array width for strip-mined traffic (0 = whole-image only)")
		density  = fs.Float64("density", 0.5, "foreground density of generated frames")
		schedule = fs.String("schedule", "", fmt.Sprintf("fault schedule OFFSET:KIND[:ARGS];... with non-negative delays and windows and bursts of at most %d (empty = a default kill/latency/err500/burst mix scaled to -duration)", maxBurst))
		p99max   = fs.Duration("p99max", 10*time.Second, "SLO: p99 latency bound (0 disables)")
		hedgeDly = fs.Duration("hedgedelay", 50*time.Millisecond, "slapfront hedge delay floor")
		hedgeMax = fs.Int("hedgemax", 2, "slapfront hedges per request (0 disables)")
		reqWait  = fs.Duration("timeout", 30*time.Second, "per-request deadline budget")
		verifyEn = fs.String("verifyengine", "host", "engine that builds the reference answers: host (default; ~free, pins labels and folds) or sim (re-simulates, also pins composed simulated time)")
		outPath  = fs.String("out", "", "write the JSON report here as well as stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop := make(chan struct{})
	loop := loadgen.Loop{Concurrency: *conc, Stop: stop, Deadline: *reqWait}
	if err := loop.Validate(); err != nil {
		return err
	}
	var refEngine slapcc.Engine
	switch strings.ToLower(*verifyEn) {
	case "host":
		refEngine = slapcc.EngineHost
	case "sim":
		refEngine = slapcc.EngineSim
	default:
		return fmt.Errorf("bad -verifyengine %q (want host or sim)", *verifyEn)
	}
	sizeList, err := loadgen.ParseSizes(*sizes)
	if err != nil {
		return fmt.Errorf("bad -sizes: %w", err)
	}
	if *schedule == "" {
		*schedule = defaultSchedule(*duration)
	}
	events, err := parseSchedule(*schedule, *backends)
	if err != nil {
		return err
	}

	// The traffic mix: whole-image labels, strip-mined labels (the shape
	// that fans out across the fleet) and strip-mined aggregates, each
	// with its in-process reference. The host engine builds the same
	// labels and folds as the simulator without simulating, so soak
	// verification is ~free; only a sim-built reference pins composed
	// TimeSteps too.
	work, _, err := loadgen.Corpus{
		Sizes: sizeList, Formats: []string{"raw"}, PerSize: 2, Density: *density,
		Seed: 0xC0, Array: *array, Mix: loadgen.Every, Ref: refEngine,
	}.Build()
	if err != nil {
		return err
	}

	// Boot the fleet.
	fleet := make([]*fleetBackend, *backends)
	urls := make([]string, *backends)
	for i := range fleet {
		if fleet[i], err = newFleetBackend(i, *workers); err != nil {
			return err
		}
		urls[i] = "http://" + fleet[i].addr
		defer fleet[i].shutdown()
	}

	// Boot slapfront over it: fast probes so kills are noticed within
	// the soak, hedging on, breaker settings scaled to the fault windows.
	co := cluster.New(cluster.Config{
		Backends:         urls,
		JobTimeout:       5 * time.Second,
		RetryBudget:      4,
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       250 * time.Millisecond,
		ProbeInterval:    250 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		HedgeDelay:       *hedgeDly,
		HedgeMax:         *hedgeMax,
	})
	defer co.Close()
	frontLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	frontHS := &http.Server{Handler: co, ReadHeaderTimeout: 5 * time.Second}
	go frontHS.Serve(frontLn)
	defer frontHS.Close()
	frontURL := "http://" + frontLn.Addr().String()
	fmt.Fprintf(out, "slapchaos: front %s over %d backends, %d events, %v soak\n",
		frontURL, *backends, len(events), *duration)

	rep := &report{Backends: *backends, Concurrency: *conc}
	for _, ev := range events {
		rep.Schedule = append(rep.Schedule, ev.raw)
	}

	// The traffic loop: -conc clients, each request verified against its
	// precomputed reference. The client retries 429/503 internally; what
	// surfaces here is classified for the SLO ledger.
	loop.Client = loadgen.NewClient(frontURL, 6, 500*time.Millisecond, 0)
	loop.Frames = work
	burster := client.New(frontURL, client.WithMaxRetries(0), client.WithHTTPClient(&http.Client{Timeout: *reqWait}))
	ctx := context.Background()

	// The fault scheduler walks the event list against the soak clock.
	soakStart := time.Now()
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		for _, ev := range events {
			wait := ev.at - time.Since(soakStart)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-stop:
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
			fmt.Fprintf(out, "slapchaos: +%6.1fs %s\n", time.Since(soakStart).Seconds(), ev.raw)
			switch ev.kind {
			case "kill":
				if err := fleet[ev.backend].kill(); err != nil {
					fmt.Fprintf(out, "slapchaos: %s: %v\n", ev.raw, err)
				}
			case "restart":
				if err := fleet[ev.backend].restart(); err != nil {
					fmt.Fprintf(out, "slapchaos: %s: %v\n", ev.raw, err)
				}
			case "latency":
				fleet[ev.backend].window(chaos.Delay, ev.delay, ev.window)
			case "err500":
				fleet[ev.backend].window(chaos.Error500, 0, ev.window)
			case "truncate":
				fleet[ev.backend].window(chaos.Truncate, 0, ev.window)
			case "burst":
				// The overload probe: 429/503 shedding is the expected
				// answer at the margin.
				t := loadgen.Burst(ctx, burster, work, ev.burst)
				rep.Bursts.Fired += t.Total()
				rep.Bursts.OK += t.OK
				rep.Bursts.Rejected429 += t.Shed429 + t.Shed503
				rep.Bursts.Errors += t.Deadline + t.Other
			}
		}
	}()

	timer := time.AfterFunc(*duration, func() { close(stop) })
	st, err := loop.Run(ctx)
	if err != nil {
		if timer.Stop() {
			close(stop)
		}
		<-schedDone
		return err
	}
	<-schedDone
	rep.DurationS = time.Since(soakStart).Seconds()

	rep.Requests = int64(st.Outcomes.Total())
	rep.Mismatches = int64(st.Mismatches)
	rep.Errors.Shed = int64(st.Outcomes.Shed429 + st.Outcomes.Shed503)
	rep.Errors.Deadline = int64(st.Outcomes.Deadline)
	rep.Errors.Unexplained = int64(st.Outcomes.Other)
	if st.FirstOther != nil {
		rep.FirstUnexplained = st.FirstOther.Error()
	}
	rep.Trace.Checked = int64(st.Outcomes.OK)
	rep.Trace.Breaches = int64(st.TraceBreaches)
	rep.Trace.FirstBreach = st.FirstBreach
	rep.LatencyMS = st.LatencyMS()

	// Drain check: with traffic stopped, every backend's outstanding
	// gauge must return to zero — a leaked hedge or unreleased slot
	// shows up here.
	rep.OutstandingDrained = waitDrained(frontURL, 10*time.Second)

	// Robustness counters, scraped from the real /metrics endpoint.
	scrapeCounters(frontURL, rep)

	// The SLO verdict.
	if rep.Mismatches > 0 {
		rep.SLOBreaches = append(rep.SLOBreaches, fmt.Sprintf("%d response mismatches (want 0)", rep.Mismatches))
	}
	if rep.Errors.Unexplained > 0 {
		rep.SLOBreaches = append(rep.SLOBreaches,
			fmt.Sprintf("%d unexplained errors (want 0; first: %s)", rep.Errors.Unexplained, rep.FirstUnexplained))
	}
	if *p99max > 0 && rep.LatencyMS.P99 > float64(*p99max)/float64(time.Millisecond) {
		rep.SLOBreaches = append(rep.SLOBreaches,
			fmt.Sprintf("p99 %.1fms over the %v bound", rep.LatencyMS.P99, *p99max))
	}
	if !rep.OutstandingDrained {
		rep.SLOBreaches = append(rep.SLOBreaches, "outstanding gauges did not drain to 0")
	}
	if rep.Trace.Breaches > 0 {
		rep.SLOBreaches = append(rep.SLOBreaches,
			fmt.Sprintf("%d trace breaches (want 0; first: %s)", rep.Trace.Breaches, rep.Trace.FirstBreach))
	}
	if rep.Requests == 0 {
		rep.SLOBreaches = append(rep.SLOBreaches, "no traffic completed")
	}
	if rep.SLOBreaches == nil {
		rep.SLOBreaches = []string{}
	}

	summarize(out, rep)
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
	if len(rep.SLOBreaches) > 0 {
		return fmt.Errorf("SLO breached: %s", strings.Join(rep.SLOBreaches, "; "))
	}
	return nil
}

// defaultSchedule scales the canonical kill/latency/err500/burst mix to
// the soak length: faults land in the middle three fifths, leaving a
// clean warmup and a clean tail.
func defaultSchedule(d time.Duration) string {
	fifth := d / 5
	f := func(mult int) string { return (time.Duration(mult) * fifth).String() }
	return strings.Join([]string{
		f(1) + ":latency:0:300ms:" + fifth.String(),
		f(2) + ":kill:1",
		f(3) + ":restart:1",
		f(3) + ":err500:2:" + (fifth / 2).String(),
		f(4) + ":burst:32",
	}, ";")
}

// waitDrained polls slapfront's /healthz until every backend's
// outstanding gauge is zero (or the wait expires).
func waitDrained(frontURL string, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		if outstandingSum(frontURL) == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func outstandingSum(frontURL string) int {
	resp, err := http.Get(frontURL + "/healthz")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var snap struct {
		Backends []struct {
			Outstanding int `json:"outstanding"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return -1
	}
	sum := 0
	for _, b := range snap.Backends {
		sum += b.Outstanding
	}
	return sum
}

// scrapeCounters pulls the robustness counters out of the live
// /metrics text — the same numbers an operator's dashboard would show.
func scrapeCounters(frontURL string, rep *report) {
	resp, err := http.Get(frontURL + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return
	}
	grab := func(name string) int64 {
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				if err == nil {
					return n
				}
			}
		}
		return 0
	}
	rep.Counters.Retries = grab("slapfront_job_retries_total")
	rep.Counters.Fallbacks = grab("slapfront_local_fallbacks_total")
	rep.Counters.BreakerOpens = grab("slapfront_breaker_opened_total")
	rep.Counters.Hedges = grab("slapfront_hedges_total")
	rep.Counters.HedgeWins = grab("slapfront_hedge_wins_total")
}

func summarize(out io.Writer, rep *report) {
	fmt.Fprintf(out, "soak: %d requests in %.1fs over %d clients, %d mismatches\n",
		rep.Requests, rep.DurationS, rep.Concurrency, rep.Mismatches)
	fmt.Fprintf(out, "errors: %d shed (429/503), %d deadline (504), %d unexplained\n",
		rep.Errors.Shed, rep.Errors.Deadline, rep.Errors.Unexplained)
	fmt.Fprintf(out, "latency: p50 %.1fms  p95 %.1fms  p99 %.1fms  max %.1fms\n",
		rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max)
	if rep.Bursts.Fired > 0 {
		fmt.Fprintf(out, "bursts: %d fired -> %d ok, %d shed, %d errors\n",
			rep.Bursts.Fired, rep.Bursts.OK, rep.Bursts.Rejected429, rep.Bursts.Errors)
	}
	fmt.Fprintf(out, "counters: %d retries, %d fallbacks, %d breaker opens, %d hedges (%d wins)\n",
		rep.Counters.Retries, rep.Counters.Fallbacks, rep.Counters.BreakerOpens,
		rep.Counters.Hedges, rep.Counters.HedgeWins)
	fmt.Fprintf(out, "traces: %d audited, %d breaches\n", rep.Trace.Checked, rep.Trace.Breaches)
	fmt.Fprintf(out, "drained: %v\n", rep.OutstandingDrained)
	if len(rep.SLOBreaches) == 0 {
		fmt.Fprintln(out, "SLO: all green")
	} else {
		for _, b := range rep.SLOBreaches {
			fmt.Fprintf(out, "SLO BREACH: %s\n", b)
		}
	}
}
