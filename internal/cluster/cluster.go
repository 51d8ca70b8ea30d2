// Package cluster implements slapfront, the fault-tolerant coordinator
// that promotes the strip-mined tiler across the network: it exposes
// the same /v1/label and /v1/aggregate API as a single slapd, splits
// each image into per-strip jobs, fans them out to a fleet of slapd
// backends over the SLR1 wire format, and stitches the returned strip
// runs with the exact seam-merge and schedule composition the local
// tiler uses (core.ComposeStrips) — so every response is bit-identical
// to a local run of the same request.
//
// Each backend returns its strip's labels and fold report. The
// coordinator's stitch reads only the strips' boundary columns, the
// merge structure the strip-mining analysis charges; one pass then
// writes every pixel's global label through a dense per-strip remap
// table and counts the answer's summary, the copy the composed answer
// needs anyway.
//
// The robustness model, end to end:
//
//   - per-job timeouts, with capped exponential backoff + jitter
//     between attempts and one retry budget per job;
//   - health-aware routing: active /healthz probes (draining backends
//     report 503 and stop receiving work) plus the passive outcome of
//     every job feed a per-backend circuit breaker (see backend.go);
//   - partial failure re-shards: a failed strip re-routes to the
//     least-loaded surviving backend, not back to the corpse;
//   - full degradation: a strip no backend will take runs locally on
//     the coordinator — through the same wire-shaped round-trip as a
//     remote strip, so the composed answer stays bit-identical — and
//     the service keeps answering with every backend down.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/imageio"
	"slapcc/internal/obs"
	"slapcc/internal/server"
)

// Config configures a Coordinator.
type Config struct {
	// Backends are the slapd base URLs to fan out to. Empty is allowed:
	// every request runs locally (a degenerate but working cluster).
	Backends []string
	// Options are the base labeling options local-fallback runs resolve
	// request parameters over, exactly as a slapd's Config.Options.
	Options core.Options
	// JobTimeout bounds one strip job attempt on one backend (default
	// 30s): a hung backend costs one timeout, then its strips re-shard.
	JobTimeout time.Duration
	// RetryBudget is the attempt budget per job across all backends
	// (default 4). Exhausting it degrades the job to local execution.
	RetryBudget int
	// BackoffBase and BackoffMax shape the between-attempt wait: attempt
	// k waits ~BackoffBase·2^k with jitter, capped at BackoffMax
	// (defaults 25ms and 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens a backend's breaker after this many
	// consecutive countable failures (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks before
	// admitting a half-open trial (default 5s).
	BreakerCooldown time.Duration
	// ProbeInterval spaces the active /healthz probes (default 0 =
	// disabled; the slapfront daemon enables them, deterministic tests
	// drive ProbeNow instead).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (default 2s).
	ProbeTimeout time.Duration
	// JobConcurrency caps strip jobs in flight per request (≤ 0 selects
	// 2 per backend, minimum 2).
	JobConcurrency int
	// HedgeDelay floors the hedge timer: an outstanding strip job is
	// re-issued to a second backend after max(HedgeDelay, p95 of recent
	// job latencies), first complete response winning (default 50ms).
	HedgeDelay time.Duration
	// HedgeMax caps hedged (duplicate) attempts across one request's
	// whole fan-out, so hedging never amplifies an overload. 0 (the
	// zero value) disables hedging; the slapfront daemon defaults its
	// flag to 2.
	HedgeMax int
	// Limits bound decoded image sizes; MaxBodyBytes bounds request
	// bodies (≤ 0 selects 64 MiB).
	Limits       imageio.Limits
	MaxBodyBytes int64
	// ClientOptions are appended to every per-backend client (tests:
	// transport doubles). Retries stay disabled regardless — the
	// coordinator owns retry policy.
	ClientOptions []client.Option
	// Now and Rand override the clock and the jitter source (tests).
	Now  func() time.Time
	Rand func() float64
	// Sleep overrides the between-attempt wait (tests); it must return
	// early with ctx's error when the context dies.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.JobConcurrency <= 0 {
		c.JobConcurrency = 2 * len(c.Backends)
		if c.JobConcurrency < 2 {
			c.JobConcurrency = 2
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 50 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Rand == nil {
		c.Rand = func() float64 { return 0.5 }
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			if d <= 0 {
				return ctx.Err()
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return c
}

// Coordinator is the slapfront http.Handler. Construct with New; call
// Close to stop the active prober.
type Coordinator struct {
	cfg      Config
	backends []*backend
	mux      *http.ServeMux
	tel      *server.Telemetry
	reg      *registry
	pickMu   sync.Mutex
	stop     chan struct{}
	stopped  sync.Once
}

// New returns a Coordinator routing to cfg.Backends.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		tel:  server.NewTelemetry("slapfront", cfg.Now),
		reg:  newRegistry(),
		stop: make(chan struct{}),
	}
	for _, u := range cfg.Backends {
		co.backends = append(co.backends, newBackend(strings.TrimRight(u, "/"), cfg.ClientOptions))
	}
	co.mux.HandleFunc(api.PathLabel, co.tel.Instrument("label", co.handleRun(false)))
	co.mux.HandleFunc(api.PathAggregate, co.tel.Instrument("aggregate", co.handleRun(true)))
	co.mux.HandleFunc(api.PathHealthz, co.tel.Instrument("healthz", co.handleHealthz))
	co.mux.HandleFunc(api.PathMetrics, co.tel.Instrument("metrics", co.handleMetrics))
	co.mux.Handle(server.PathDebugRequests, co.DebugHandler())
	if cfg.ProbeInterval > 0 && len(co.backends) > 0 {
		go co.probeLoop()
	}
	return co
}

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { co.mux.ServeHTTP(w, r) }

// Close stops the active prober. The handler keeps serving.
func (co *Coordinator) Close() { co.stopped.Do(func() { close(co.stop) }) }

// DebugHandler serves the recent-request trace ring (/debug/requests),
// for mounting on a private debug listener as well as the main mux.
func (co *Coordinator) DebugHandler() http.Handler { return co.tel.DebugHandler() }

func (co *Coordinator) probeLoop() {
	t := time.NewTicker(co.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
			co.ProbeNow(context.Background())
		}
	}
}

// ProbeNow actively probes every backend's /healthz once, in parallel,
// and feeds the outcomes into the routing state. The prober calls it
// on a timer; deterministic tests call it directly.
func (co *Coordinator) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range co.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			wasOpen, _, _, _ := b.snapshot()
			if !b.probe(ctx, co.cfg.ProbeTimeout, co.cfg.Now(), co.cfg.BreakerThreshold) {
				if st, _, _, _ := b.snapshot(); st == breakerOpen && wasOpen != breakerOpen {
					co.reg.addOpened()
				}
			}
		}(b)
	}
	wg.Wait()
}

// HealthSnapshot is the coordinator's /healthz body.
type HealthSnapshot struct {
	Status   string          `json:"status"`
	Backends []BackendHealth `json:"backends"`
}

// BackendHealth is one backend's routing state as /healthz reports it.
type BackendHealth struct {
	Backend     string `json:"backend"`
	Breaker     string `json:"breaker"`
	ProbeOK     bool   `json:"probe_ok"`
	Outstanding int    `json:"outstanding"`
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := HealthSnapshot{Status: "ok", Backends: []BackendHealth{}}
	for _, b := range co.backends {
		st, probeOK, out, _ := b.snapshot()
		snap.Backends = append(snap.Backends, BackendHealth{
			Backend: b.name, Breaker: st.String(), ProbeOK: probeOK, Outstanding: out,
		})
	}
	// The coordinator itself is always healthy — with every backend
	// down it degrades to local execution rather than going dark.
	server.WriteJSON(w, http.StatusOK, snap)
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gs := make([]backendGauge, 0, len(co.backends))
	for _, b := range co.backends {
		st, probeOK, out, _ := b.snapshot()
		gs = append(gs, backendGauge{name: b.name, state: st, probeOK: probeOK, outstanding: out})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	co.tel.Render(w)
	co.reg.render(w, gs)
}

// lifecycle stamps the request's ID on the response header and context
// (so backend calls and error payloads carry it), opens the request's
// trace — the root span rides the context, every downstream strip and
// attempt span nests under it — and applies the caller's
// X-Slap-Deadline-Ms budget: a spent budget answers 504 before any
// fan-out, a live one bounds the whole fan-out's context — each backend
// attempt then re-stamps the remaining budget on the wire via the
// client. The returned done func (handlers defer it) finalizes the
// trace: it marks the root from the response status, feeds the stage
// histograms, and files the trace in the /debug/requests ring. Returns
// ok=false when the request was already answered.
func (co *Coordinator) lifecycle(w http.ResponseWriter, r *http.Request, name string) (*http.Request, func(), bool) {
	r, tr := co.tel.StartTrace(w, r, name)
	done := func() { co.tel.FinishTrace(w, tr) }
	budget, ok := api.ParseDeadline(r.Header.Get(api.HeaderDeadlineMS))
	if !ok {
		return r, done, true
	}
	if budget <= 0 {
		server.WriteError(w, http.StatusGatewayTimeout, "deadline budget already spent")
		done()
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return r.WithContext(ctx), func() { cancel(); done() }, true
}

// errNoBackend reports that no backend would accept a job right now:
// every breaker open, every probe failing, or no backends configured.
var errNoBackend = errors.New("cluster: no routable backend")

// hedgeState caps hedged (duplicate) attempts across one request's
// whole fan-out: each request gets HedgeMax duplicates total, however
// many strips it sharded into, so hedging helps a straggler without
// ever doubling an overloaded fleet's work.
type hedgeState struct {
	mu   sync.Mutex
	left int
}

// newHedgeState returns the per-request hedge budget, or nil when
// hedging is off (HedgeMax 0) or pointless (fewer than two backends).
func (co *Coordinator) newHedgeState() *hedgeState {
	if co.cfg.HedgeMax <= 0 || len(co.backends) < 2 {
		return nil
	}
	return &hedgeState{left: co.cfg.HedgeMax}
}

func (hs *hedgeState) take() bool {
	if hs == nil {
		return false
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.left <= 0 {
		return false
	}
	hs.left--
	return true
}

// put returns an unused hedge token (taken, but no second backend was
// routable to spend it on).
func (hs *hedgeState) put() {
	if hs == nil {
		return
	}
	hs.mu.Lock()
	hs.left++
	hs.mu.Unlock()
}

// hedgeDelay is how long an outstanding job runs before a duplicate is
// issued: the p95 of recent successful job latencies — a hedge should
// fire only for tail stragglers — floored at HedgeDelay while the
// quantile is still warming up.
func (co *Coordinator) hedgeDelay() time.Duration {
	d := co.reg.jobP95()
	if d < co.cfg.HedgeDelay {
		d = co.cfg.HedgeDelay
	}
	return d
}

// dispatch runs one job under the retry/routing policy: pick the
// healthiest backend, bound the attempt with the job timeout, hedge a
// straggling attempt to a second backend, classify the outcome, back
// off, re-route. It returns the job's result, or a 4xx
// *client.StatusError to propagate verbatim, or a terminal error
// (errNoBackend / exhausted budget) that the caller answers by running
// the job locally.
func dispatch[T any](co *Coordinator, ctx context.Context, kind string, hs *hedgeState, run func(context.Context, *client.Client) (T, error)) (T, error) {
	var zero T
	var lastErr error = errNoBackend
	for attempt := 0; attempt < co.cfg.RetryBudget; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if attempt > 0 {
			co.reg.addRetry()
		}
		b := co.pick(co.cfg.Now())
		if b == nil {
			// Nothing routable. If a breaker could half-open within the
			// budget the backoff below gives it the chance; a totally
			// empty fleet fails fast to local.
			obs.FromContext(ctx).Event("no-backend")
			if len(co.backends) == 0 {
				return zero, errNoBackend
			}
			lastErr = errNoBackend
			if err := co.cfg.Sleep(ctx, co.backoffWait(attempt)); err != nil {
				return zero, err
			}
			continue
		}
		res, err, retryable, wait := hedgedAttempt(co, ctx, hs, b, run)
		if err == nil {
			return res, nil
		}
		if !retryable {
			return zero, err
		}
		lastErr = err
		if wait <= 0 {
			wait = co.backoffWait(attempt)
		}
		if err := co.cfg.Sleep(ctx, wait); err != nil {
			return zero, err
		}
	}
	return zero, fmt.Errorf("cluster: %s job failed after %d attempts: %w", kind, co.cfg.RetryBudget, lastErr)
}

// hedgedAttempt runs one attempt slot: the job on backend b, plus — if
// the hedge timer fires while b is still working and the request's
// hedge budget and a second routable backend exist — one duplicate,
// first complete response winning. The loser's context is cancelled the
// moment a winner lands, and every launched copy is awaited and
// released before returning, so per-backend outstanding gauges always
// drain. Hedge losers are uncountable for the circuit breaker, like
// 429s: a cancelled duplicate says nothing about the backend's health.
//
// Returns (result, error, retryable, suggested wait): retryable=false
// errors propagate to the caller (4xx, parent-context death);
// retryable=true errors let dispatch back off and re-route.
func hedgedAttempt[T any](co *Coordinator, ctx context.Context, hs *hedgeState, b *backend, run func(context.Context, *client.Client) (T, error)) (T, error, bool, time.Duration) {
	var zero T
	type outcome struct {
		b     *backend
		res   T
		err   error
		start time.Time
		sp    *obs.Span
	}
	results := make(chan outcome, 2)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	// Each launched copy gets its own "attempt" span; the attempt's
	// context carries it, so the client grafts the backend's
	// Server-Timing tree under the attempt that actually fetched it.
	// The select loop below settles every span exactly once: the single
	// winner gets "winner", cancelled losers are marked cancelled.
	launch := func(b *backend, hedge bool) context.CancelFunc {
		asp := obs.FromContext(ctx).Child("attempt")
		if asp != nil {
			asp.Annotate("backend=" + b.name)
			if hedge {
				asp.Annotate("hedge")
			}
		}
		actx, acancel := context.WithCancel(obs.ContextWith(ctx, asp))
		start := co.cfg.Now()
		go func() {
			jctx, jcancel := context.WithTimeout(actx, co.cfg.JobTimeout)
			defer jcancel()
			res, err := run(jctx, b.cl)
			results <- outcome{b: b, res: res, err: err, start: start, sp: asp}
		}()
		return acancel
	}
	cancels = append(cancels, launch(b, false))
	inFlight := 1

	// The timer goroutine only signals; the select loop below launches
	// the duplicate, so backend picking never races result handling.
	timer := make(chan struct{}, 1)
	tctx, tcancel := context.WithCancel(ctx)
	defer tcancel()
	if hs != nil {
		go func() {
			if co.cfg.Sleep(tctx, co.hedgeDelay()) == nil {
				timer <- struct{}{}
			}
		}()
	}

	var (
		winner   outcome
		won      bool
		hedgedTo *backend
		terminal error // 4xx / parent-context error: propagate, don't retry
		lastErr  error
		wait     time.Duration
	)
	settle := func() {
		tcancel()
		for _, c := range cancels {
			c()
		}
	}
	for inFlight > 0 {
		select {
		case o := <-results:
			inFlight--
			now := co.cfg.Now()
			if won || terminal != nil {
				// The slot already concluded; this copy is the cancelled
				// loser (or, rarely, a second success — still a healthy
				// answer). Losers are uncountable.
				if o.err == nil {
					o.b.release(true, true, now, co.cfg.BreakerThreshold, "")
					co.reg.addJob(o.b.name, "ok")
					o.sp.Annotate("late")
					o.sp.End()
				} else {
					o.b.release(false, false, now, co.cfg.BreakerThreshold, "")
					co.reg.addJob(o.b.name, "cancelled")
					o.sp.Cancel()
				}
				continue
			}
			if o.err == nil {
				o.b.release(true, true, now, co.cfg.BreakerThreshold, "")
				co.reg.addJob(o.b.name, "ok")
				co.reg.addJobLatency(now.Sub(o.start))
				winner, won = o, true
				if hedgedTo != nil && o.b == hedgedTo {
					co.reg.addHedgeWin()
				}
				o.sp.Annotate("winner")
				o.sp.End()
				settle()
				continue
			}
			var se *client.StatusError
			switch {
			case errors.As(o.err, &se) && se.Code == http.StatusTooManyRequests:
				// Busy, not broken: the backend answered coherently.
				// Remember its hint (bounded); a still-running copy may
				// yet win.
				o.b.release(true, false, now, co.cfg.BreakerThreshold, "")
				co.reg.addJob(o.b.name, "busy")
				o.sp.Annotate("busy")
				o.sp.EndErr(o.err)
				lastErr = o.err
				if w := se.RetryAfter; w > 0 && w <= co.cfg.BackoffMax {
					wait = w
				}
			case errors.As(o.err, &se) && se.Code < http.StatusInternalServerError:
				// 4xx: our request (and hence the caller's) is wrong.
				// Propagate — re-sending it elsewhere cannot fix it, and
				// the backend is healthy.
				o.b.release(true, true, now, co.cfg.BreakerThreshold, "")
				o.sp.EndErr(o.err)
				terminal = o.err
				settle()
			case ctx.Err() != nil:
				// The caller hung up or its deadline budget expired; the
				// backend may be fine. Uncountable.
				o.b.release(false, false, now, co.cfg.BreakerThreshold, "")
				o.sp.Cancel()
				terminal = ctx.Err()
				settle()
			default:
				// 5xx, timeout, or transport failure: a real backend
				// failure. Count it, maybe open the breaker; dispatch
				// re-shards to a survivor after the backoff.
				wasOpen, _, _, _ := o.b.snapshot()
				o.b.release(false, true, now, co.cfg.BreakerThreshold, o.err.Error())
				if st, _, _, _ := o.b.snapshot(); st == breakerOpen && wasOpen != breakerOpen {
					co.reg.addOpened()
				}
				co.reg.addJob(o.b.name, "error")
				o.sp.EndErr(o.err)
				lastErr = o.err
				if errors.Is(o.err, context.DeadlineExceeded) {
					// The *job* timeout expired, not the request's budget
					// (ctx.Err() was nil above). Flatten the wrap with %v so
					// an exhausted retry budget still reads as a backend
					// failure — eligible for local fallback — rather than a
					// spent deadline.
					lastErr = fmt.Errorf("cluster: job timed out after %v: %v", co.cfg.JobTimeout, o.err)
				}
			}
		case <-timer:
			if !hs.take() {
				continue
			}
			b2 := co.pickExcluding(co.cfg.Now(), b)
			if b2 == nil {
				hs.put()
				continue
			}
			co.reg.addHedge()
			hedgedTo = b2
			cancels = append(cancels, launch(b2, true))
			inFlight++
		}
	}
	if won {
		return winner.res, nil, false, 0
	}
	if terminal != nil {
		return zero, terminal, false, 0
	}
	return zero, lastErr, true, wait
}

// backoffWait is attempt k's capped exponential backoff with jitter,
// uniformly within [half, full] of BackoffBase·2^k capped by
// BackoffMax.
func (co *Coordinator) backoffWait(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := co.cfg.BackoffBase << uint(attempt)
	if d <= 0 || d > co.cfg.BackoffMax {
		d = co.cfg.BackoffMax
	}
	half := d / 2
	return half + time.Duration(co.cfg.Rand()*float64(half))
}

// fallbackLocal reports whether err means "run this job locally": the
// fleet is unroutable or the budget is spent. 4xx propagation and
// caller cancellation are not fallback cases.
func fallbackLocal(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *client.StatusError
	if errors.As(err, &se) && se.Code < http.StatusInternalServerError && se.Code != http.StatusTooManyRequests {
		return false
	}
	return true
}

// writeDispatchError answers a request whose dispatch failed without a
// local fallback: 4xx pass through verbatim, an expired deadline budget
// is 504 (the server ran out of time), cancellation is the client's own
// doing (499), anything else is a 502.
func writeDispatchError(w http.ResponseWriter, err error) {
	var se *client.StatusError
	if errors.As(err, &se) {
		server.WriteError(w, se.Code, se.Msg)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		server.WriteError(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	if errors.Is(err, context.Canceled) {
		server.WriteError(w, 499, err.Error())
		return
	}
	server.WriteError(w, http.StatusBadGateway, err.Error())
}

// stripParams builds the wire parameters of the strip at x0 under
// caller parameters p and the full-image resolved options opt: a plain
// whole-strip run (no array), full labels for the stitch, the
// bit-serial word width pinned to the full image's resolved width (a
// strip left to choose its own would charge narrower words than the
// local tiler does), and — on aggregation jobs — the strip's global
// column-major origin as the positions offset. cost= rides through
// verbatim, so under cost=host every backend answers its strip with the
// host engine and the compose path (core.ComposeStrips with Engine set)
// stitches labels and folds without any simulated metrics to merge.
func stripParams(p api.Params, opt core.Options, h, x0 int, agg bool) api.Params {
	sp := api.Params{
		Format:       string(imageio.FormatRaw),
		Connectivity: p.Connectivity,
		UF:           p.UF,
		Cost:         p.Cost,
		WordBits:     p.WordBits,
		WantLabels:   true,
	}
	if opt.Cost.WordBits > 0 {
		sp.Cost = "bitserial"
		sp.WordBits = opt.Cost.WordBits
	}
	if agg {
		sp.Op = p.Op
		sp.Initial = p.Initial
		sp.InitialOffset = p.InitialOffset + x0*h
	}
	return sp
}

// job is one strip's work order.
type job struct {
	s      int // strip index
	x0, sw int
	data   []byte // SLR1-encoded strip
}

// encodeJobs encodes every strip of img as an SLR1 body, cut straight
// from the frame's row words.
func encodeJobs(img *bitmap.Bitmap, aw int) []job {
	w := img.W()
	strips := (w + aw - 1) / aw
	jobs := make([]job, strips)
	for s := 0; s < strips; s++ {
		x0 := s * aw
		sw := min(aw, w-x0)
		jobs[s] = job{s: s, x0: x0, sw: sw, data: img.StripView(x0, sw).AppendRaw(nil)}
	}
	return jobs
}

// runJobs executes every strip job — remote with retries and
// re-sharding, locally as the last resort — with at most
// JobConcurrency in flight. each returns the strip's run or an error;
// the first error (by strip index) wins.
func (co *Coordinator) runJobs(ctx context.Context, jobs []job, each func(context.Context, job) (core.StripRun, error)) ([]core.StripRun, error) {
	runs := make([]core.StripRun, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, co.cfg.JobConcurrency)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			runs[i], errs[i] = each(ctx, jobs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// request is one /v1/label or /v1/aggregate request in flight.
type request struct {
	name string       // "label" or "aggregate": the trace and job name
	p    api.Params   // the caller's parameters
	op   *core.Monoid // the aggregation monoid; nil on label requests
	opt  core.Options // p resolved over the coordinator's base options
	hs   *hedgeState
}

// handleRun serves /v1/label and, with agg, /v1/aggregate: one request
// path for both, the monoid nil on label requests.
func (co *Coordinator) handleRun(agg bool) http.HandlerFunc {
	name := "label"
	if agg {
		name = "aggregate"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rq := request{name: name}
		var err error
		if rq.p, err = api.ParamsFromQuery(r.URL.Query()); err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		if agg {
			op, err := core.MonoidByName(rq.p.Op)
			if err == nil {
				err = server.CheckInitial(rq.p.Initial)
			}
			if err != nil {
				server.WriteError(w, http.StatusBadRequest, err.Error())
				return
			}
			rq.op = &op
		}
		r, done, ok := co.lifecycle(w, r, name)
		if !ok {
			return
		}
		defer done()
		root := obs.FromContext(r.Context())
		dsp := root.Child("decode")
		img, _, status, err := server.ReadFrame(w, r, rq.p, co.cfg.MaxBodyBytes, co.cfg.Limits)
		dsp.EndErr(err)
		if err != nil {
			server.WriteError(w, status, err.Error())
			return
		}
		// Resolve options exactly as a backend would: rejects bad
		// parameters here with the same 400s, and configures local
		// fallback runs identically.
		if rq.opt, err = server.OptionsFromParams(co.cfg.Options, rq.p, img.W(), img.H()); err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx := r.Context()
		rq.hs = co.newHedgeState()

		aw := rq.opt.ArrayWidth
		if aw <= 0 || aw >= img.W() {
			// Whole-image run: one job, routed like any other.
			resp, err := co.wholeImage(ctx, &rq, img)
			if err != nil {
				writeDispatchError(w, err)
				return
			}
			server.WriteAnswer(w, r, server.Answer(resp, rq.op))
			return
		}

		jobs := encodeJobs(img, aw)
		fsp := root.Child("fanout")
		runs, err := co.runJobs(obs.ContextWith(ctx, fsp), jobs, func(jctx context.Context, j job) (core.StripRun, error) {
			ssp := obs.FromContext(jctx).Child("strip")
			if ssp != nil {
				ssp.Annotate("s=" + strconv.Itoa(j.s))
			}
			run, jerr := co.stripJob(obs.ContextWith(jctx, ssp), &rq, j, img.H())
			ssp.EndErr(jerr)
			return run, jerr
		})
		fsp.EndErr(err)
		if err != nil {
			writeDispatchError(w, err)
			return
		}
		tsp := root.Child("stitch")
		res, err := core.ComposeStrips(img, runs, rq.op, rq.opt)
		tsp.EndErr(err)
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		server.WriteAnswer(w, r, server.Answer(server.ToAggregateResponse(res, rq.op, rq.p.WantLabels), rq.op))
	}
}

// post sends one job's body to cl: /v1/aggregate on aggregation
// requests, /v1/label otherwise — whose answer then rides in an
// AggregateResponse with no op and no folds.
func (rq *request) post(ctx context.Context, cl *client.Client, data []byte, p api.Params) (*api.AggregateResponse, error) {
	ct := string(imageio.FormatRaw.ContentType())
	if rq.op != nil {
		return cl.AggregateData(ctx, data, ct, p)
	}
	resp, err := cl.LabelData(ctx, data, ct, p)
	if err != nil {
		return nil, err
	}
	return &api.AggregateResponse{LabelResponse: *resp}, nil
}

// local answers a job on the coordinator itself — the last resort when
// no backend will take it — with the response a backend would have
// sent. offset is the job's global column-major origin, which
// positions-initialized folds start from.
func (rq *request) local(ctx context.Context, img *bitmap.Bitmap, opt core.Options, offset int, wantLabels bool) (*api.AggregateResponse, error) {
	var initial []int32
	if rq.op != nil {
		var err error
		if initial, err = server.InitialValues(img, rq.p.Initial, offset); err != nil {
			return nil, err
		}
	}
	res, err := core.Run(ctx, img, initial, rq.op, opt)
	if err != nil {
		return nil, err
	}
	return server.ToAggregateResponse(res, rq.op, wantLabels), nil
}

// stripJob runs one strip's job: remote dispatch under the retry/hedge
// policy, degrading to a local run when no backend will take it.
func (co *Coordinator) stripJob(ctx context.Context, rq *request, j job, h int) (core.StripRun, error) {
	sp := stripParams(rq.p, rq.opt, h, j.x0, rq.op != nil)
	resp, err := dispatch(co, ctx, rq.name, rq.hs, func(jctx context.Context, cl *client.Client) (*api.AggregateResponse, error) {
		return rq.post(jctx, cl, j.data, sp)
	})
	if err != nil {
		if !fallbackLocal(err) {
			return core.StripRun{}, err
		}
		co.reg.addFallback()
		stripOpt := rq.opt
		stripOpt.ArrayWidth = 0
		stripOpt.StripWorkers = 0
		lsp := obs.FromContext(ctx).Child("local")
		resp, err = rq.local(ctx, mustDecodeStrip(j), stripOpt, rq.p.InitialOffset+j.x0*h, true)
		lsp.EndErr(err)
		if err != nil {
			return core.StripRun{}, err
		}
	}
	return server.ToStripRun(resp, j.sw, h, rq.op != nil)
}

// wholeImage routes an un-strip-mined request as a single job,
// degrading to a local run when no backend will take it.
func (co *Coordinator) wholeImage(ctx context.Context, rq *request, img *bitmap.Bitmap) (*api.AggregateResponse, error) {
	data := img.AppendRaw(nil)
	fp := rq.p
	fp.Format = string(imageio.FormatRaw)
	ssp := obs.FromContext(ctx).Child("strip")
	ctx = obs.ContextWith(ctx, ssp)
	resp, derr := dispatch(co, ctx, rq.name, rq.hs, func(jctx context.Context, cl *client.Client) (*api.AggregateResponse, error) {
		return rq.post(jctx, cl, data, fp)
	})
	if derr == nil {
		ssp.End()
		return resp, nil
	}
	if !fallbackLocal(derr) {
		ssp.EndErr(derr)
		return nil, derr
	}
	co.reg.addFallback()
	lsp := ssp.Child("local")
	resp, err := rq.local(ctx, img, rq.opt, rq.p.InitialOffset, rq.p.WantLabels)
	lsp.EndErr(err)
	ssp.EndErr(err)
	return resp, err
}

// mustDecodeStrip re-decodes a job's already-encoded strip for local
// fallback. The bytes came from AppendRaw moments ago, so failure is
// a programming error.
func mustDecodeStrip(j job) *bitmap.Bitmap {
	img, err := imageio.DecodeBytes(j.data, imageio.FormatRaw, imageio.Limits{})
	if err != nil {
		panic(fmt.Sprintf("cluster: re-decoding own strip %d: %v", j.s, err))
	}
	return img
}
