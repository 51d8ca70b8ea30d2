// Package server implements slapd, the network labeling service: an
// http.Handler that decodes images (PNG, PBM, ASCII art, or the SLR1
// raw wire format), admits requests through a bounded queue with 429
// backpressure, labels them on a shared pool of warm Labelers, and
// reports itself through Prometheus-format metrics and a health
// endpoint. See the api package for the wire contract and the client
// package for the matching Go client.
//
// The shape follows the batch-kernel ingest pipelines of the parallel
// CCL literature: decode and admission are cheap and synchronous, the
// expensive labeling step runs on a fixed set of warm workers
// (per-request options retarget a worker without cold arenas), and load
// beyond the queue bound is shed immediately rather than buffered into
// unbounded memory.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/imageio"
	"slapcc/internal/obs"
	"slapcc/internal/seqcc"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

// PathDebugRequests serves the in-memory trace ring (recent, slowest,
// errored requests) as JSON or HTML — slapd's x/net/trace analogue.
const PathDebugRequests = "/debug/requests"

// Config configures a Server; the zero value serves with GOMAXPROCS
// workers, a queue of 2× that, default image limits, and 64 MiB bodies.
type Config struct {
	// Options are the base labeling options; per-request parameters
	// override individual fields (connectivity, UF, cost, ArrayWidth).
	Options core.Options
	// Workers sizes the labeler pool (≤ 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker beyond the ones being served; admission refuses with 429
	// once Workers+QueueDepth requests are in flight (≤ 0 selects
	// 2×Workers).
	QueueDepth int
	// Limits bound decoded image sizes (zero fields select
	// imageio.DefaultLimits).
	Limits imageio.Limits
	// MaxBodyBytes bounds each request body (≤ 0 selects 64 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint sent with 429 responses (≤ 0 selects 1s;
	// sub-second values round up to 1s on the wire).
	RetryAfter time.Duration
	// Verify cross-checks every labeling against the sequential ground
	// truth before answering — the belt-and-suspenders mode for
	// conformance runs; leave false in production.
	Verify bool
	// LatencyTarget enables adaptive (AIMD) admission: while completed
	// requests run over the target the concurrency limit decreases
	// multiplicatively, and while they hold under it the limit recovers
	// additively toward Workers+QueueDepth — so the server sheds load
	// the moment latency degrades instead of waiting for the queue to
	// fill. 0 (the default) keeps the fixed Workers+QueueDepth bound.
	LatencyTarget time.Duration
	// Logf receives one line per notable server event (recovered
	// panics, with the request ID and stack); nil discards.
	Logf func(format string, args ...any)
	// Now overrides the clock (tests); nil selects time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the slapd http.Handler. Construct with New, serve with any
// http.Server, and call Shutdown to drain before exit.
type Server struct {
	cfg  Config
	pool *core.LabelerPool
	mux  *http.ServeMux
	tel  *Telemetry
	reg  *registry

	// Admission: sem holds one token per admitted request; inflight
	// counts them for the drain and the gauge. mu serializes admission
	// against Shutdown so no request slips in after the drain begins.
	sem      chan struct{}
	mu       sync.Mutex
	draining bool
	inflight int
	idle     sync.Cond // signaled whenever inflight drops

	// Adaptive admission (mu-guarded): limit is the AIMD concurrency
	// bound in [1, Workers+QueueDepth] (pinned at the capacity while
	// LatencyTarget is 0), estEWMA the running latency estimate in
	// seconds that scales deadline-budget rejection by queue depth.
	limit   float64
	estEWMA float64
}

// New returns a Server ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		pool:  core.NewLabelerPool(cfg.Options, cfg.Workers),
		mux:   http.NewServeMux(),
		tel:   NewTelemetry("slapd", cfg.Now),
		reg:   &registry{},
		sem:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		limit: float64(cfg.Workers + cfg.QueueDepth),
	}
	s.idle.L = &s.mu
	s.mux.HandleFunc(api.PathLabel, s.tel.Instrument("label", s.admitted("label", s.recovered(s.handleRun(false)))))
	s.mux.HandleFunc(api.PathAggregate, s.tel.Instrument("aggregate", s.admitted("aggregate", s.recovered(s.handleRun(true)))))
	s.mux.HandleFunc(api.PathHealthz, s.tel.Instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc(api.PathMetrics, s.tel.Instrument("metrics", s.handleMetrics))
	s.mux.Handle(PathDebugRequests, s.DebugHandler())
	return s
}

// DebugHandler serves the trace ring — mounted on the main mux at
// PathDebugRequests and remountable on a separate -debugaddr listener.
func (s *Server) DebugHandler() http.Handler { return s.tel.DebugHandler() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Workers returns the labeler pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// AdmissionCapacity returns how many requests may be in flight before
// admission sheds with 429.
func (s *Server) AdmissionCapacity() int { return s.cfg.Workers + s.cfg.QueueDepth }

// HoldAdmissionForTest occupies every admission slot until release is
// closed, then frees them — the hook conformance tests use to drive
// genuine 429 backpressure through real HTTP requests.
func (s *Server) HoldAdmissionForTest(release <-chan struct{}) {
	n := s.AdmissionCapacity()
	for i := 0; i < n; i++ {
		s.sem <- struct{}{}
	}
	<-release
	for i := 0; i < n; i++ {
		<-s.sem
	}
}

// Shutdown drains the server: new requests are refused with 503 (and
// /healthz reports unhealthy, so load balancers stop routing here),
// while every already-admitted request runs to completion. It returns
// nil once the last one finishes, or ctx's error on timeout. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.inflight > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admitted wraps a labeling handler with method filtering, request-ID
// assignment, the request trace, deadline-budget screening, drain
// refusal, and the bounded admission queue: when Workers+QueueDepth
// requests are already in flight — or, under a LatencyTarget, when the
// AIMD limit is reached — the request is shed immediately with 429 and
// a Retry-After hint instead of queueing without bound.
func (s *Server) admitted(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		// The request trace rides the context from here on: core's span
		// hooks (pool wait, strips, stitch) attach under whatever stage
		// span the handler has opened. Every exit — shed, refused, failed,
		// answered — finalizes into the stage histograms and the
		// /debug/requests ring.
		r, tr := s.tel.StartTrace(w, r, name)
		defer s.tel.FinishTrace(w, tr)

		// Deadline budget: a spent budget — or one the current queue
		// cannot plausibly meet — fails fast with 504 before touching the
		// labeler pool; a live one bounds the request context, so the
		// strip loop stops between strips when it expires mid-run.
		if budget, ok := api.ParseDeadline(r.Header.Get(api.HeaderDeadlineMS)); ok {
			if budget <= 0 {
				s.reg.addDeadlineRejected()
				WriteError(w, http.StatusGatewayTimeout, "deadline budget already spent")
				return
			}
			if need := s.deadlineEstimate(); need > 0 && budget < need {
				s.reg.addDeadlineRejected()
				WriteError(w, http.StatusGatewayTimeout,
					fmt.Sprintf("deadline budget %v under queue-scaled estimate %v", budget, need))
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), budget)
			defer cancel()
			r = r.WithContext(ctx)
		}

		// The admission walk is non-blocking (load is shed, not queued),
		// so the "queue" span is usually microseconds — it exists so a
		// trace that *was* delayed at admission says so explicitly.
		qsp := tr.Root().Child("queue")
		shed := func() {
			qsp.End()
			s.reg.addRejected()
			secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			WriteError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			qsp.End()
			WriteError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.mu.Unlock()
			shed()
			return
		}
		// The semaphore is the hard capacity bound; the adaptive limit
		// sheds earlier while latency runs over target.
		if lim := int(s.limit); s.cfg.LatencyTarget > 0 && s.inflight >= lim {
			<-s.sem
			s.mu.Unlock()
			shed()
			return
		}
		s.inflight++
		s.mu.Unlock()
		qsp.End()
		start := s.cfg.Now()
		defer func() {
			s.observeAdmitted(s.cfg.Now().Sub(start))
			<-s.sem
			s.mu.Lock()
			s.inflight--
			s.mu.Unlock()
			s.idle.Broadcast()
		}()
		h(w, r)
	}
}

// recovered wraps a handler with panic isolation: a panicking request
// answers 500 (with its request ID), counts in slapd_panics_total, and
// logs the stack — instead of killing the connection and whatever else
// shared its goroutine's fate. The labeler pool independently replaces
// a worker that panicked mid-run (see core.LabelerPool), so one
// poisoned request costs one response, not a worker.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.reg.addPanic()
				id := w.Header().Get(api.HeaderRequestID)
				s.logf("panic serving %s (request %s): %v\n%s", r.URL.Path, id, p, debug.Stack())
				if sw, ok := w.(*statusWriter); !ok || sw.code == 0 {
					WriteError(w, http.StatusInternalServerError, "internal error")
				}
			}
		}()
		h(w, r)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// observeAdmitted feeds one admitted request's wall time into the
// latency estimate and — under a LatencyTarget — the AIMD limit:
// multiplicative decrease the moment a request runs over target,
// additive (1/limit per completion ≈ +1 per round) recovery while
// requests hold under it.
func (s *Server) observeAdmitted(dur time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sec := dur.Seconds()
	if s.estEWMA == 0 {
		s.estEWMA = sec
	} else {
		s.estEWMA += 0.2 * (sec - s.estEWMA)
	}
	if s.cfg.LatencyTarget <= 0 {
		return
	}
	capf := float64(s.cfg.Workers + s.cfg.QueueDepth)
	if dur > s.cfg.LatencyTarget {
		s.limit *= 0.8
		if s.limit < 1 {
			s.limit = 1
		}
	} else {
		s.limit += 1 / s.limit
		if s.limit > capf {
			s.limit = capf
		}
	}
}

// deadlineEstimate is what a newly admitted request is expected to
// need: the latency EWMA scaled by the queue turns ahead of it. Zero
// until the first request completes — with no history the server
// admits and lets the in-run deadline do its job.
func (s *Server) deadlineEstimate() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.estEWMA == 0 {
		return 0
	}
	waiting := s.inflight - s.cfg.Workers
	if waiting < 0 {
		waiting = 0
	}
	turns := 1 + float64(waiting)/float64(s.cfg.Workers)
	return time.Duration(s.estEWMA * turns * float64(time.Second))
}

// handleHealthz answers the routing signal coordinators act on: 200
// with a JSON HealthResponse (queue depth included, so a balancer can
// prefer idle backends) while serving, 503 with Status "draining" the
// moment Shutdown begins — before the drain finishes — so upstreams
// stop routing here while in-flight requests complete.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := api.HealthResponse{
		Status:   "ok",
		Inflight: s.inflight,
		Capacity: s.AdmissionCapacity(),
		Workers:  s.cfg.Workers,
	}
	if s.cfg.LatencyTarget > 0 {
		resp.AdmissionLimit = int(s.limit)
	}
	draining := s.draining
	s.mu.Unlock()
	if resp.QueueDepth = resp.Inflight - s.cfg.Workers; resp.QueueDepth < 0 {
		resp.QueueDepth = 0
	}
	code := http.StatusOK
	if draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	gv := gauges{
		inflight: s.inflight,
		capacity: s.AdmissionCapacity(),
		limit:    int(s.limit),
		workers:  s.cfg.Workers,
		idle:     s.pool.Idle(),
		draining: s.draining,
	}
	s.mu.Unlock()
	if gv.queueDep = gv.inflight - s.cfg.Workers; gv.queueDep < 0 {
		gv.queueDep = 0
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Render(w)
	s.reg.render(w, gv)
}

// readFrame reads and decodes the request body under the configured
// bounds; the returned status is the HTTP code to answer on error.
func (s *Server) readFrame(w http.ResponseWriter, r *http.Request, p api.Params) (*bitmap.Bitmap, int, error) {
	img, n, status, err := ReadFrame(w, r, p, s.cfg.MaxBodyBytes, s.cfg.Limits)
	s.reg.addBytesIn(n)
	if err == nil && testDecodeHook != nil {
		testDecodeHook(img)
	}
	return img, status, err
}

// ReadFrame reads a request body of at most maxBody bytes and decodes
// it under limits, in the format p names or — when p leaves it to
// sniffing — the Content-Type's. It returns the body's size (0 when the
// read failed) and, on error, the HTTP status to answer. The slapd and
// slapfront handlers share it.
func ReadFrame(w http.ResponseWriter, r *http.Request, p api.Params, maxBody int64, limits imageio.Limits) (*bitmap.Bitmap, int64, int, error) {
	format, err := imageio.ParseFormat(p.Format)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	if format == imageio.FormatAuto {
		format = imageio.FormatFromContentType(r.Header.Get("Content-Type"))
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, 0, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBody)
		}
		return nil, 0, http.StatusBadRequest, err
	}
	n := int64(len(body))
	img, err := imageio.DecodeBytes(body, format, limits)
	if err != nil {
		if errors.Is(err, imageio.ErrLimit) {
			return nil, n, http.StatusRequestEntityTooLarge, err
		}
		return nil, n, http.StatusBadRequest, err
	}
	return img, n, 0, nil
}

// testDecodeHook, when set by a test, observes every successfully
// decoded frame — the seam panic-isolation tests use to poison one
// request without inventing an unparseable-yet-parseable image.
var testDecodeHook func(*bitmap.Bitmap)

// OptionsFromParams resolves wire parameters over base options for an
// imgW×imgH frame — the one translation every program serving or
// replaying the api must share (slapd resolves requests with it; the
// slapfront coordinator resolves its local-fallback runs with it, so a
// degraded run is configured exactly as the backends would be).
func OptionsFromParams(base core.Options, p api.Params, imgW, imgH int) (core.Options, error) {
	opt := base
	switch p.Connectivity {
	case 0:
	case 4:
		opt.Connectivity = bitmap.Conn4
	case 8:
		opt.Connectivity = bitmap.Conn8
	default:
		return opt, fmt.Errorf("bad conn %d (want 4 or 8)", p.Connectivity)
	}
	if p.UF != "" {
		kind := unionfind.Kind(p.UF)
		if !unionfind.Valid(kind) {
			return opt, fmt.Errorf("unknown uf %q (want one of %v)", p.UF, unionfind.Kinds())
		}
		opt.UF = kind
	}
	if p.WordBits < 0 {
		return opt, fmt.Errorf("bad wordbits %d (must be ≥ 0)", p.WordBits)
	}
	// cost= is the engine selector: unit and bitserial pick the metered
	// simulator under the matching charge model; host picks the host
	// engine (same answers, no simulation, zero Metrics on the wire).
	switch strings.ToLower(p.Cost) {
	case "", "unit":
	case "bitserial":
		bits := p.WordBits
		if bits == 0 {
			bits = slap.WordBitsForDims(imgW, imgH)
		}
		opt.Cost = slap.BitSerial(bits)
	case "host":
		opt.Engine = core.EngineHost
	default:
		return opt, fmt.Errorf("bad cost %q (want unit, bitserial, or host)", p.Cost)
	}
	if p.ArrayWidth < 0 {
		return opt, fmt.Errorf("bad array %d (must be ≥ 0)", p.ArrayWidth)
	}
	if p.ArrayWidth > 0 {
		opt.ArrayWidth = p.ArrayWidth
	}
	if p.Seam != "" {
		seam := core.SeamModel(strings.ToLower(p.Seam))
		if !seam.Valid() {
			return opt, fmt.Errorf("bad seam %q (want %q or %q)", p.Seam, core.SeamDistributed, core.SeamHost)
		}
		opt.Seam = seam
	}
	if p.Schedule != "" {
		sched := core.ScheduleModel(strings.ToLower(p.Schedule))
		if !sched.Valid() {
			return opt, fmt.Errorf("bad schedule %q (want %q or %q)", p.Schedule, core.ScheduleSequential, core.SchedulePipelined)
		}
		opt.Schedule = sched
	}
	return opt, nil
}

// handleRun serves /v1/label and, with agg, /v1/aggregate: one request
// path for both, the monoid nil on label requests.
func (s *Server) handleRun(agg bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, err := api.ParamsFromQuery(r.URL.Query())
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		var op *core.Monoid
		if agg {
			m, err := core.MonoidByName(p.Op)
			if err != nil {
				WriteError(w, http.StatusBadRequest, err.Error())
				return
			}
			op = &m
		}
		sp := obs.FromContext(r.Context())
		dsp := sp.Child("decode")
		img, status, err := s.readFrame(w, r, p)
		dsp.EndErr(err)
		if err != nil {
			WriteError(w, status, err.Error())
			return
		}
		resp, status, err := s.runOne(r.Context(), img, p, op)
		if err != nil {
			WriteError(w, status, err.Error())
			return
		}
		s.reg.addFrame()
		WriteAnswer(w, r, resp)
	}
}

// statusClientClosedRequest is nginx's conventional code for "the
// client hung up before we answered" — nothing standard fits, and the
// write usually goes nowhere, but the access log and metrics should
// distinguish an abandoned request from a bad one.
const statusClientClosedRequest = 499

// runOne answers a decoded frame on the pool under per-request params:
// the labeling when op is nil (an *api.LabelResponse), the Corollary 4
// aggregation under *op otherwise (an *api.AggregateResponse). The
// request context propagates into the run: a client that hangs up
// cancels a strip-mined run between strips instead of paying for the
// whole image.
func (s *Server) runOne(ctx context.Context, img *bitmap.Bitmap, p api.Params, op *core.Monoid) (any, int, error) {
	opt, err := OptionsFromParams(s.cfg.Options, p, img.W(), img.H())
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	name := "label"
	var initial []int32
	if op != nil {
		name = "aggregate"
		if initial, err = InitialValues(img, p.Initial, p.InitialOffset); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	// The run span covers the whole engine run — pool wait, strips, and
	// stitch attach under it via the context.
	rsp := obs.FromContext(ctx).Child(name)
	annotateEngine(rsp, opt)
	ctx = obs.ContextWith(ctx, rsp)
	// A client that didn't ask for labels only needs the summary — let
	// the engine skip materializing the labeling (the host engine does;
	// the simulator ignores it). Server-side verification still needs
	// the labels to check; aggregation runs need them for the folds.
	opt.SkipLabels = op == nil && !p.WantLabels && !s.cfg.Verify
	res, err := s.pool.RunWith(ctx, img, initial, op, opt)
	if err != nil {
		rsp.EndErr(err)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, err
		}
		if ctx.Err() != nil {
			return nil, statusClientClosedRequest, err
		}
		return nil, http.StatusBadRequest, err
	}
	if testRunHook != nil {
		testRunHook(res)
	}
	if s.cfg.Verify {
		conn := opt.Connectivity
		if conn == 0 {
			conn = bitmap.Conn4
		}
		if err := seqcc.CheckConn(img, res.Labels, conn); err != nil {
			err = fmt.Errorf("verification failed: %w", err)
			rsp.EndErr(err)
			return nil, http.StatusInternalServerError, err
		}
	}
	// Materializing the response (summarizing, flattening the label map)
	// is part of producing the answer — the span closes after it, so the
	// stage decomposition accounts for the handler's real wall time.
	out := Answer(ToAggregateResponse(res, op, p.WantLabels), op)
	rsp.End()
	return out, 0, nil
}

// testRunHook, when set by a test, sees every completed run's result
// before verification and response shaping — the verify tests use it
// to corrupt an answer the engine got right.
var testRunHook func(*core.Result)

// ToLabelResponse converts a label run's result to the wire form.
func ToLabelResponse(res *core.Result, wantLabels bool) *api.LabelResponse {
	return &ToAggregateResponse(res, nil, wantLabels).LabelResponse
}

// ToAggregateResponse converts a run's result to the wire form: the
// label response, and under op the op name and (with labels) the
// per-pixel folds; with op nil both stay empty. Exported so the
// slapfront coordinator shapes composed runs and local fallbacks into
// byte-for-byte the JSON a local slapd would have produced.
func ToAggregateResponse(res *core.Result, op *core.Monoid, wantLabels bool) *api.AggregateResponse {
	lm := res.Labels
	var st seqcc.Stats
	w, h := 0, 0
	if lm != nil {
		w, h = lm.W(), lm.H()
	}
	if s := res.Summary; s != nil {
		// The engine already summarized along its own sweep (host engine:
		// O(runs)); the values are identical to Summarize's by contract.
		// A summary-only result (Options.SkipLabels) has no label map at
		// all — the summary carries the frame dimensions instead.
		st = seqcc.Stats{Components: s.Components, Foreground: s.Foreground, Largest: s.Largest}
		if lm == nil {
			w, h = s.W, s.H
		}
	} else {
		st = seqcc.Summarize(lm)
	}
	resp := &api.AggregateResponse{LabelResponse: api.LabelResponse{
		Width:      w,
		Height:     h,
		Foreground: st.Foreground,
		Components: st.Components,
		Largest:    st.Largest,
		Metrics: api.Metrics{
			ArrayWidth: res.Metrics.N,
			TimeSteps:  res.Metrics.Time,
			Sends:      res.Metrics.Sends,
			Words:      res.Metrics.Words,
			MaxQueue:   res.Metrics.MaxQueue,
			PEMemory:   res.Metrics.PEMemory,
		},
		UF: api.UFReport{
			Kind:       string(res.UF.Kind),
			Finds:      res.UF.Finds,
			Unions:     res.UF.Unions,
			TotalSteps: res.UF.TotalSteps,
			MaxOpCost:  res.UF.MaxOpCost,
			MeanOpCost: res.UF.MeanOpCost,
		},
	}}
	if op != nil {
		resp.Op = op.Name
	}
	out := &resp.LabelResponse
	for _, ph := range res.Metrics.Phases {
		out.Metrics.Phases = append(out.Metrics.Phases, api.PhaseMetrics{
			Name:     ph.Name,
			Makespan: ph.Makespan,
			Sends:    ph.Sends,
			Words:    ph.Words,
			Idle:     ph.Idle,
			MaxQueue: ph.MaxQueue,
		})
	}
	if wantLabels && lm != nil {
		// Every run allocates its own label map, so the answer can
		// share its storage.
		out.Labels = lm.Labels()
		resp.PerPixel = res.PerPixel
	}
	return resp
}

// ToStripRun reconstructs a core.StripRun from the wire response to an
// sw×h strip's job: the inverse of ToAggregateResponse, by which the
// slapfront coordinator turns a backend's answer into a run for
// core.ComposeStrips. A backend's answer is outside input, so it is
// checked against the job before the stitch trusts it: the dimensions
// and counts the response claims, and every label, which must be
// Background or a strip-local position no later than its own pixel's
// (a component's canonical label is its least position). The labels
// are then wrapped in place as the strip's map. The wire omits
// Busy/NilRecvs/per-PE profiles and the speculation stats — none of
// which ever serialize in a composed response — so the composition over
// reconstructed runs is byte-identical to the local tiler's.
func ToStripRun(resp *api.AggregateResponse, sw, h int, agg bool) (core.StripRun, error) {
	if resp.Width != sw || resp.Height != h {
		return core.StripRun{}, fmt.Errorf("server: strip response is %dx%d, want %dx%d", resp.Width, resp.Height, sw, h)
	}
	if len(resp.Labels) != sw*h {
		return core.StripRun{}, fmt.Errorf("server: strip response has %d labels, want %d", len(resp.Labels), sw*h)
	}
	for i, l := range resp.Labels {
		// One unsigned compare: Background (−1) maps to 0, below every
		// i+1, and any other negative label wraps past all of them.
		if uint32(l+1) > uint32(i+1) {
			return core.StripRun{}, fmt.Errorf("server: strip response labels position %d with %d, outside [0, %d]", i, l, i)
		}
	}
	lm := bitmap.LabelMapOf(sw, h, resp.Labels)
	m := slap.Metrics{
		N:        resp.Metrics.ArrayWidth,
		Time:     resp.Metrics.TimeSteps,
		Sends:    resp.Metrics.Sends,
		Words:    resp.Metrics.Words,
		MaxQueue: resp.Metrics.MaxQueue,
		PEMemory: resp.Metrics.PEMemory,
	}
	for _, ph := range resp.Metrics.Phases {
		m.Phases = append(m.Phases, slap.PhaseMetrics{
			Name:     ph.Name,
			Makespan: ph.Makespan,
			Sends:    ph.Sends,
			Words:    ph.Words,
			Idle:     ph.Idle,
			MaxQueue: ph.MaxQueue,
		})
	}
	run := core.StripRun{
		Labels:  lm,
		Metrics: m,
		UF: core.UFReport{
			Kind:       unionfind.Kind(resp.UF.Kind),
			Finds:      resp.UF.Finds,
			Unions:     resp.UF.Unions,
			TotalSteps: resp.UF.TotalSteps,
			MaxOpCost:  resp.UF.MaxOpCost,
			MeanOpCost: resp.UF.MeanOpCost,
		},
	}
	if agg {
		if len(resp.PerPixel) != sw*h {
			return core.StripRun{}, fmt.Errorf("server: strip response has %d per-pixel folds, want %d", len(resp.PerPixel), sw*h)
		}
		run.PerPixel = resp.PerPixel
	}
	return run, nil
}

// Answer is the JSON body answering resp: the label response alone on
// label runs (op nil), the whole aggregate response under op.
func Answer(resp *api.AggregateResponse, op *core.Monoid) any {
	if op == nil {
		return &resp.LabelResponse
	}
	return resp
}

// CheckInitial validates a wire initial= kind: "" or "ones" (all ones)
// and "positions" (column-major positions).
func CheckInitial(kind string) error {
	switch strings.ToLower(kind) {
	case "", "ones", "positions":
		return nil
	}
	return fmt.Errorf("unknown initial %q (ones, positions)", kind)
}

// InitialValues builds the initial per-pixel aggregation values: all
// ones, or column-major positions shifted by offset (a strip of a
// larger image passes its global origin, so per-strip folds match the
// whole-image run's).
func InitialValues(img *bitmap.Bitmap, kind string, offset int) ([]int32, error) {
	if err := CheckInitial(kind); err != nil {
		return nil, err
	}
	if strings.ToLower(kind) != "positions" {
		return core.Ones(img), nil
	}
	init := make([]int32, img.W()*img.H())
	for i := range init {
		init[i] = int32(i + offset)
	}
	return init, nil
}

// WriteJSON answers code with v as JSON (HTML escaping off).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// annotateEngine tags a run span with the engine answering it.
func annotateEngine(sp *obs.Span, opt core.Options) {
	if sp == nil {
		return
	}
	if opt.Engine == core.EngineHost {
		sp.Annotate("engine=host")
	} else {
		sp.Annotate("engine=sim")
	}
}

// WriteAnswer answers a run with v, the *api.LabelResponse or
// *api.AggregateResponse Answer returns: the labels frame when the
// request's Accept names api.ContentTypeLabels, JSON otherwise; either
// way api.HeaderOffer offers the frame. The answer is prepared under an
// "encode" span — the JSON body encoded to a buffer, or the frame's
// header marshaled — then the trace's span tree (on slapfront, each
// attempt's grafted backend tree nested inside) rides ahead of it in a
// Server-Timing header: headers must precede the body, so the JSON
// encoder cannot stream straight to the wire. A frame's arrays are
// written after the headers, through one small buffer, under its
// Content-Length. The JSON bytes are identical to WriteJSON's, which
// the cluster-vs-local byte-equality tests depend on.
func WriteAnswer(w http.ResponseWriter, r *http.Request, v any) {
	sp := obs.FromContext(r.Context())
	esp := sp.Child("encode")
	var frame *api.LabelsFrame
	var body []byte
	var err error
	if api.AcceptsLabelsFrame(r.Header.Get("Accept")) {
		frame, err = api.NewLabelsFrame(v)
	} else {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err = enc.Encode(v)
		body = buf.Bytes()
	}
	esp.EndErr(err)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	hdr := w.Header()
	if tr := sp.Trace(); tr != nil {
		if st := tr.ServerTiming(); st != "" {
			hdr.Set("Server-Timing", st)
		}
	}
	hdr.Set(api.HeaderOffer, api.ContentTypeLabels)
	if frame == nil {
		hdr.Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	hdr.Set("Content-Type", api.ContentTypeLabels)
	hdr.Set("Content-Length", strconv.Itoa(frame.Size()))
	w.WriteHeader(http.StatusOK)
	frame.WriteTo(w)
}

// WriteError answers an ErrorResponse; the request ID StartTrace
// stamped on the response header (if any) rides along in the payload,
// so an error seen three tiers up is traceable to one line in this
// server's log.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, api.ErrorResponse{Error: msg, RequestID: w.Header().Get(api.HeaderRequestID)})
}
