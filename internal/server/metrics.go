package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"slapcc/api"
	"slapcc/internal/obs"
)

// Telemetry is the request telemetry slapd and slapfront share: the
// per-endpoint request counter and latency histogram, the per-stage
// histograms finished traces feed, and the /debug/requests trace ring.
// Its three metric families render under the daemon's prefix in
// Prometheus text exposition format, with no external dependencies.
// Everything renders in sorted label order so /metrics output is
// deterministic — the golden tests depend on it, and diff-based scrape
// debugging benefits.
type Telemetry struct {
	prefix string
	now    func() time.Time
	ring   *obs.Ring

	mu       sync.Mutex
	requests map[reqKey]int64
	lat      map[string]*obs.Histogram // request wall time by endpoint
	stage    map[string]*obs.Histogram // stage wall time by trace span name
}

type reqKey struct {
	endpoint string
	code     int
}

// NewTelemetry returns the telemetry of the daemon whose metric names
// start with prefix, timing requests and traces on now.
func NewTelemetry(prefix string, now func() time.Time) *Telemetry {
	return &Telemetry{
		prefix:   prefix,
		now:      now,
		ring:     obs.NewRing(0, 0, 0),
		requests: make(map[reqKey]int64),
		lat:      make(map[string]*obs.Histogram),
		stage:    make(map[string]*obs.Histogram),
	}
}

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Instrument wraps h with per-endpoint accounting: each request counts
// under name and its response status (200 when h wrote none), and its
// wall time lands in the endpoint's latency histogram.
func (t *Telemetry) Instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		dur := t.now().Sub(start)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.requests[reqKey{name, sw.code}]++
		observeIn(t.lat, name, dur)
	}
}

// StartTrace stamps the request's ID — the caller's X-Slap-Request-Id,
// or a fresh one — on the response header before anything can fail, so
// WriteError (and panic recovery) echo it from any depth, and on the
// context, so downstream calls carry it. It opens the request's trace,
// named name, whose root span rides the returned request's context.
// Callers end it with FinishTrace.
func (t *Telemetry) StartTrace(w http.ResponseWriter, r *http.Request, name string) (*http.Request, *obs.Trace) {
	id := r.Header.Get(api.HeaderRequestID)
	if id == "" {
		id = api.NewRequestID()
	}
	w.Header().Set(api.HeaderRequestID, id)
	tr := obs.New(id, name, t.now)
	ctx := obs.ContextWith(api.ContextWithRequestID(r.Context(), id), tr.Root())
	return r.WithContext(ctx), tr
}

// FinishTrace settles a StartTrace trace from the status recorded on w
// (an Instrument-wrapped writer): 499 marks the root cancelled, any
// other error status failed. Then it finishes the trace, feeds its
// top-level stages to the stage histograms, and files it in the
// /debug/requests ring.
func (t *Telemetry) FinishTrace(w http.ResponseWriter, tr *obs.Trace) {
	if sw, ok := w.(*statusWriter); ok && sw.code >= http.StatusBadRequest {
		if sw.code == statusClientClosedRequest {
			tr.Root().Cancel()
		} else {
			tr.Root().Fail(fmt.Sprintf("http %d", sw.code))
		}
	}
	tr.Finish()
	stages := tr.Stages()
	t.mu.Lock()
	for _, st := range stages {
		observeIn(t.stage, st.Name, st.Dur)
	}
	t.mu.Unlock()
	t.ring.Observe(tr)
}

// observeIn files d in hs's histogram for key, creating it on first use.
func observeIn(hs map[string]*obs.Histogram, key string, d time.Duration) {
	h := hs[key]
	if h == nil {
		h = obs.NewHistogram(nil)
		hs[key] = h
	}
	h.Observe(d.Seconds())
}

// DebugHandler serves the trace ring — mounted on the main mux at
// PathDebugRequests and remountable on a private debug listener.
func (t *Telemetry) DebugHandler() http.Handler { return t.ring.Handler() }

// Render writes the request counter, then the request and stage
// latency histograms; within a family, series sort by label values.
func (t *Telemetry) Render(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	WriteFamily(w, t.prefix+"_requests_total", "counter", "HTTP requests completed, by endpoint and status code.")
	keys := make([]reqKey, 0, len(t.requests))
	for k := range t.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "%s_requests_total{endpoint=%q,code=\"%d\"} %d\n", t.prefix, k.endpoint, k.code, t.requests[k])
	}
	// Request and stage latencies render as cumulative-bucket histograms;
	// the _count/_sum series keep the names the old summary exposed, so
	// dashboards built on them survive the conversion.
	writeHistograms(w, t.prefix+"_request_seconds", "Wall time of completed requests, by endpoint.", "endpoint", t.lat)
	writeHistograms(w, t.prefix+"_stage_seconds", "Wall time of request stages (top-level trace spans), by stage.", "stage", t.stage)
}

// writeHistograms writes one histogram family, a series per key of hs
// labelled label=key, in key order.
func writeHistograms(w io.Writer, name, help, label string, hs map[string]*obs.Histogram) {
	WriteFamily(w, name, "histogram", help)
	keys := make([]string, 0, len(hs))
	for k := range hs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		hs[k].WriteProm(w, name, fmt.Sprintf("%s=%q", label, k))
	}
}

// WriteFamily writes a metric family's HELP and TYPE lines, ahead of
// its series.
func WriteFamily(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// WriteScalar writes a metric family holding one unlabelled series.
func WriteScalar(w io.Writer, name, kind, help string, v int64) {
	WriteFamily(w, name, kind, help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// registry is the rest of slapd's metrics: service-wide ingest totals,
// admission rejections and panics, and the admission gauges sampled at
// render time.
type registry struct {
	mu       sync.Mutex
	frames   int64
	bytesIn  int64
	rejected int64
	deadline int64
	panics   int64
}

func (g *registry) addFrame()            { g.mu.Lock(); g.frames++; g.mu.Unlock() }
func (g *registry) addBytesIn(n int64)   { g.mu.Lock(); g.bytesIn += n; g.mu.Unlock() }
func (g *registry) addRejected()         { g.mu.Lock(); g.rejected++; g.mu.Unlock() }
func (g *registry) addDeadlineRejected() { g.mu.Lock(); g.deadline++; g.mu.Unlock() }
func (g *registry) addPanic()            { g.mu.Lock(); g.panics++; g.mu.Unlock() }

// gauges are the live values the server samples at render time.
type gauges struct {
	inflight int
	queueDep int
	capacity int
	limit    int
	idle     int
	workers  int
	draining bool
}

// render writes slapd's own families after the shared request
// telemetry: counters first, then gauges.
func (g *registry) render(w io.Writer, gv gauges) {
	g.mu.Lock()
	defer g.mu.Unlock()

	WriteScalar(w, "slapd_frames_labeled_total", "counter", "Frames labeled, one per successful label or aggregate request.", g.frames)
	WriteScalar(w, "slapd_ingest_bytes_total", "counter", "Request body bytes accepted for decoding.", g.bytesIn)
	WriteScalar(w, "slapd_rejected_total", "counter", "Requests shed with 429 by admission control.", g.rejected)
	WriteScalar(w, "slapd_deadline_rejected_total", "counter", "Requests refused with 504 because their deadline budget was spent or unmeetable.", g.deadline)
	WriteScalar(w, "slapd_panics_total", "counter", "Handler panics recovered (each answered 500).", g.panics)

	WriteScalar(w, "slapd_inflight", "gauge", "Admitted requests currently being served.", int64(gv.inflight))
	WriteScalar(w, "slapd_queue_depth", "gauge", "Admitted requests waiting for a worker.", int64(gv.queueDep))
	WriteScalar(w, "slapd_admission_capacity", "gauge", "Admission slots (workers + queue depth bound).", int64(gv.capacity))
	WriteScalar(w, "slapd_admission_limit", "gauge", "Adaptive (AIMD) concurrency limit; equals capacity while no latency target is set.", int64(gv.limit))
	WriteScalar(w, "slapd_workers", "gauge", "Labeler pool size.", int64(gv.workers))
	WriteScalar(w, "slapd_workers_idle", "gauge", "Labeler pool workers currently free.", int64(gv.idle))
	WriteScalar(w, "slapd_draining", "gauge", "1 while the server is draining for shutdown.", boolGauge(gv.draining))
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
