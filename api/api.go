// Package api defines the wire types and request parameters of the
// slapd labeling service. It is the shared vocabulary of
// internal/server (which serves it) and client (which consumes it), so
// the two cannot drift; it depends on nothing but the standard library
// and is safe to import from any program that talks to a slapd.
//
// # Endpoints
//
//	POST /v1/label        one image in the body → LabelResponse
//	POST /v1/aggregate    one image in the body → AggregateResponse
//	GET  /healthz         200 HealthResponse while serving, 503 once
//	                      draining (the body carries queue depth, so a
//	                      coordinator can route by load)
//	GET  /metrics         Prometheus text format counters
//
// Image bodies may be PNG, plain PBM (P1), ASCII art, or the SLR1
// packed-bitset format; the format is sniffed from the content unless
// pinned by the "format" query parameter or the request
// Content-Type. Labeling options ride query parameters (see Params).
// When the service's admission queue is full it answers 429 with a
// Retry-After header (whole seconds); everything else non-2xx carries a
// JSON ErrorResponse.
//
// # Answer encodings
//
// A 200 answer is JSON unless the request's Accept header names
// ContentTypeLabels; then it is the binary labels frame
// (NewLabelsFrame, ReadLabelsFrame; docs/SLR1.md, "Labels frame"):
// the same JSON without the labels and per_pixel arrays, followed by
// those arrays as little-endian int32s. Every 200 answer offers the
// frame in its HeaderOffer header; the client package asks for the
// frame from a server whose last answer offered it, and decodes either
// encoding by the response's Content-Type.
package api

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

// Endpoint paths.
const (
	PathLabel     = "/v1/label"
	PathAggregate = "/v1/aggregate"
	PathHealthz   = "/healthz"
	PathMetrics   = "/metrics"
)

// Request lifecycle headers. Both flow client → slapfront → slapd, so
// a request is traceable and deadline-bounded across every tier.
const (
	// HeaderDeadlineMS carries the request's remaining time budget in
	// whole milliseconds. Every tier re-stamps the header with what is
	// left of its own deadline, so the budget shrinks as the request
	// crosses the fleet; a server whose queue cannot possibly meet the
	// budget fails fast with 504 instead of doing doomed work, and a
	// budget that expires mid-run stops a strip loop between strips.
	HeaderDeadlineMS = "X-Slap-Deadline-Ms"
	// HeaderRequestID identifies one logical request end to end. The
	// client generates it when absent; slapfront forwards the caller's
	// ID to every strip job it fans out; servers echo it on the
	// response and in ErrorResponse.RequestID, and include it in every
	// log line — so a soak failure is traceable across tiers.
	HeaderRequestID = "X-Slap-Request-Id"
)

// requestIDKey is the context key RequestID helpers use.
type requestIDKey struct{}

// ContextWithRequestID returns ctx carrying the request ID, the way
// callers hand an ID to the client (which stamps HeaderRequestID) and
// servers hand the incoming ID to everything downstream.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request ID carried by ctx, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// NewRequestID returns a fresh random request ID (16 hex chars). It
// never fails: if the system's entropy pool is somehow unreadable the
// ID falls back to a process-local counter — uniqueness within one
// trace matters more than unguessability.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := fallbackID.Add(1)
		binary.BigEndian.PutUint64(b[:], n)
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Uint64

// FormatDeadline renders a remaining budget as a HeaderDeadlineMS
// value: whole milliseconds, floored at 0 ("already spent").
func FormatDeadline(remaining time.Duration) string {
	ms := remaining.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return strconv.FormatInt(ms, 10)
}

// ParseDeadline parses a HeaderDeadlineMS value. ok is false when the
// header is absent, malformed or too large for a time.Duration (such a
// hint is ignored rather than failing the request — the budget is
// advisory metadata, not part of the request's validity).
func ParseDeadline(h string) (remaining time.Duration, ok bool) {
	if h == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// Params are the per-request labeling options, carried as query
// parameters on every POST endpoint. Zero values select the service's
// defaults (the paper's: 4-connectivity, Tarjan union–find, unit-cost
// links, array as wide as the image).
type Params struct {
	// Format pins the body codec: "png", "pbm", "art", "raw", or
	// "auto"/"" to take the request's Content-Type or, failing that,
	// sniff the body.
	Format string
	// Connectivity is 4 or 8 (0 = the paper's 4).
	Connectivity int
	// UF names the union–find implementation (e.g. "tarjan", "blum").
	UF string
	// Cost selects the execution engine and its charge model: "unit"
	// (default) or "bitserial" (the Theorem 5 machine, word width derived
	// from the image's dimensions unless WordBits pins it) run the
	// metered simulator; "host" answers with the host engine — same
	// canonical labels and aggregate values, but no simulation, so the
	// response's Metrics is all zeros (no phases, no time steps) and UF
	// reports the host labeler's operation counts under kind "host".
	Cost string
	// WordBits pins the bit-serial word width (0 = derive from the
	// image's dimensions). A coordinator fanning strips of one image
	// across backends pins the whole image's width here, so per-strip
	// runs charge exactly what a local strip-mined run would.
	WordBits int
	// ArrayWidth strip-mines the run on an array of this many PEs when
	// the image is wider (0 = array as wide as the image).
	ArrayWidth int
	// Seam selects the strip-mined seam-relabel model: "distributed"
	// (the default — remap broadcast + per-PE rewrite, charged as array
	// phases) or "host" (the relabel charged as a sequential host pass).
	// Only meaningful with ArrayWidth set; see docs/METRICS.md.
	Seam string
	// Schedule selects the strip-composition schedule model:
	// "sequential" (the default) or "pipelined" (strip s+1's input
	// overlaps strip s's sweeps). Only meaningful with ArrayWidth set;
	// see docs/METRICS.md.
	Schedule string
	// WantLabels asks for the full per-pixel labeling in the response
	// (column-major, Background = -1). Off by default: a megapixel label
	// map is megabytes of JSON.
	WantLabels bool
	// Op is the aggregation monoid for /v1/aggregate: "min", "max",
	// "sum", or "or".
	Op string
	// Initial selects the initial per-pixel values for /v1/aggregate:
	// "ones" (Sum gives component areas) or "positions" (column-major
	// index; Min gives canonical labels). Default "ones".
	Initial string
	// InitialOffset shifts the "positions" initial values: pixel i gets
	// i + InitialOffset. A coordinator aggregating one image strip by
	// strip sets each strip's global column-major origin here, so the
	// per-strip folds are the ones the whole-image run computes.
	InitialOffset int
}

// Query encodes p as URL query parameters, omitting zero values.
func (p Params) Query() url.Values {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("format", p.Format)
	if p.Connectivity != 0 {
		q.Set("conn", strconv.Itoa(p.Connectivity))
	}
	set("uf", p.UF)
	set("cost", p.Cost)
	if p.WordBits != 0 {
		q.Set("wordbits", strconv.Itoa(p.WordBits))
	}
	if p.ArrayWidth != 0 {
		q.Set("array", strconv.Itoa(p.ArrayWidth))
	}
	set("seam", p.Seam)
	set("schedule", p.Schedule)
	if p.WantLabels {
		q.Set("labels", "1")
	}
	set("op", p.Op)
	set("initial", p.Initial)
	if p.InitialOffset != 0 {
		q.Set("initialoffset", strconv.Itoa(p.InitialOffset))
	}
	return q
}

// ParamsFromQuery parses q into Params; it is the inverse of Query and
// rejects malformed numeric fields.
func ParamsFromQuery(q url.Values) (Params, error) {
	p := Params{
		Format:   q.Get("format"),
		UF:       q.Get("uf"),
		Cost:     q.Get("cost"),
		Op:       q.Get("op"),
		Initial:  q.Get("initial"),
		Seam:     q.Get("seam"),
		Schedule: q.Get("schedule"),
	}
	var err error
	if p.Connectivity, err = intParam(q, "conn"); err != nil {
		return p, err
	}
	if p.ArrayWidth, err = intParam(q, "array"); err != nil {
		return p, err
	}
	if p.WordBits, err = intParam(q, "wordbits"); err != nil {
		return p, err
	}
	if p.InitialOffset, err = intParam(q, "initialoffset"); err != nil {
		return p, err
	}
	switch q.Get("labels") {
	case "", "0", "false":
	case "1", "true":
		p.WantLabels = true
	default:
		return p, fmt.Errorf("api: bad labels parameter %q (want 0 or 1)", q.Get("labels"))
	}
	return p, nil
}

func intParam(q url.Values, key string) (int, error) {
	s := q.Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("api: bad %s parameter %q: not an integer", key, s)
	}
	return v, nil
}

// PhaseMetrics is one simulated machine phase.
type PhaseMetrics struct {
	Name     string `json:"name"`
	Makespan int64  `json:"makespan"`
	Sends    int64  `json:"sends"`
	Words    int64  `json:"words"`
	Idle     int64  `json:"idle"`
	MaxQueue int    `json:"max_queue"`
}

// Metrics is the simulated machine accounting of a run.
type Metrics struct {
	// ArrayWidth is the physical PE count the run was charged on.
	ArrayWidth int `json:"array_width"`
	// TimeSteps is the total simulated makespan.
	TimeSteps int64 `json:"time_steps"`
	Sends     int64 `json:"sends"`
	Words     int64 `json:"words"`
	MaxQueue  int   `json:"max_queue"`
	PEMemory  int64 `json:"pe_memory_words"`
	// Phases is the per-phase breakdown, in execution order.
	Phases []PhaseMetrics `json:"phases,omitempty"`
}

// UFReport is the union–find accounting of a run.
type UFReport struct {
	Kind       string  `json:"kind"`
	Finds      int64   `json:"finds"`
	Unions     int64   `json:"unions"`
	TotalSteps int64   `json:"total_steps"`
	MaxOpCost  int64   `json:"max_op_cost"`
	MeanOpCost float64 `json:"mean_op_cost"`
}

// LabelResponse is one labeled frame.
type LabelResponse struct {
	Width      int `json:"width"`
	Height     int `json:"height"`
	Foreground int `json:"foreground"`
	Components int `json:"components"`
	// Largest is the pixel count of the largest component.
	Largest int      `json:"largest"`
	Metrics Metrics  `json:"metrics"`
	UF      UFReport `json:"uf"`
	// Labels is the per-pixel labeling in column-major order (index
	// x·Height + y; background −1), present only when requested with
	// labels=1.
	Labels []int32 `json:"labels,omitempty"`
}

// AggregateResponse is one aggregated frame.
type AggregateResponse struct {
	LabelResponse
	// Op echoes the monoid applied.
	Op string `json:"op"`
	// PerPixel is the per-pixel component fold in column-major order
	// (identity on background), present only when requested with
	// labels=1.
	PerPixel []int32 `json:"per_pixel,omitempty"`
}

// HealthResponse is the /healthz body: 200 with Status "ok" while
// serving, 503 with Status "draining" once shutdown drain begins. The
// load figures let a coordinator prefer idle backends without a
// second round-trip to /metrics.
type HealthResponse struct {
	Status string `json:"status"`
	// Inflight is the number of admitted requests currently in flight.
	Inflight int `json:"inflight"`
	// QueueDepth is how many of those are waiting for a worker.
	QueueDepth int `json:"queue_depth"`
	// Capacity is the admission bound: 429s begin at Inflight ==
	// Capacity.
	Capacity int `json:"capacity"`
	// Workers is the labeler pool size.
	Workers int `json:"workers"`
	// AdmissionLimit is the adaptive (AIMD) concurrency limit currently
	// in force, ≤ Capacity; a limit sagging below Capacity means the
	// server is shedding load to hold its latency target, so a router
	// sees pressure before 429s start. Omitted (0) by servers running
	// the fixed bound.
	AdmissionLimit int `json:"admission_limit,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx, non-429 response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RequestID echoes HeaderRequestID when the request carried (or was
	// assigned) one, so an error seen tiers away is traceable in logs.
	RequestID string `json:"request_id,omitempty"`
}
