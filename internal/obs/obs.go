// Package obs is the request-scoped tracing layer behind slapd and
// slapfront: a dependency-free Trace of nested Spans keyed by the
// request's X-Slap-Request-Id. A trace surfaces three ways — a
// Server-Timing response header (rendered by ServerTiming, parsed back
// by ParseServerTiming, and grafted across tiers by Span.Graft, so the
// coordinator's tree carries every backend's stages), per-stage
// Prometheus histograms (Histogram), and the /debug/requests ring of
// recent, slowest, and errored traces (Ring).
//
// Every Span method is safe on a nil receiver: code paths that run
// without a trace (direct library use of core, benchmarks) pay one nil
// check per hook and nothing else. The clock is injected at trace
// construction, so every layer above is stub-clock testable.
package obs

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span statuses. The empty string is success; Cancel marks a span
// StatusCancelled (a hedge loser, a hung-up client), errors mark it
// StatusError.
const (
	StatusOK        = ""
	StatusCancelled = "cancelled"
	StatusError     = "error"
)

// Trace is one request's span tree. Construct with New; the root span
// is open until Finish. All methods are safe for concurrent use — a
// strip fan-out appends child spans from many goroutines.
type Trace struct {
	mu   sync.Mutex
	id   string
	now  func() time.Time
	root *Span
}

// Span is one timed stage inside a trace. The zero of everything —
// a nil *Span — is a valid no-op span, so instrumentation hooks cost
// one nil check when no trace is attached.
type Span struct {
	tr       *Trace
	name     string
	note     string
	status   string
	start    time.Time
	dur      time.Duration
	ended    bool
	remote   bool // grafted from another tier's Server-Timing
	children []*Span
}

// New starts a trace named name (by convention the endpoint) keyed by
// the request id. now overrides the clock (tests); nil selects
// time.Now.
func New(id, name string, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	t := &Trace{id: id, now: now}
	t.root = &Span{tr: t, name: name, start: now()}
	return t
}

// ID returns the request id the trace is keyed by.
func (t *Trace) ID() string { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Finish ends the root span (idempotent). Child spans left open keep
// accumulating until their own End; a finished trace's duration is
// fixed.
func (t *Trace) Finish() { t.root.End() }

// Duration returns the root span's duration (time so far while open).
func (t *Trace) Duration() time.Duration { return t.root.Duration() }

// Status returns the root span's status.
func (t *Trace) Status() string { return t.root.Status() }

// Stage is one top-level stage of a finished trace, as fed to the
// per-stage histograms.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Stages returns the root's direct children in start order — the
// per-stage wall-time decomposition of the request.
func (t *Trace) Stages() []Stage {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Stage, 0, len(t.root.children))
	for _, c := range t.root.children {
		out = append(out, Stage{Name: c.name, Dur: c.durLocked(t.now())})
	}
	return out
}

// SpanNames returns the sorted set of every span name in the trace,
// remote (grafted) spans included — the docs-gate input.
func (t *Trace) SpanNames() []string {
	t.mu.Lock()
	set := map[string]bool{}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		set[sp.name] = true
		for _, c := range sp.children {
			walk(c)
		}
	}
	walk(t.root)
	t.mu.Unlock()
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// durLocked is the span's duration, using now while still open.
// Callers hold tr.mu.
func (sp *Span) durLocked(now time.Time) time.Duration {
	if sp.ended || sp.remote {
		return sp.dur
	}
	return now.Sub(sp.start)
}

// Child starts a child span. Nil-safe: a nil receiver returns nil, so
// untraced paths chain no-ops all the way down.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	c := &Span{tr: sp.tr, name: name, start: sp.tr.now()}
	sp.children = append(sp.children, c)
	return c
}

// Event records a zero-duration child span — a point-in-time marker
// (a breaker rejection, a hedge launch).
func (sp *Span) Event(name string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	now := sp.tr.now()
	sp.children = append(sp.children, &Span{tr: sp.tr, name: name, start: now, ended: true})
}

// End closes the span with its current status (idempotent).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	sp.endLocked()
}

func (sp *Span) endLocked() {
	if sp.ended {
		return
	}
	sp.ended = true
	sp.dur = sp.tr.now().Sub(sp.start)
}

// EndErr closes the span, deriving status from err: nil is success,
// context.Canceled marks it cancelled, anything else errors the span
// and records the message.
func (sp *Span) EndErr(err error) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			sp.status = StatusCancelled
		} else {
			sp.status = StatusError
		}
		if sp.note == "" {
			sp.note = err.Error()
		}
	}
	sp.endLocked()
}

// Cancel closes the span as cancelled — the hedge loser's mark.
func (sp *Span) Cancel() {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	sp.status = StatusCancelled
	sp.endLocked()
}

// Fail marks the span errored without closing it (the root carries the
// request's final status while later stages still run).
func (sp *Span) Fail(note string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	sp.status = StatusError
	if sp.note == "" {
		sp.note = note
	}
}

// Annotate attaches a short note (backend name, strip index, "winner").
// Repeated notes join with a space.
func (sp *Span) Annotate(note string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	if sp.note == "" {
		sp.note = note
	} else {
		sp.note += " " + note
	}
}

// Name returns the span's name ("" on nil).
func (sp *Span) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name // immutable after construction
}

// Status returns the span's status.
func (sp *Span) Status() string {
	if sp == nil {
		return StatusOK
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	return sp.status
}

// Duration returns the span's duration (time so far while open).
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	return sp.durLocked(sp.tr.now())
}

// Trace returns the owning trace (nil on nil).
func (sp *Span) Trace() *Trace {
	if sp == nil {
		return nil
	}
	return sp.tr
}

type ctxKey struct{}

// ContextWith returns ctx carrying sp; the span hooks below it
// (pool wait, per-strip, seam stitch, backend attempts) attach their
// children there.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span ctx carries, or nil — and nil is a
// working no-op span, so callers never check.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ServerTiming renders the trace as a Server-Timing header value: one
// entry per span below the root, depth-first, nesting encoded in
// dotted path names (label.strip), duration in milliseconds, a
// non-success status in desc. ParseServerTiming inverts it and
// Span.Graft rebuilds the tree, so a coordinator merges each backend's
// header into its own trace and the client sees one tree spanning both
// tiers.
func (t *Trace) ServerTiming() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var b strings.Builder
	var walk func(sp *Span, prefix string)
	walk = func(sp *Span, prefix string) {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(prefix)
		b.WriteString(";dur=")
		b.WriteString(strconv.FormatFloat(float64(sp.durLocked(now))/float64(time.Millisecond), 'f', -1, 64))
		if sp.status != "" {
			b.WriteString(";desc=")
			b.WriteString(sp.status)
		}
		for _, c := range sp.children {
			walk(c, prefix+"."+c.name)
		}
	}
	for _, c := range t.root.children {
		walk(c, c.name)
	}
	return b.String()
}

// Entry is one parsed Server-Timing metric.
type Entry struct {
	Name string // dotted span path
	Dur  time.Duration
	Desc string
}

// A coordinator grafts every backend's Server-Timing header into its own
// trace, so ParseServerTiming bounds what one header can add: at most
// maxTimingEntries entries, each at most maxTimingDepth dotted levels
// deep (deeper entries are dropped). The daemons' own headers stay far
// inside both: a coordinator's deepest path, a backend stage grafted
// under its attempt (fanout.strip.attempt.label.strip), has five
// levels, and a strip-mined frame renders one entry per strip.
const (
	maxTimingEntries = 4096
	maxTimingDepth   = 16
)

// ParseServerTiming parses a Server-Timing header value, preserving
// entry order (the renderer's depth-first order is what lets Graft
// rebuild the tree), within maxTimingEntries and maxTimingDepth.
func ParseServerTiming(h string) []Entry {
	var out []Entry
	for h != "" && len(out) < maxTimingEntries {
		var part string
		part, h, _ = strings.Cut(h, ",")
		name, params, _ := strings.Cut(part, ";")
		e := Entry{Name: strings.TrimSpace(name)}
		if e.Name == "" || strings.Count(e.Name, ".") >= maxTimingDepth {
			continue
		}
		for params != "" {
			var f string
			f, params, _ = strings.Cut(params, ";")
			k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				continue
			}
			switch strings.ToLower(k) {
			case "dur":
				if ms, err := strconv.ParseFloat(v, 64); err == nil {
					e.Dur = time.Duration(ms * float64(time.Millisecond))
				}
			case "desc":
				e.Desc = strings.Trim(v, `"`)
			}
		}
		out = append(out, e)
	}
	return out
}

// Graft attaches another tier's parsed Server-Timing entries under sp
// as remote spans, rebuilding the dotted paths into a tree. Repeated
// names attach under the most recently seen span of their parent path
// — exactly the renderer's depth-first order — so per-strip entries
// land under their own strip.
func (sp *Span) Graft(entries []Entry) {
	if sp == nil || len(entries) == 0 {
		return
	}
	sp.tr.mu.Lock()
	defer sp.tr.mu.Unlock()
	last := map[string]*Span{"": sp}
	for _, e := range entries {
		parentPath, name := "", e.Name
		if i := strings.LastIndex(e.Name, "."); i >= 0 {
			parentPath, name = e.Name[:i], e.Name[i+1:]
		}
		parent := last[parentPath]
		if parent == nil {
			parent = sp // orphaned path: keep the data, flatten the nesting
		}
		c := &Span{tr: sp.tr, name: name, status: e.Desc, dur: e.Dur, ended: true, remote: true}
		parent.children = append(parent.children, c)
		last[e.Name] = c
	}
}

// SpanSnapshot is one span as /debug/requests serves it.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	StartMS  float64        `json:"start_ms"` // offset from the trace's start
	DurMS    float64        `json:"dur_ms"`
	Status   string         `json:"status,omitempty"`
	Note     string         `json:"note,omitempty"`
	Remote   bool           `json:"remote,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// TraceSnapshot is one trace as /debug/requests serves it.
type TraceSnapshot struct {
	ID    string       `json:"id"`
	Name  string       `json:"name"`
	Start time.Time    `json:"start"`
	DurMS float64      `json:"dur_ms"`
	Root  SpanSnapshot `json:"root"`
}

// Snapshot captures the trace for serving.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	origin := t.root.start
	var snap func(sp *Span) SpanSnapshot
	snap = func(sp *Span) SpanSnapshot {
		s := SpanSnapshot{
			Name:   sp.name,
			DurMS:  float64(sp.durLocked(now)) / float64(time.Millisecond),
			Status: sp.status,
			Note:   sp.note,
			Remote: sp.remote,
		}
		if !sp.remote {
			s.StartMS = float64(sp.start.Sub(origin)) / float64(time.Millisecond)
		}
		for _, c := range sp.children {
			s.Children = append(s.Children, snap(c))
		}
		return s
	}
	return TraceSnapshot{
		ID:    t.id,
		Name:  t.root.name,
		Start: origin,
		DurMS: float64(t.root.durLocked(now)) / float64(time.Millisecond),
		Root:  snap(t.root),
	}
}
