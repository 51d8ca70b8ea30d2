package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/cluster/chaos"
	"slapcc/internal/imageio"
	"slapcc/internal/obs"
	"slapcc/internal/server"
)

// walkSpans visits every span in a snapshot tree, handing each visitor
// call the span and its parent (nil at the root).
func walkSpans(sp obs.SpanSnapshot, parent *obs.SpanSnapshot, visit func(sp, parent *obs.SpanSnapshot)) {
	visit(&sp, parent)
	for _, c := range sp.Children {
		walkSpans(c, &sp, visit)
	}
}

// ringTraces polls a coordinator's ring until want traces named name
// have been filed (Observe runs after the response is written, so a
// client that has read the body can still be a beat ahead of the ring).
func ringTraces(t *testing.T, co *Coordinator, name string, want int) []obs.TraceSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got []obs.TraceSnapshot
		for _, tr := range debugRing(t, co.DebugHandler()).Recent {
			if tr.Name == name {
				got = append(got, tr)
			}
		}
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring has %d %q traces, want %d", len(got), name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceHedgeWinnerSpans pins trace correctness under hedged
// concurrency (the cluster suite runs under -race in CI): with one
// straggling and one healthy backend and the hedge timer firing
// instantly, every strip's attempt spans settle to exactly one winner —
// the losers are cancelled or marked late/busy, never left open, and
// at least one attempt carries the hedge mark.
func TestTraceHedgeWinnerSpans(t *testing.T) {
	const stall = 500 * time.Millisecond
	slowInner := server.New(server.Config{Workers: 2})
	slowProxy := chaos.NewProxy(slowInner, func(n int) chaos.Decision {
		return chaos.Decision{Mode: chaos.Delay, Delay: stall}
	})
	slow := httptest.NewServer(slowProxy)
	t.Cleanup(slow.Close)
	t.Cleanup(slowProxy.Close)
	fast := newSlapd(t)

	co, front := newFront(t, []string{slow.URL, fast.URL}, func(cfg *Config) {
		cfg.HedgeMax = 4
	})
	img := testImage(t)
	code, body := post(t, front.URL, api.PathLabel, api.Params{ArrayWidth: 20, WantLabels: true}, img)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if hedges, _ := hedgeCounters(co); hedges < 1 {
		t.Fatalf("hedges=%d, the straggler setup should always hedge", hedges)
	}

	tr := ringTraces(t, co, "label", 1)[0]
	type settle struct{ winners, open int }
	perStrip := map[string]*settle{}
	hedged := false
	walkSpans(tr.Root, nil, func(sp, parent *obs.SpanSnapshot) {
		if sp.Name != "attempt" {
			return
		}
		key := fmt.Sprintf("%s %s", parent.Name, parent.Note)
		st := perStrip[key]
		if st == nil {
			st = &settle{}
			perStrip[key] = st
		}
		if strings.Contains(sp.Note, "hedge") {
			hedged = true
		}
		switch {
		case strings.Contains(sp.Note, "winner"):
			st.winners++
		case sp.Status == obs.StatusCancelled,
			strings.Contains(sp.Note, "late"),
			strings.Contains(sp.Note, "busy"):
			// settled loser
		default:
			st.open++
		}
	})
	if len(perStrip) != 2 {
		t.Fatalf("attempts under %d strips, want 2:\n%s", len(perStrip), mustJSON(tr))
	}
	for strip, st := range perStrip {
		if st.winners != 1 || st.open != 0 {
			t.Fatalf("strip %q settled to %d winners and %d unsettled attempts, want exactly 1 and 0:\n%s",
				strip, st.winners, st.open, mustJSON(tr))
		}
	}
	if !hedged {
		t.Fatalf("no attempt span carries the hedge mark:\n%s", mustJSON(tr))
	}
}

func mustJSON(v any) string {
	b, _ := json.MarshalIndent(v, "", "  ")
	return string(b)
}

// debugRing reads a daemon's /debug/requests ring as JSON through its
// debug handler.
func debugRing(t *testing.T, h http.Handler) obs.RingSnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, server.PathDebugRequests+"?format=json", nil))
	var snap obs.RingSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// workClock is a backend clock that stands still except where a test
// stands in for the handler's work, so span coverage is exact rather
// than a race against the scheduler.
type workClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *workClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *workClock) work() {
	c.mu.Lock()
	c.t = c.t.Add(time.Millisecond)
	c.mu.Unlock()
}

// workBody charges one unit of work when the handler has read the whole
// body: the decode stage's work.
type workBody struct {
	io.ReadCloser
	clk *workClock
}

func (b workBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.clk.work()
	}
	return n, err
}

// workContext charges one unit of work per cancellation poll: the
// engine polls its request context inside the run (Run on entry,
// the host engine before it labels), so the label stage's work.
type workContext struct {
	context.Context
	clk *workClock
}

func (c workContext) Err() error {
	c.clk.work()
	return c.Context.Err()
}

// TestTraceStageCoverage is the acceptance criterion for the tracing
// layer: a strip-mined cost=host request through slapfront returns a
// merged Server-Timing tree carrying the backends' grafted stages, and
// on the backend side the per-stage decomposition accounts for at
// least 90% of each strip request's wall time — the handler's work is
// the trace, not the gaps between spans. The backend's wall time is a
// workClock's, advanced only by the decode and label work, and its
// requests are served one at a time so each trace sees only its own
// work: a stage span the handler stops opening turns that stage's work
// into an uncovered gap, deterministically.
func TestTraceStageCoverage(t *testing.T) {
	clk := &workClock{t: time.Unix(0, 0)}
	backend := server.New(server.Config{Workers: 2, Now: clk.now})
	var serial sync.Mutex
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serial.Lock()
		defer serial.Unlock()
		// A deadline budget would wrap the run's context in a timer
		// context whose Err never reaches workContext.
		r.Header.Del(api.HeaderDeadlineMS)
		r.Body = workBody{r.Body, clk}
		backend.ServeHTTP(w, r.WithContext(workContext{r.Context(), clk}))
	}))
	t.Cleanup(b.Close)
	_, front := newFront(t, []string{b.URL}, nil)

	img := bitmap.Random(1024, 0.5, 0xBEEF)
	data, err := imageio.EncodeBytes(img, imageio.FormatRaw)
	if err != nil {
		t.Fatal(err)
	}
	p := api.Params{ArrayWidth: 256, Cost: "host", WantLabels: true} // 4 strips
	req, _ := http.NewRequest(http.MethodPost, front.URL+api.PathLabel+"?"+p.Query().Encode(), bytes.NewReader(data))
	req.Header.Set("Content-Type", string(imageio.FormatRaw.ContentType()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// One tree spanning both tiers: the header must carry the front's
	// own stages and, nested under each strip's attempt, the grafted
	// backend stages.
	st := resp.Header.Get("Server-Timing")
	for _, want := range []string{"decode", "fanout.strip", "fanout.strip.attempt", "fanout.strip.attempt.label", "stitch", "encode"} {
		if !strings.Contains(st, want+";dur=") {
			t.Fatalf("Server-Timing misses %q:\n%s", want, st)
		}
	}

	// Backend side: every strip request's top-level stages must sum to
	// ≥90% of its wall time.
	deadline := time.Now().Add(5 * time.Second)
	var traces []obs.TraceSnapshot
	for {
		traces = traces[:0]
		for _, tr := range debugRing(t, backend.DebugHandler()).Recent {
			if tr.Name == "label" {
				traces = append(traces, tr)
			}
		}
		if len(traces) >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(traces) != 4 {
		t.Fatalf("backend ring has %d label traces, want 4 strips", len(traces))
	}
	for _, tr := range traces {
		var stages float64
		for _, c := range tr.Root.Children {
			stages += c.DurMS
		}
		if tr.DurMS <= 0 || stages < 0.9*tr.DurMS {
			t.Errorf("trace %s: stages cover %.2fms of %.2fms wall (%.0f%%), want ≥90%%:\n%s",
				tr.ID, stages, tr.DurMS, 100*stages/tr.DurMS, mustJSON(tr))
		}
	}
}

// TestSpanNameInventoryDocumented is the observability docs gate,
// mirroring core's TestPhaseNameInventory: it drives every request
// shape the daemons trace — strip fan-out with grafted backend stages,
// whole-image proxying, aggregation, and local fallback with no
// backends — then fails if any span name that showed
// up is missing from docs/METRICS.md.
func TestSpanNameInventoryDocumented(t *testing.T) {
	docPath := filepath.Join("..", "..", "docs", "METRICS.md")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatalf("reading %s: %v", docPath, err)
	}

	b := newSlapd(t)
	co, front := newFront(t, []string{b.URL}, nil)
	img := testImage(t)
	for _, tc := range []struct {
		path string
		p    api.Params
	}{
		{api.PathLabel, api.Params{ArrayWidth: 8, WantLabels: true}},
		{api.PathLabel, api.Params{WantLabels: true}},
		{api.PathAggregate, api.Params{ArrayWidth: 8, Op: "min", Initial: "positions"}},
	} {
		if code, body := post(t, front.URL, tc.path, tc.p, img); code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.path, code, body)
		}
	}
	// Every backend down at birth: the dispatcher records the no-backend
	// event and the job runs under a local span.
	coLocal, frontLocal := newFront(t, nil, nil)
	if code, body := post(t, frontLocal.URL, api.PathLabel, api.Params{ArrayWidth: 8}, img); code != http.StatusOK {
		t.Fatalf("local fallback: %d %s", code, body)
	}
	// The sweep must reach every span family; rings are filed just after
	// the response, so poll until the full vocabulary has landed.
	must := []string{
		"label", "aggregate",
		"queue", "decode", "encode", "pool", "strip", "stitch",
		"fanout", "attempt", "local", "no-backend",
	}
	names := map[string]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for {
		collect := func(traces []obs.TraceSnapshot) {
			for _, tr := range traces {
				walkSpans(tr.Root, nil, func(sp, _ *obs.SpanSnapshot) { names[sp.Name] = true })
			}
		}
		collect(debugRing(t, co.DebugHandler()).Recent)
		collect(debugRing(t, coLocal.DebugHandler()).Recent)
		collect(debugRing(t, b.Config.Handler).Recent)
		missing := false
		for _, m := range must {
			if !names[m] {
				missing = true
			}
		}
		if !missing || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range must {
		if !names[m] {
			t.Errorf("inventory sweep no longer emits span %q — extend the sweep or drop it from the list", m)
		}
	}

	var missing []string
	for name := range names {
		if !strings.Contains(string(doc), "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("span names emitted by the daemons but undocumented in docs/METRICS.md: %v\n"+
			"document each in the span inventory table", missing)
	}
}
