package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubClock ticks a fixed step per reading — the same shape the server
// tests inject, so span durations are exact.
func stubClock(step time.Duration) func() time.Time {
	tick := time.Unix(1700000000, 0)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		tick = tick.Add(step)
		return tick
	}
}

func TestSpanTreeAndServerTiming(t *testing.T) {
	tr := New("req-1", "label", stubClock(100*time.Millisecond))
	q := tr.Root().Child("queue")
	q.End()
	run := tr.Root().Child("label")
	s0 := run.Child("strip")
	s0.End()
	s1 := run.Child("strip")
	s1.EndErr(errors.New("boom"))
	run.End()
	tr.Finish()

	st := tr.ServerTiming()
	want := "queue;dur=100, label;dur=500, label.strip;dur=100, label.strip;dur=100;desc=error"
	if st != want {
		t.Fatalf("ServerTiming:\n got %q\nwant %q", st, want)
	}

	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Name != "queue" || stages[0].Dur != 100*time.Millisecond ||
		stages[1].Name != "label" || stages[1].Dur != 500*time.Millisecond {
		t.Fatalf("stages: %+v", stages)
	}
	names := tr.SpanNames()
	if got := strings.Join(names, ","); got != "label,queue,strip" {
		t.Fatalf("span names: %v", names)
	}
	if tr.Duration() != 900*time.Millisecond {
		t.Fatalf("trace duration %v", tr.Duration())
	}
}

func TestParseServerTimingRoundTrip(t *testing.T) {
	in := `queue;dur=0.5, decode;dur=1.25, label;dur=40;desc=cancelled, label.strip;dur=20, junk, ;dur=3`
	es := ParseServerTiming(in)
	if len(es) != 5 {
		t.Fatalf("parsed %d entries: %+v", len(es), es)
	}
	if es[0].Name != "queue" || es[0].Dur != 500*time.Microsecond {
		t.Fatalf("entry 0: %+v", es[0])
	}
	if es[2].Desc != "cancelled" || es[2].Dur != 40*time.Millisecond {
		t.Fatalf("entry 2: %+v", es[2])
	}
	if es[3].Name != "label.strip" {
		t.Fatalf("entry 3: %+v", es[3])
	}
	if es[4].Name != "junk" {
		t.Fatalf("entry 4: %+v", es[4])
	}
}

// FuzzParseServerTiming: no header panics the parser or the graft, and
// none yields more entries, or deeper ones, than the caps allow.
func FuzzParseServerTiming(f *testing.F) {
	f.Add(`queue;dur=0.5, decode;dur=1.25, label;dur=40;desc=cancelled, label.strip;dur=20, junk, ;dur=3`)
	f.Add(`fanout.strip.attempt.label.strip;dur=1;desc="busy", a..b;dur=NaN;dur=-1e400;;=;desc`)
	f.Add(strings.Repeat("a.", maxTimingDepth) + "b;dur=1, c;dur=2")
	f.Add(strings.Repeat("s;dur=1,", maxTimingEntries+1))
	f.Fuzz(func(t *testing.T, h string) {
		es := ParseServerTiming(h)
		if len(es) > maxTimingEntries {
			t.Fatalf("%d entries, cap %d", len(es), maxTimingEntries)
		}
		for _, e := range es {
			if e.Name == "" || strings.Count(e.Name, ".") >= maxTimingDepth {
				t.Fatalf("entry %q kept", e.Name)
			}
		}
		tr := New("fuzz", "label", stubClock(time.Millisecond))
		tr.Root().Graft(es)
		tr.Finish()
		_ = tr.ServerTiming()
	})
}

// TestGraftRebuildsTree: a backend's flat Server-Timing grafts back
// into a nested tree, repeated strip entries landing as siblings, and
// the merged trace renders both tiers with the attempt prefix.
func TestGraftRebuildsTree(t *testing.T) {
	tr := New("req-2", "label", stubClock(time.Millisecond))
	att := tr.Root().Child("attempt")
	att.Graft(ParseServerTiming("queue;dur=1, label;dur=10, label.strip;dur=4, label.strip;dur=5, label.stitch;dur=1, encode;dur=2"))
	att.End()
	tr.Finish()

	snap := tr.Snapshot()
	a := snap.Root.Children[0]
	if len(a.Children) != 3 {
		t.Fatalf("attempt children: %+v", a.Children)
	}
	lbl := a.Children[1]
	if lbl.Name != "label" || len(lbl.Children) != 3 {
		t.Fatalf("grafted label subtree: %+v", lbl)
	}
	if !lbl.Remote || lbl.Children[0].Name != "strip" || lbl.Children[1].Name != "strip" || lbl.Children[2].Name != "stitch" {
		t.Fatalf("grafted label subtree: %+v", lbl)
	}
	st := tr.ServerTiming()
	for _, wantSub := range []string{"attempt.label.strip;dur=4", "attempt.label.strip;dur=5", "attempt.queue;dur=1", "attempt.encode;dur=2"} {
		if !strings.Contains(st, wantSub) {
			t.Fatalf("merged header %q missing %q", st, wantSub)
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.End()
	sp.EndErr(errors.New("x"))
	sp.Cancel()
	sp.Annotate("n")
	sp.Fail("f")
	sp.Event("e")
	sp.Graft([]Entry{{Name: "a", Dur: time.Second}})
	if c := sp.Child("child"); c != nil {
		t.Fatal("nil span spawned a real child")
	}
	if sp.Duration() != 0 || sp.Name() != "" || sp.Status() != StatusOK || sp.Trace() != nil {
		t.Fatal("nil span accessors not zero")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context carries span %v", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil ctx is the no-trace fast path
		t.Fatalf("nil context carries span %v", got)
	}
}

func TestContextCarriesSpan(t *testing.T) {
	tr := New("req-3", "label", stubClock(time.Millisecond))
	ctx := ContextWith(context.Background(), tr.Root())
	if got := FromContext(ctx); got != tr.Root() {
		t.Fatalf("FromContext = %v", got)
	}
}

func TestStatusesAndEvents(t *testing.T) {
	tr := New("req-4", "label", stubClock(time.Millisecond))
	a := tr.Root().Child("attempt")
	a.Cancel()
	b := tr.Root().Child("attempt")
	b.EndErr(context.Canceled)
	c := tr.Root().Child("attempt")
	c.EndErr(context.DeadlineExceeded)
	tr.Root().Event("no-backend")
	tr.Root().Fail("five hundred")
	tr.Finish()
	if a.Status() != StatusCancelled || b.Status() != StatusCancelled || c.Status() != StatusError {
		t.Fatalf("statuses: %q %q %q", a.Status(), b.Status(), c.Status())
	}
	if tr.Status() != StatusError {
		t.Fatalf("root status %q", tr.Status())
	}
	snap := tr.Snapshot()
	ev := snap.Root.Children[3]
	if ev.Name != "no-backend" || ev.DurMS != 0 {
		t.Fatalf("event snapshot: %+v", ev)
	}
}

// TestConcurrentSpans drives child creation and ending from many
// goroutines — the strip fan-out shape — under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := New("req-5", "label", nil)
	run := tr.Root().Child("label")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := run.Child("strip")
			sp.Annotate(fmt.Sprintf("s=%d", i))
			if i%3 == 0 {
				sp.Cancel()
			} else {
				sp.End()
			}
			_ = tr.ServerTiming() // render concurrently with writes
		}(i)
	}
	wg.Wait()
	run.End()
	tr.Finish()
	snap := tr.Snapshot()
	if n := len(snap.Root.Children[0].Children); n != 32 {
		t.Fatalf("%d strip spans, want 32", n)
	}
}

// TestRingEvictionDeterministic pins all three shelves' eviction
// order: recent and errored are FIFOs, slowest is duration-descending
// with stable ties (earlier arrival outranks an equally slow
// latecomer).
func TestRingEvictionDeterministic(t *testing.T) {
	r := NewRing(3, 2, 2)
	mk := func(id string, dur time.Duration, fail bool) *Trace {
		// New reads the clock once (root start), Finish once (root end),
		// so a step of dur yields exactly that duration.
		tr := New(id, "label", stubClock(dur))
		if fail {
			tr.Root().Fail("x")
		}
		tr.Finish()
		return tr
	}
	r.Observe(mk("a", 10*time.Millisecond, false))
	r.Observe(mk("b", 30*time.Millisecond, true))
	r.Observe(mk("c", 30*time.Millisecond, false))
	r.Observe(mk("d", 20*time.Millisecond, true))
	r.Observe(mk("e", 40*time.Millisecond, false))

	snap := r.Snapshot()
	ids := func(ts []TraceSnapshot) string {
		var out []string
		for _, t := range ts {
			out = append(out, t.ID)
		}
		return strings.Join(out, ",")
	}
	if got := ids(snap.Recent); got != "e,d,c" {
		t.Fatalf("recent = %s, want e,d,c", got)
	}
	// b and c tie at 30ms: b arrived first, keeps rank; e (40ms) bumps c.
	if got := ids(snap.Slowest); got != "e,b" {
		t.Fatalf("slowest = %s, want e,b", got)
	}
	if got := ids(snap.Errored); got != "d,b" {
		t.Fatalf("errored = %s, want d,b", got)
	}
}

func TestRingHandler(t *testing.T) {
	r := NewRing(0, 0, 0)
	tr := New("req-9", "label", stubClock(time.Millisecond))
	tr.Root().Child("decode").End()
	tr.Finish()
	r.Observe(tr)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	var snap RingSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json: %v\n%s", err, rec.Body.String())
	}
	if len(snap.Recent) != 1 || snap.Recent[0].ID != "req-9" || snap.Recent[0].Root.Children[0].Name != "decode" {
		t.Fatalf("snapshot: %+v", snap)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{"req-9", "decode", "recent (1)"} {
		if !strings.Contains(body, want) {
			t.Fatalf("html missing %q:\n%s", want, body)
		}
	}
}

func TestHistogramRendering(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5, 2.5})
	for _, v := range []float64{0.05, 0.1, 0.3, 3, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	h.WriteProm(&b, "x_seconds", `endpoint="label"`)
	want := `x_seconds_bucket{endpoint="label",le="0.1"} 2
x_seconds_bucket{endpoint="label",le="0.5"} 3
x_seconds_bucket{endpoint="label",le="2.5"} 3
x_seconds_bucket{endpoint="label",le="+Inf"} 5
x_seconds_sum{endpoint="label"} 103.45
x_seconds_count{endpoint="label"} 5
`
	if b.String() != want {
		t.Fatalf("render:\n got %q\nwant %q", b.String(), want)
	}
	var u strings.Builder
	NewHistogram(nil).WriteProm(&u, "y_seconds", "")
	if !strings.Contains(u.String(), `y_seconds_bucket{le="0.001"} 0`) || !strings.Contains(u.String(), "y_seconds_count 0") {
		t.Fatalf("unlabeled render:\n%s", u.String())
	}
}
