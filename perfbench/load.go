package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slapcc/client"
	"slapcc/internal/obs"
)

// phase collects what one measured load phase saw. Latencies and waits
// are in milliseconds.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	attempted int
	failed    int
	strips    int // slapfront strip jobs the attempted requests make, see request.strips
	firstErr  error
	lat       []float64 // answered untraced requests: due (open loop) or send (closed loop) to answer
	latTraced []float64 // answered requests that carried a client trace
	late      []float64 // generator delay before each send, see runOpen and runClosed
	spans     map[string][]float64
	elapsed   time.Duration
}

func newPhase() *phase { return &phase{start: time.Now(), spans: map[string][]float64{}} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// send issues one request and records its outcome. The clock stops when
// the client has the decoded answer; the check against the reference
// runs after it, off the measured path.
func (ph *phase) send(ctx context.Context, c *client.Client, r *request, traced bool, due time.Time) {
	var tr *obs.Trace
	if traced {
		tr = obs.New("", "bench", nil)
		ctx = obs.ContextWith(ctx, tr.Root())
	}
	resp, err := c.LabelData(ctx, r.data, r.ctype, r.params)
	lat := ms(time.Since(due))
	if err == nil {
		err = r.ref.check(resp, r.params)
	}
	var spans map[string][]float64
	if tr != nil {
		tr.Finish()
		spans = collectSpans(tr.Snapshot().Root)
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.strips += r.strips()
	if err != nil {
		ph.failed++
		if ph.firstErr == nil {
			ph.firstErr = fmt.Errorf("%dx%d %s request: %w", r.ref.w, r.ref.h, r.params.Query().Encode(), err)
		}
		return
	}
	if traced {
		ph.latTraced = append(ph.latTraced, lat)
	} else {
		ph.lat = append(ph.lat, lat)
	}
	for name, ds := range spans {
		ph.spans[name] = append(ph.spans[name], ds...)
	}
}

// collectSpans gathers, from a request's client-side trace with every
// tier's Server-Timing grafted in, the durations of the spans the
// per-layer metrics read: slapd's admission "queue" and the labeler
// pool's "pool" wait at any depth, and slapfront's own top-level
// "fanout" and "stitch" stages.
func collectSpans(root obs.SpanSnapshot) map[string][]float64 {
	out := map[string][]float64{}
	var walk func(sp obs.SpanSnapshot, depth int)
	walk = func(sp obs.SpanSnapshot, depth int) {
		switch {
		case sp.Name == "queue" || sp.Name == "pool":
			out[sp.Name] = append(out[sp.Name], sp.DurMS)
		case depth == 1 && (sp.Name == "fanout" || sp.Name == "stitch"):
			out["front."+sp.Name] = append(out["front."+sp.Name], sp.DurMS)
		}
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}

// runOpen sends reqs on a fixed schedule of rate requests per second,
// each at its due time whether or not earlier ones have answered, and
// times each from its due time, so a stall is charged to every request
// it delays. late records how far behind schedule each send left. With
// tracing on, every other request carries a client trace.
func runOpen(ctx context.Context, c *client.Client, reqs []*request, rate float64, tracing bool) *phase {
	ph := newPhase()
	var wg sync.WaitGroup
	for i, r := range reqs {
		due := ph.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := ms(time.Since(due))
		ph.mu.Lock()
		ph.late = append(ph.late, late)
		ph.mu.Unlock()
		wg.Add(1)
		go func(r *request, traced bool) {
			defer wg.Done()
			ph.send(ctx, c, r, traced, due)
		}(r, tracing && i%2 == 0)
	}
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	return ph
}

// runClosed drives conns workers, each sending its next request as soon
// as the previous one is answered and checked, for dur. With distinct
// set every request is sent at most once and the phase also ends when
// reqs run out; otherwise the workers cycle through reqs. late records
// the generator's own gap before each send: since the previous answer,
// or since the phase started. With tracing on, every other request
// carries a client trace, alternating between cycles so each frame is
// traced half the time.
func runClosed(ctx context.Context, c *client.Client, reqs []*request, conns int, dur time.Duration, distinct, tracing bool) *phase {
	ph := newPhase()
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := ph.start.Add(dur)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := ph.start
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if distinct && i >= len(reqs) {
					return
				}
				sent := time.Now()
				ph.mu.Lock()
				ph.late = append(ph.late, ms(sent.Sub(prev)))
				ph.mu.Unlock()
				ph.send(ctx, c, reqs[i%len(reqs)], tracing && (i+i/len(reqs))%2 == 0, sent)
				prev = time.Now()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	return ph
}
