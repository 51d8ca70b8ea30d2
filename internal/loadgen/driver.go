package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/obs"
	"slapcc/internal/stats"
)

// Client is a service client whose transport counts every 429 answer,
// so a report shows how often admission pushed back even when retries
// absorbed it.
type Client struct {
	*client.Client
	seen429 *atomic.Int64
}

type counting429 struct {
	http.RoundTripper
	n atomic.Int64
}

func (c *counting429) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.RoundTripper.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		c.n.Add(1)
	}
	return resp, err
}

// NewClient returns a Client for url that retries 429s and transient
// transport failures up to retries times, waiting at most wait per
// retry; timeout bounds each HTTP exchange (0 = no bound).
func NewClient(url string, retries int, wait, timeout time.Duration) *Client {
	rt := &counting429{RoundTripper: http.DefaultTransport.(*http.Transport).Clone()}
	hc := &http.Client{Transport: rt, Timeout: timeout}
	return &Client{
		Client:  client.New(url, client.WithHTTPClient(hc), client.WithMaxRetries(retries), client.WithMaxRetryWait(wait)),
		seen429: &rt.n,
	}
}

// Tally counts requests by how they ended.
type Tally struct {
	OK       int
	Shed429  int // the admission queue was full
	Shed503  int // no capacity: draining, or no backend left
	Deadline int // a 504, or the request's own context deadline
	Other    int
}

// Total is the number of requests tallied.
func (t Tally) Total() int { return t.OK + t.Shed429 + t.Shed503 + t.Deadline + t.Other }

// Failed is the number of requests that did not succeed.
func (t Tally) Failed() int { return t.Total() - t.OK }

// count files err under its outcome and reports whether that outcome
// is one a service may give under load: success, shedding, or an
// expired deadline.
func (t *Tally) count(err error) (explained bool) {
	var se *client.StatusError
	status := errors.As(err, &se)
	switch {
	case err == nil:
		t.OK++
	case status && se.Code == http.StatusTooManyRequests:
		t.Shed429++
	case status && se.Code == http.StatusServiceUnavailable:
		t.Shed503++
	case status && se.Code == http.StatusGatewayTimeout, errors.Is(err, context.DeadlineExceeded):
		t.Deadline++
	default:
		t.Other++
		return false
	}
	return true
}

// Burst fires n requests behind one release barrier, so the arrivals
// genuinely exceed admission capacity, and tallies the answers. c must
// not retry: a retried 429 would hide the shedding the burst observes.
// Each request is a bare label of a corpus frame (no labels, no
// strip-mining, default cost), the cheapest answer, so the tally
// measures admission rather than work.
func Burst(ctx context.Context, c *client.Client, frames []Frame, n int) Tally {
	var (
		mu      sync.Mutex
		t       Tally
		wg      sync.WaitGroup
		release = make(chan struct{})
	)
	for i := 0; i < n; i++ {
		f := &frames[i%len(frames)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			_, err := c.LabelData(ctx, f.Data, f.CType, api.Params{Format: f.Params.Format})
			mu.Lock()
			t.count(err)
			mu.Unlock()
		}()
	}
	close(release)
	wg.Wait()
	return t
}

// Loop is one closed-loop run: Concurrency workers pull frames off a
// shared counter, round-robin over Frames, until Count requests have
// been fired or, when Stop is set, until Stop closes.
type Loop struct {
	Client      *Client
	Frames      []Frame
	Concurrency int
	Count       int
	Stop        <-chan struct{}
	// Deadline, when set, bounds each request, retries included, with
	// a context deadline the client forwards as X-Slap-Deadline-Ms.
	Deadline time.Duration
}

// Validate rejects a loop that would verify nothing: no workers, or a
// count-mode loop with no requests to count.
func (l *Loop) Validate() error {
	if l.Concurrency < 1 {
		return fmt.Errorf("loadgen: concurrency %d, want at least 1 client", l.Concurrency)
	}
	if l.Stop == nil && l.Count < 1 {
		return fmt.Errorf("loadgen: frames %d, want at least 1 request", l.Count)
	}
	return nil
}

// Stats is what a closed loop observed.
type Stats struct {
	Elapsed  time.Duration
	Outcomes Tally // every request fired, by how it ended
	// FirstError is the first failed request; FirstOther the first one
	// that was neither shed nor out of time.
	FirstError, FirstOther error
	Seen429                int64 // 429s the client saw, warmup and absorbed retries included
	// BytesSent, Pixels, Latency (wall times) and Stages (the server's
	// stage times, grafted from Server-Timing) cover successes only.
	BytesSent, Pixels int64
	Latency           []time.Duration
	Stages            map[string][]time.Duration
	// Verified counts answers checked against a reference.
	Verified, Mismatches int
	FirstMismatch        error
	CheckTime            time.Duration
	// TraceBreaches counts successes whose stage breakdown was missing
	// or summed past the request's wall time.
	TraceBreaches int
	FirstBreach   string
}

// Run warms the service with one uncounted request per worker, then
// drives the timed loop.
func (l *Loop) Run(ctx context.Context) (*Stats, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(l.Frames) == 0 {
		return nil, fmt.Errorf("loadgen: no frames to send")
	}
	for i := 0; i < min(l.Concurrency, len(l.Frames)); i++ {
		f := &l.Frames[i]
		if _, _, err := f.send(ctx, l.Client.Client); err != nil {
			return nil, fmt.Errorf("warmup %s: %w", f.Name, err)
		}
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		st   = &Stats{Stages: map[string][]time.Duration{}}
	)
	start := time.Now()
	for g := 0; g < l.Concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-l.Stop: // a nil Stop never fires
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if l.Stop == nil && i >= l.Count {
					return
				}
				l.fire(ctx, &l.Frames[i%len(l.Frames)], st, &mu)
			}
		}()
	}
	wg.Wait()
	st.Elapsed = time.Since(start)
	st.Seen429 = l.Client.seen429.Load()
	return st, nil
}

// fire sends one traced request, checks the answer, and records the
// outcome in st under mu.
func (l *Loop) fire(ctx context.Context, f *Frame, st *Stats, mu *sync.Mutex) {
	if l.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, l.Deadline)
		defer cancel()
	}
	// The trace makes the client graft the server's Server-Timing
	// breakdown under it; its top-level spans are the server's stages.
	tr := obs.New("", f.Name, nil)
	t0 := time.Now()
	resp, perPixel, err := f.send(obs.ContextWith(ctx, tr.Root()), l.Client.Client)
	wall := time.Since(t0)
	tr.Finish()
	var mismatch error
	var check time.Duration
	if err == nil && f.Want != nil {
		v0 := time.Now()
		mismatch = f.Want.Check(resp, perPixel)
		check = time.Since(v0)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", f.Name, err)
	}
	stages := tr.Stages()

	mu.Lock()
	defer mu.Unlock()
	if !st.Outcomes.count(err) && st.FirstOther == nil {
		st.FirstOther = err
	}
	if err != nil {
		if st.FirstError == nil {
			st.FirstError = err
		}
		return
	}
	st.Latency = append(st.Latency, wall)
	for _, s := range stages {
		st.Stages[s.Name] = append(st.Stages[s.Name], s.Dur)
	}
	st.BytesSent += int64(len(f.Data))
	st.Pixels += f.Pixels
	if f.Want != nil {
		st.Verified++
		st.CheckTime += check
		if mismatch != nil {
			st.Mismatches++
			if st.FirstMismatch == nil {
				st.FirstMismatch = fmt.Errorf("%s: %w", f.Name, mismatch)
			}
		}
	}
	if msg := auditTrace(stages, wall); msg != "" {
		st.TraceBreaches++
		if st.FirstBreach == "" {
			st.FirstBreach = f.Name + ": " + msg
		}
	}
}

// auditTrace cross-checks a success's grafted stages against its wall
// time: the service always emits the breakdown on success, and each
// top-level stage is a disjoint slice of the server's handling, so
// their sum cannot exceed the wall time the client observed. The
// margin absorbs rounding (durations ride the header in milliseconds)
// and scheduling slop.
func auditTrace(stages []obs.Stage, wall time.Duration) string {
	if len(stages) == 0 {
		return "success with no Server-Timing stages"
	}
	var sum time.Duration
	for _, st := range stages {
		sum += st.Dur
	}
	if limit := wall + wall/10 + 25*time.Millisecond; sum > limit {
		return fmt.Sprintf("stage sum %v exceeds wall %v", sum, wall)
	}
	return ""
}

// Dist is a distribution of durations in milliseconds. Percentiles
// take the floor-index sample (stats.Percentile).
type Dist struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

func dist(ds []time.Duration) Dist {
	if len(ds) == 0 {
		return Dist{}
	}
	ms := make([]float64, len(ds))
	var sum time.Duration
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
		sum += d
	}
	return Dist{
		P50: stats.Percentile(ms, 0.50), P95: stats.Percentile(ms, 0.95), P99: stats.Percentile(ms, 0.99),
		Mean: float64(sum/time.Duration(len(ds))) / float64(time.Millisecond),
		Max:  stats.Percentile(ms, 1), N: len(ds),
	}
}

// LatencyMS is the distribution of the successes' wall times.
func (s *Stats) LatencyMS() Dist { return dist(s.Latency) }

// ServerStages is each server stage's distribution; nil when no stage
// was seen.
func (s *Stats) ServerStages() map[string]Dist {
	if len(s.Stages) == 0 {
		return nil
	}
	out := make(map[string]Dist, len(s.Stages))
	for name, ds := range s.Stages {
		out[name] = dist(ds)
	}
	return out
}

// Rates are successful frames, wire MB and pixel MB per second.
func (s *Stats) Rates() (framesPerS, wireMBPerS, pixelMBPerS float64) {
	secs := s.Elapsed.Seconds()
	return float64(s.Outcomes.OK) / secs, float64(s.BytesSent) / 1e6 / secs, float64(s.Pixels) / 1e6 / secs
}
