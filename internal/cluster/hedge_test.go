package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"slapcc/api"
	"slapcc/internal/cluster/chaos"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

// hedgeCounters reads the hedge metrics white-box.
func hedgeCounters(co *Coordinator) (hedges, wins int64) {
	co.reg.mu.Lock()
	defer co.reg.mu.Unlock()
	return co.reg.hedges, co.reg.hedgeWins
}

func decodeBody(resp *http.Response, v any) error { return json.NewDecoder(resp.Body).Decode(v) }

// outstandingTotal sums every backend's in-flight gauge.
func outstandingTotal(co *Coordinator) int {
	total := 0
	for _, b := range co.backends {
		_, _, out, _ := b.snapshot()
		total += out
	}
	return total
}

// TestHedgeWinsOverStraggler pins the hedging payoff deterministically:
// one backend delays every request by p99-scale time, the other is
// healthy. With hedging on (the instant test Sleep fires the hedge
// timer immediately), the composed frame answers from the fast backend
// well before the straggler's delay elapses — first response wins, the
// loser's attempt is cancelled, and the outstanding gauges are drained
// before the response is even written.
func TestHedgeWinsOverStraggler(t *testing.T) {
	const stall = 500 * time.Millisecond
	ref := newSlapd(t)
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
	p := api.Params{ArrayWidth: 20, WantLabels: true} // 2 strips

	wantCode, want := post(t, ref.URL, api.PathLabel, p, img)
	start := time.Now()
	gotCode, got := post(t, front.URL, api.PathLabel, p, img)
	elapsed := time.Since(start)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status: local %d cluster %d (cluster body %s)", wantCode, gotCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("hedged response diverges:\nlocal:   %s\ncluster: %s", want, got)
	}
	if elapsed >= stall {
		t.Fatalf("composed frame took %v, the straggler's %v stall set the latency — hedge never won", elapsed, stall)
	}
	hedges, wins := hedgeCounters(co)
	if hedges < 1 || wins < 1 {
		t.Fatalf("hedges=%d wins=%d, want both ≥ 1", hedges, wins)
	}
	if out := outstandingTotal(co); out != 0 {
		t.Fatalf("outstanding gauges = %d after response, want 0", out)
	}
}

// TestHedgeCapBoundsAttempts: under fleet-wide slowness (every backend
// hangs), hedging must not amplify the overload — total upstream
// attempts stay bounded by RetryBudget primaries plus HedgeMax
// duplicates, and the request still answers via local fallback.
func TestHedgeCapBoundsAttempts(t *testing.T) {
	ref := newSlapd(t)
	mkHang := func() (*httptest.Server, *chaos.Proxy) {
		inner := server.New(server.Config{Workers: 2})
		proxy := chaos.NewProxy(inner, func(n int) chaos.Decision {
			return chaos.Decision{Mode: chaos.Hang}
		})
		srv := httptest.NewServer(proxy)
		t.Cleanup(srv.Close)
		t.Cleanup(proxy.Close) // LIFO: release hung requests before srv.Close waits
		return srv, proxy
	}
	b1, p1 := mkHang()
	b2, p2 := mkHang()

	const retryBudget, hedgeMax = 2, 2
	co, front := newFront(t, []string{b1.URL, b2.URL}, func(cfg *Config) {
		cfg.RetryBudget = retryBudget
		cfg.HedgeMax = hedgeMax
		cfg.JobTimeout = 50 * time.Millisecond
	})
	img := testImage(t)
	p := api.Params{WantLabels: true} // whole image: one job, every attempt visible

	wantCode, want := post(t, ref.URL, api.PathLabel, p, img)
	gotCode, got := post(t, front.URL, api.PathLabel, p, img)
	if wantCode != http.StatusOK || gotCode != http.StatusOK {
		t.Fatalf("status: local %d cluster %d (cluster body %s)", wantCode, gotCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("fallback response diverges:\nlocal:   %s\ncluster: %s", want, got)
	}
	total := p1.Requests() + p2.Requests()
	if total > retryBudget+hedgeMax {
		t.Fatalf("%d upstream attempts for one request, want ≤ %d (RetryBudget %d + HedgeMax %d)",
			total, retryBudget+hedgeMax, retryBudget, hedgeMax)
	}
	if total < retryBudget {
		t.Fatalf("%d upstream attempts, want ≥ the %d-attempt retry budget", total, retryBudget)
	}
	if out := outstandingTotal(co); out != 0 {
		t.Fatalf("outstanding gauges = %d after response, want 0", out)
	}
}

// TestHedgeLoserCancelled: the losing copy of a hedged job has its
// request context cancelled the moment the winner lands — observed from
// inside the loser's handler — and its slot is released before the
// coordinator answers. Runs under -race in CI with the rest of the
// cluster suite.
func TestHedgeLoserCancelled(t *testing.T) {
	cancelled := make(chan struct{}, 4)
	entered := make(chan struct{})
	var enterOnce sync.Once
	blocking := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server arms its client-disconnect watch;
		// with unread bytes buffered, r.Context() never fires on abort.
		io.Copy(io.Discard, r.Body)
		enterOnce.Do(func() { close(entered) })
		<-r.Context().Done()
		cancelled <- struct{}{}
	}))
	t.Cleanup(blocking.Close)
	ref := newSlapd(t)
	fast := newSlapd(t)

	co, front := newFront(t, []string{blocking.URL, fast.URL}, func(cfg *Config) {
		cfg.HedgeMax = 2
		// The hedge timer waits on Sleep: hold it until the primary is
		// inside its blocking handler, so the winner's cancellation
		// always reaches a handler that reports it.
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			select {
			case <-entered:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	img := testImage(t)
	p := api.Params{WantLabels: true}

	wantCode, want := post(t, ref.URL, api.PathLabel, p, img)
	gotCode, got := post(t, front.URL, api.PathLabel, p, img)
	if wantCode != http.StatusOK || gotCode != http.StatusOK || !bytes.Equal(want, got) {
		t.Fatalf("hedged request: status local %d cluster %d identical %v", wantCode, gotCode, bytes.Equal(want, got))
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing hedge's context was never cancelled")
	}
	if out := outstandingTotal(co); out != 0 {
		t.Fatalf("outstanding gauges = %d after response, want 0", out)
	}
	if _, wins := hedgeCounters(co); wins < 1 {
		t.Fatal("the hedge should have won against a never-answering primary")
	}
}

// TestHedgeBitIdenticalWhenBothComplete: with two healthy identical
// backends and the hedge timer firing instantly, both copies of a job
// routinely complete; whichever wins, the composed response stays
// byte-identical to a local slapd's, round after round.
func TestHedgeBitIdenticalWhenBothComplete(t *testing.T) {
	ref := newSlapd(t)
	b1, b2 := newSlapd(t), newSlapd(t)
	co, front := newFront(t, []string{b1.URL, b2.URL}, func(cfg *Config) {
		cfg.HedgeMax = 8
	})
	img := testImage(t)

	cases := []struct {
		path string
		p    api.Params
	}{
		{api.PathLabel, api.Params{ArrayWidth: 8, WantLabels: true}},
		{api.PathAggregate, api.Params{ArrayWidth: 8, Op: "min", Initial: "positions", WantLabels: true}},
	}
	for round := 0; round < 3; round++ {
		for _, tc := range cases {
			wantCode, want := post(t, ref.URL, tc.path, tc.p, img)
			gotCode, got := post(t, front.URL, tc.path, tc.p, img)
			if wantCode != http.StatusOK || gotCode != http.StatusOK {
				t.Fatalf("round %d %s: status local %d cluster %d", round, tc.path, wantCode, gotCode)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("round %d %s: hedged response diverges:\nlocal:   %s\ncluster: %s", round, tc.path, want, got)
			}
		}
		if out := outstandingTotal(co); out != 0 {
			t.Fatalf("round %d: outstanding gauges = %d, want 0", round, out)
		}
	}
}

// TestClusterDeadlineBudget: slapfront enforces X-Slap-Deadline-Ms at
// its own front door — a spent budget answers 504 (with the request ID
// in the payload) before any fan-out, and a caller-supplied request ID
// echoes back on success too.
func TestClusterDeadlineBudget(t *testing.T) {
	b := newSlapd(t)
	_, front := newFront(t, []string{b.URL}, nil)
	img := testImage(t)
	data, err := imageio.EncodeBytes(img, imageio.FormatRaw)
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodPost, front.URL+api.PathLabel, bytes.NewReader(data))
	req.Header.Set("Content-Type", string(imageio.FormatRaw.ContentType()))
	req.Header.Set(api.HeaderDeadlineMS, "0")
	req.Header.Set(api.HeaderRequestID, "spent-99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("spent budget: %d, want 504", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HeaderRequestID); got != "spent-99" {
		t.Fatalf("request ID echoed as %q", got)
	}
	var e api.ErrorResponse
	if err := decodeBody(resp, &e); err != nil || e.RequestID != "spent-99" {
		t.Fatalf("error payload %+v (err %v)", e, err)
	}

	// A live budget flows through to a normal answer, ID echoed.
	req, _ = http.NewRequest(http.MethodPost, front.URL+api.PathLabel, bytes.NewReader(data))
	req.Header.Set("Content-Type", string(imageio.FormatRaw.ContentType()))
	req.Header.Set(api.HeaderDeadlineMS, "60000")
	req.Header.Set(api.HeaderRequestID, "live-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live budget: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HeaderRequestID); got != "live-7" {
		t.Fatalf("request ID on success echoed as %q", got)
	}
}
