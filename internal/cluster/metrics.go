package cluster

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"slapcc/internal/server"
)

// registry is the rest of slapfront's metrics, rendered after the
// request telemetry it shares with slapd (server.Telemetry):
// per-backend job outcomes, the robustness counters that tell the
// failure story — retries, re-routed strips, local fallbacks, breaker
// openings, hedges — and the backend gauges.
type registry struct {
	mu        sync.Mutex
	jobs      map[jobKey]int64
	retries   int64
	fallbacks int64
	opened    int64
	hedges    int64
	hedgeWins int64

	// jobLats is a ring of the last latRingSize successful job
	// latencies in seconds; jobLatN counts all recorded. The hedge
	// timer reads its p95, so hedges fire only for tail stragglers.
	jobLats [latRingSize]float64
	jobLatN int
}

const latRingSize = 128

type jobKey struct {
	backend string
	outcome string // ok | error | busy
}

func newRegistry() *registry {
	return &registry{jobs: make(map[jobKey]int64)}
}

func (g *registry) addJob(backend, outcome string) {
	g.mu.Lock()
	g.jobs[jobKey{backend, outcome}]++
	g.mu.Unlock()
}

func (g *registry) addRetry()    { g.mu.Lock(); g.retries++; g.mu.Unlock() }
func (g *registry) addFallback() { g.mu.Lock(); g.fallbacks++; g.mu.Unlock() }
func (g *registry) addOpened()   { g.mu.Lock(); g.opened++; g.mu.Unlock() }
func (g *registry) addHedge()    { g.mu.Lock(); g.hedges++; g.mu.Unlock() }
func (g *registry) addHedgeWin() { g.mu.Lock(); g.hedgeWins++; g.mu.Unlock() }

func (g *registry) addJobLatency(d time.Duration) {
	g.mu.Lock()
	g.jobLats[g.jobLatN%latRingSize] = d.Seconds()
	g.jobLatN++
	g.mu.Unlock()
}

// jobP95 is the 95th percentile of the recorded job-latency ring; zero
// until any job has completed.
func (g *registry) jobP95() time.Duration {
	g.mu.Lock()
	n := g.jobLatN
	if n > latRingSize {
		n = latRingSize
	}
	lats := make([]float64, n)
	copy(lats, g.jobLats[:n])
	g.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(lats)
	idx := n * 95 / 100
	if idx >= n {
		idx = n - 1
	}
	return time.Duration(lats[idx] * float64(time.Second))
}

// backendGauge is one backend's live state at render time.
type backendGauge struct {
	name        string
	state       breakerState
	probeOK     bool
	outstanding int
}

func (g *registry) render(w io.Writer, backends []backendGauge) {
	g.mu.Lock()
	defer g.mu.Unlock()

	server.WriteFamily(w, "slapfront_jobs_total", "counter", "Strip jobs dispatched to backends, by outcome.")
	jkeys := make([]jobKey, 0, len(g.jobs))
	for k := range g.jobs {
		jkeys = append(jkeys, k)
	}
	sort.Slice(jkeys, func(i, j int) bool {
		if jkeys[i].backend != jkeys[j].backend {
			return jkeys[i].backend < jkeys[j].backend
		}
		return jkeys[i].outcome < jkeys[j].outcome
	})
	for _, k := range jkeys {
		fmt.Fprintf(w, "slapfront_jobs_total{backend=%q,outcome=%q} %d\n", k.backend, k.outcome, g.jobs[k])
	}

	server.WriteScalar(w, "slapfront_job_retries_total", "counter", "Job attempts re-routed after a failure or busy signal.", g.retries)
	server.WriteScalar(w, "slapfront_local_fallbacks_total", "counter", "Jobs executed locally because no backend would take them.", g.fallbacks)
	server.WriteScalar(w, "slapfront_breaker_opened_total", "counter", "Circuit breaker open transitions.", g.opened)
	server.WriteScalar(w, "slapfront_hedges_total", "counter", "Duplicate strip jobs issued for straggling attempts.", g.hedges)
	server.WriteScalar(w, "slapfront_hedge_wins_total", "counter", "Hedged duplicates that answered before the primary.", g.hedgeWins)

	server.WriteFamily(w, "slapfront_backend_up", "gauge", "1 while the backend is routable (breaker closed and last probe healthy).")
	for _, b := range backends {
		up := 0
		if b.state == breakerClosed && b.probeOK {
			up = 1
		}
		fmt.Fprintf(w, "slapfront_backend_up{backend=%q} %d\n", b.name, up)
	}
	server.WriteFamily(w, "slapfront_backend_breaker_state", "gauge", "Breaker state: 0 closed, 1 half-open, 2 open.")
	for _, b := range backends {
		v := 0
		switch b.state {
		case breakerHalfOpen:
			v = 1
		case breakerOpen:
			v = 2
		}
		fmt.Fprintf(w, "slapfront_backend_breaker_state{backend=%q} %d\n", b.name, v)
	}
	server.WriteFamily(w, "slapfront_backend_outstanding", "gauge", "Jobs in flight per backend.")
	for _, b := range backends {
		fmt.Fprintf(w, "slapfront_backend_outstanding{backend=%q} %d\n", b.name, b.outstanding)
	}
}
