package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"slapcc/client"
	"slapcc/internal/stats"
)

// config is one invocation of the benchmark.
type config struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	// setups is how many times the tiers are booted and warmed; setup_s
	// is the median.
	setups int
	// ladderBudget is how long a traced run spends on timed ladder
	// passes beyond the minimum three.
	ladderBudget time.Duration
	log          io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info lines are printed before the result, not part of it.
	info []string
	err  error // the first wrong or failed answer
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *result) count(ph *phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	if r.err == nil {
		r.err = ph.firstErr
	}
}

// run builds the workload's corpus and references, sets the tiers up,
// drives the measured phases and, when tracing, the ladder.
func run(cfg config) (*result, error) {
	w := cfg.workload
	t0 := time.Now()
	c, err := w.corpus(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("building corpus: %w", err)
	}
	fmt.Fprintf(cfg.log, "perfbench: %s corpus built in %.1fs\n", w.name, time.Since(t0).Seconds())

	// The memory peak covers set-up and the measured phases, from a
	// baseline of the live corpus with the corpus build's garbage returned.
	debug.FreeOSMemory()
	mem := startMemPeak()
	st, cl, setupS, err := setUp(w, c.warm, cfg.setups)
	if err != nil {
		mem.Stop()
		return nil, err
	}
	defer st.Close()

	res := &result{Metrics: map[string]metric{}}
	res.infof("nproc %d, GOMAXPROCS %d, seed %d", runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed)
	ctx := context.Background()
	var frontBefore map[string]float64
	if cfg.trace && w.front {
		if frontBefore, err = counters(ctx, cl); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	openDur, closedDur := w.phaseDurations(cfg.seconds)
	var latPh, thrPh *phase
	if w.rate > 0 {
		latPh = runOpen(ctx, cl, c.open, w.rate, cfg.trace)
		thrPh = runClosed(ctx, cl, c.measured, w.conns, closedDur, true, cfg.trace)
		res.count(latPh)
		res.infof("open loop: %d requests at %.0f/s over %.1fs, then capacity: %d connections for %.1fs",
			len(c.open), w.rate, openDur.Seconds(), w.conns, closedDur.Seconds())
	} else {
		latPh = runClosed(ctx, cl, c.measured, w.conns, closedDur, false, cfg.trace)
		thrPh = latPh
		res.infof("closed loop: %d connections over %d frames for %.1fs", w.conns, len(c.measured), closedDur.Seconds())
	}
	res.count(thrPh)
	memMB := mem.Stop()

	lat := latPh.lat
	res.infof("latency: %d untraced samples, tail = p%g", len(lat), 100*w.tail)
	if !cfg.trace {
		res.set("latency_p50_ms", stats.Percentile(lat, 0.50))
		res.set("latency_tail_ms", stats.Percentile(lat, w.tail))
		res.set("frames_per_s", float64(thrPh.attempted-thrPh.failed)/thrPh.elapsed.Seconds())
		res.set("mem_peak_mb", memMB)
		res.set("setup_s", setupS)
	} else {
		res.set("server.queue_wait_p99_ms", stats.Percentile(latPh.spans["queue"], 0.99))
		res.set("core.pool_wait_p99_ms", stats.Percentile(latPh.spans["pool"], 0.99))
		res.set("loadgen.late_p99_ms", stats.Percentile(latPh.late, 0.99))
		untraced, traced := stats.Percentile(lat, 0.5), stats.Percentile(latPh.latTraced, 0.5)
		res.set("trace.overhead_pct", 100*(traced-untraced)/untraced)
		if w.front {
			after, err := counters(ctx, cl)
			if err != nil {
				return nil, err
			}
			delta := func(name string) float64 { return after[name] - frontBefore[name] }
			res.infof("slapfront under load: fanout p50 %.3f ms, stitch p50 %.3f ms",
				stats.Percentile(latPh.spans["front.fanout"], 0.5), stats.Percentile(latPh.spans["front.stitch"], 0.5))
			res.infof("slapfront under load: %.3f backend attempts per strip over %d strips, %g of %g hedges won, %g local fallbacks",
				delta("slapfront_jobs_total")/float64(latPh.strips), latPh.strips,
				delta("slapfront_hedge_wins_total"), delta("slapfront_hedges_total"), delta("slapfront_local_fallbacks_total"))
		}
		t1 := time.Now()
		ladder, err := runLadder(c.ladder, cfg.ladderBudget)
		res.Attempted += len(c.ladder)
		if err != nil {
			res.Failed++
			if res.err == nil {
				res.err = err
			}
		}
		for name, v := range ladder {
			res.set(name, v)
		}
		res.infof("ladder: %d frames in %.1fs", len(c.ladder), time.Since(t1).Seconds())
	}
	if w.rate > 0 {
		late := stats.Percentile(latPh.late, 0.99)
		res.infof("open-loop generator late p99 %.3f ms", late)
		if late > 5 {
			res.infof("WARNING: the generator ran over 5 ms late at p99; this run's latencies are not valid")
		}
	}
	return res, nil
}

func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

// setUp boots the workload's tiers and warms them (connections, labeler
// arenas) with every warm request on the workload's own connections,
// setups times; all but the last stack are torn down. It returns the
// median set-up time in seconds.
func setUp(w *workload, warm []*request, setups int) (*stack, *client.Client, float64, error) {
	var times []float64
	var st *stack
	var cl *client.Client
	for k := 0; k < setups; k++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, nil, 0, err
			}
		}
		// Every set-up starts from a fresh collection cycle, so whether the
		// harness's own heap triggers one mid-set-up is not left to chance.
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = bootStack(w.front); err != nil {
			return nil, nil, 0, err
		}
		cl = loadClient(st.target.URL, w.conns)
		ph := runClosed(context.Background(), cl, warm, w.conns, time.Hour, true, false)
		times = append(times, time.Since(t0).Seconds())
		if ph.firstErr != nil {
			st.Close()
			return nil, nil, 0, fmt.Errorf("warm-up: %w", ph.firstErr)
		}
	}
	_, setupS, _ := quartiles(times)
	return st, cl, setupS, nil
}

// printResult writes one line per metric, then the result as the last
// line of out. A run is correct when no request failed.
func printResult(out io.Writer, res *result) error {
	res.Correct = res.Failed == 0
	for _, line := range res.info {
		fmt.Fprintln(out, "#", line)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-26s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if res.err != nil {
		fmt.Fprintf(out, "# FAILED: %d of %d requests; first: %v\n", res.Failed, res.Attempted, res.err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
