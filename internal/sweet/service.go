package sweet

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/benchfmt"
	"slapcc/internal/loadgen"
	"slapcc/internal/obs"
	"slapcc/internal/server"
)

// daemon is an in-process slapd: the real server.Server behind a real
// TCP listener, plus the same localhost debug listener -debugaddr
// binds, so the harness profiles it exactly the way an operator would.
type daemon struct {
	srv      *server.Server
	main     *http.Server
	debug    *http.Server
	URL      string
	DebugURL string
}

// bootSlapd starts a daemon on ephemeral ports and waits for /healthz.
func bootSlapd(cfg server.Config) (*daemon, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return nil, err
	}
	d := &daemon{
		srv:      srv,
		main:     &http.Server{Handler: srv},
		debug:    &http.Server{Handler: obs.DebugMux(srv.DebugHandler())},
		URL:      "http://" + ln.Addr().String(),
		DebugURL: "http://" + dln.Addr().String(),
	}
	go d.main.Serve(ln)
	go d.debug.Serve(dln)
	c := client.New(d.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		if err := c.Healthz(ctx); err == nil {
			return d, nil
		}
		select {
		case <-ctx.Done():
			d.Close()
			return nil, fmt.Errorf("slapd did not become healthy: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (d *daemon) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.main.Shutdown(ctx)
	d.debug.Close()
	return err
}

// frames builds a scenario corpus: two images per size and format,
// seeded from the run's seed onward.
func frames(cfg Config, sizes []int, formats []string, params api.Params) ([]loadgen.Frame, error) {
	fs, _, err := loadgen.Corpus{
		Sizes: sizes, Formats: formats, PerSize: 2, Density: 0.5,
		Seed: cfg.Seed + 1, PerFormat: true, Params: params,
	}.Build()
	return fs, err
}

// loopCfg shapes one closed-loop drive of a daemon.
type loopCfg struct {
	prefix  string // canonical metric prefix, e.g. "steady"
	frames  int
	conc    int
	retries int // client retry budget for 429s
}

// measure runs the closed loop against d. Any request that still fails
// after retries fails the scenario — a benchmark that errors is not a
// measurement.
func measure(d *daemon, fs []loadgen.Frame, lc loopCfg) (*loadgen.Stats, error) {
	loop := loadgen.Loop{
		Client: loadgen.NewClient(d.URL, lc.retries, time.Second, 60*time.Second),
		Frames: fs, Concurrency: lc.conc, Count: lc.frames,
	}
	st, err := loop.Run(context.Background())
	if err != nil {
		return nil, err
	}
	if st.FirstError != nil {
		return nil, fmt.Errorf("request failed mid-loop: %w", st.FirstError)
	}
	return st, nil
}

// results is the canonical loop metric set plus the GC the loop
// induced, which is meaningful here because the daemon shares the
// harness's process.
func results(st *loadgen.Stats, prefix string) []benchfmt.Result {
	return append(st.Results(prefix),
		benchfmt.Result{Name: prefix + "/gc_collections", Unit: "count", Value: float64(st.GC.NumGC)},
		benchfmt.Result{Name: prefix + "/gc_pause_ms", Unit: "ms", Value: float64(st.GC.PauseTotal) / 1e6},
	)
}

// profiled wraps a loop with CPU + heap profile capture from the debug
// listener when cfg.ProfileDir is set — the pprof fetch runs while the
// loop does, like `go tool pprof http://...` against a live daemon.
func profiled(cfg Config, d *daemon, name string, run func() (*loadgen.Stats, error)) (*loadgen.Stats, error) {
	if cfg.ProfileDir == "" {
		return run()
	}
	if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
		return nil, err
	}
	secs := cfg.scale(5, 1)
	profErr := make(chan error, 1)
	profBody := make(chan []byte, 1)
	go func() {
		body, err := fetchBytes(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.DebugURL, secs))
		profBody <- body
		profErr <- err
	}()
	st, err := run()
	if err != nil {
		<-profErr // don't leak the fetch
		return nil, err
	}
	body := <-profBody
	if perr := <-profErr; perr != nil {
		return nil, fmt.Errorf("cpu profile capture: %w", perr)
	}
	if werr := os.WriteFile(filepath.Join(cfg.ProfileDir, name+".cpu.pb.gz"), body, 0o644); werr != nil {
		return nil, werr
	}
	heap, herr := fetchBytes(d.DebugURL + "/debug/pprof/heap")
	if herr != nil {
		return nil, fmt.Errorf("heap profile capture: %w", herr)
	}
	if werr := os.WriteFile(filepath.Join(cfg.ProfileDir, name+".heap.pb.gz"), heap, 0o644); werr != nil {
		return nil, werr
	}
	return st, nil
}

func fetchBytes(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// serviceLoop is the shared boot → corpus → profiled drive → results
// shape behind the simple service scenarios.
func serviceLoop(cfg Config, scfg server.Config, sizes []int, formats []string, params api.Params, lc loopCfg) ([]benchfmt.Result, error) {
	d, err := bootSlapd(scfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	fs, err := frames(cfg, sizes, formats, params)
	if err != nil {
		return nil, err
	}
	st, err := profiled(cfg, d, lc.prefix, func() (*loadgen.Stats, error) { return measure(d, fs, lc) })
	if err != nil {
		return nil, err
	}
	return results(st, lc.prefix), nil
}

// runSteady: the PR 4 steady-state shape — mixed frame sizes, raw+png,
// moderate concurrency against default workers.
func runSteady(cfg Config) ([]benchfmt.Result, error) {
	sizes := []int{64, 128, 256}
	if cfg.Short {
		sizes = []int{32, 64}
	}
	return serviceLoop(cfg, server.Config{},
		sizes, []string{"raw", "png"}, api.Params{},
		loopCfg{prefix: "steady", frames: cfg.scale(600, 40), conc: cfg.scale(4, 2), retries: 8})
}

// runBurst: concurrency far above the worker pool with a short queue;
// the client's retries absorb the shed 429s, measuring goodput under
// pressure.
func runBurst(cfg Config) ([]benchfmt.Result, error) {
	return serviceLoop(cfg,
		server.Config{Workers: 2, QueueDepth: 4},
		[]int{cfg.scale(128, 64)}, []string{"raw"}, api.Params{},
		loopCfg{prefix: "burst", frames: cfg.scale(300, 24), conc: 8, retries: 16})
}

// runStrip: strip-mined frames (array narrower than the image) through
// the service, the Section 4 composition path end to end.
func runStrip(cfg Config) ([]benchfmt.Result, error) {
	n, aw := 512, 128
	if cfg.Short {
		n, aw = 96, 32
	}
	return serviceLoop(cfg, server.Config{},
		[]int{n}, []string{"raw"}, api.Params{ArrayWidth: aw},
		loopCfg{prefix: "strip", frames: cfg.scale(60, 8), conc: 2, retries: 8})
}

// runOverload: the PR 4 overload shape — no retries, workers=1 queue=1,
// a burst bigger than capacity; the interesting numbers are how much
// was shed (429) versus served, all informational.
func runOverload(cfg Config) ([]benchfmt.Result, error) {
	d, err := bootSlapd(server.Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	// Frames big enough that one label outlasts the scheduler's
	// preemption slice: on a 1-core host that is what lets the rest of
	// the in-process burst arrive while a label is mid-flight, so the
	// admission bound is actually exercised.
	fs, err := frames(cfg, []int{cfg.scale(512, 256)}, []string{"raw"}, api.Params{})
	if err != nil {
		return nil, err
	}
	c := client.New(d.URL, client.WithMaxRetries(0))
	ctx := context.Background()
	// One uncounted request per distinct frame warms the connection
	// pool, so the released burst's arrivals genuinely exceed the
	// admission capacity of 2.
	for i := range fs {
		c.LabelData(ctx, fs[i].Data, fs[i].CType, fs[i].Params)
	}
	t := loadgen.Burst(ctx, c, fs, cfg.scale(64, 16))
	if bad := t.Failed() - t.Shed429; bad > 0 {
		return nil, fmt.Errorf("%d non-429 failures under overload", bad)
	}
	return t.Results(), nil
}

// runBatch: multipart batch endpoint throughput — many frames per
// round trip.
func runBatch(cfg Config) ([]benchfmt.Result, error) {
	d, err := bootSlapd(server.Config{})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	n := cfg.scale(128, 48)
	perBatch := cfg.scale(16, 4)
	batches := cfg.scale(12, 2)
	fs, _, err := loadgen.Corpus{Sizes: []int{n}, Formats: []string{"raw"}, PerSize: perBatch, Density: 0.5, Seed: cfg.Seed}.Build()
	if err != nil {
		return nil, err
	}
	frames := make([]client.Frame, len(fs))
	for i, f := range fs {
		frames[i] = client.Frame{Data: f.Data, ContentType: f.CType}
	}
	pixels := int64(n) * int64(n) * int64(perBatch)
	c := client.New(d.URL, client.WithMaxRetries(8))
	ctx := context.Background()
	if _, err := c.LabelBatch(ctx, frames, api.Params{}); err != nil {
		return nil, fmt.Errorf("warmup batch: %w", err)
	}
	gc0 := obs.ReadGC()
	start := time.Now()
	for b := 0; b < batches; b++ {
		if _, err := c.LabelBatch(ctx, frames, api.Params{}); err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
	}
	elapsed := time.Since(start)
	gc := obs.ReadGC().Delta(gc0)
	secs := elapsed.Seconds()
	return []benchfmt.Result{
		{Name: "batch/frames_per_s", Unit: "frames/s", Better: benchfmt.HigherIsBetter,
			Value: float64(batches*perBatch) / secs},
		{Name: "batch/pixel_mb_per_s", Unit: "MB/s", Better: benchfmt.HigherIsBetter,
			Value: float64(pixels*int64(batches)) / 1e6 / secs},
		{Name: "batch/frames_per_batch", Unit: "count", Value: float64(perBatch)},
		{Name: "batch/gc_collections", Unit: "count", Value: float64(gc.NumGC)},
	}, nil
}

// runCost: identical corpora served by cost=host and cost=bitserial —
// the PR 8 comparison, plus the derived ratio that gates the host
// engine's win.
func runCost(cfg Config) ([]benchfmt.Result, error) {
	d, err := bootSlapd(server.Config{})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	n := cfg.scale(1024, 128)
	count := cfg.scale(24, 4)
	var all []benchfmt.Result
	byPrefix := map[string]float64{}
	for _, cost := range []string{"host", "bitserial"} {
		prefix := "cost-" + cost
		fs, err := frames(cfg, []int{n}, []string{"raw"}, api.Params{Cost: cost})
		if err != nil {
			return nil, err
		}
		st, err := profiled(cfg, d, prefix, func() (*loadgen.Stats, error) {
			return measure(d, fs, loopCfg{prefix: prefix, frames: count, conc: 1, retries: 8})
		})
		if err != nil {
			return nil, fmt.Errorf("cost=%s: %w", cost, err)
		}
		res := results(st, prefix)
		all = append(all, res...)
		for _, r := range res {
			if r.Name == prefix+"/pixel_mb_per_s" {
				byPrefix[cost] = r.Value
			}
		}
	}
	if byPrefix["bitserial"] > 0 {
		all = append(all, benchfmt.Result{
			Name: "engine/host_over_bitserial", Unit: "x", Better: benchfmt.HigherIsBetter,
			Value: byPrefix["host"] / byPrefix["bitserial"],
			Note:  "host-engine pixel throughput over metered bit-serial simulation, identical requests",
		})
	}
	return all, nil
}
