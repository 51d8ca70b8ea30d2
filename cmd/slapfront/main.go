// Command slapfront serves the slapd API in front of a fleet of slapd
// backends: each image is split into array-width strips, the strips
// fan out over the SLR1 wire format, and the responses are stitched
// with the exact seam merge a local strip-mined run performs — so a
// cluster answer is byte-identical to a single-machine answer.
//
// The point of the front end is surviving the fleet: per-job timeouts
// and retries with capped backoff, active health probes, per-backend
// circuit breakers, re-sharding a dead backend's strips across the
// survivors, and — with every backend down — degrading to local
// execution instead of going dark.
//
// Usage:
//
//	slapfront -addr :8118 -backends http://b1:8117,http://b2:8117,http://b3:8117
//	curl -s --data-binary @frame.png localhost:8118/v1/label | jq .components
//	curl -s localhost:8118/healthz | jq .
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slapcc/internal/cluster"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

func main() {
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, signals, nil); err != nil {
		fmt.Fprintln(os.Stderr, "slapfront:", err)
		os.Exit(1)
	}
}

// run starts the coordinator and blocks until a signal arrives. ready
// (optional) receives the bound address once the listener is up — the
// test hook, and handy for scripts using -addr :0.
func run(args []string, out io.Writer, signals <-chan os.Signal, ready func(addr string)) error {
	fs := flag.NewFlagSet("slapfront", flag.ContinueOnError)
	d := server.NewDaemon(fs, ":8118")
	var (
		backends    = fs.String("backends", "", "comma-separated slapd base URLs (empty = run everything locally)")
		jobTimeout  = fs.Duration("jobtimeout", 30*time.Second, "per-strip-job attempt timeout")
		retries     = fs.Int("retries", 4, "attempt budget per strip job before local fallback")
		backoff     = fs.Duration("backoff", 25*time.Millisecond, "base between-attempt backoff (doubles per attempt, jittered)")
		maxWait     = fs.Duration("maxwait", time.Second, "cap on any between-attempt wait")
		probe       = fs.Duration("probe", 2*time.Second, "active /healthz probe interval (0 disables probing)")
		probeWait   = fs.Duration("probetimeout", 2*time.Second, "per-probe timeout")
		breakFails  = fs.Int("breakerfails", 3, "consecutive failures that open a backend's breaker")
		cooldown    = fs.Duration("cooldown", 5*time.Second, "open-breaker cooldown before a half-open trial")
		concurrency = fs.Int("concurrency", 0, "strip jobs in flight per request (0 = 2 per backend)")
		maxW        = fs.Int("maxwidth", 0, "max image width (0 = default)")
		maxH        = fs.Int("maxheight", 0, "max image height (0 = default)")
		maxPix      = fs.Int64("maxpixels", 0, "max image pixels (0 = default)")
		maxBody     = fs.Int64("maxbody", 0, "max request body bytes (0 = 64 MiB)")
		hedgeDelay  = fs.Duration("hedgedelay", 50*time.Millisecond, "floor before a straggling strip job is hedged to a second backend (the observed job p95 raises it)")
		hedgeMax    = fs.Int("hedgemax", 2, "max hedged duplicates per request (0 disables hedging)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	co := cluster.New(cluster.Config{
		Backends:         urls,
		JobTimeout:       *jobTimeout,
		RetryBudget:      *retries,
		BackoffBase:      *backoff,
		BackoffMax:       *maxWait,
		ProbeInterval:    *probe,
		ProbeTimeout:     *probeWait,
		BreakerThreshold: *breakFails,
		BreakerCooldown:  *cooldown,
		JobConcurrency:   *concurrency,
		Limits:           imageio.Limits{MaxWidth: *maxW, MaxHeight: *maxH, MaxPixels: *maxPix},
		MaxBodyBytes:     *maxBody,
		HedgeDelay:       *hedgeDelay,
		HedgeMax:         *hedgeMax,
	})
	defer co.Close()
	about := fmt.Sprintf("%d backends", len(urls))
	return d.Run(out, signals, ready, co, co.DebugHandler(), about, nil, 30*time.Second)
}
