// Command slapd serves connected-component labeling over HTTP: the
// production front end for the SLAP simulator's allocation-free core.
// Images (PNG, plain PBM, ASCII art, or the SLR1 raw wire format) are
// decoded under size limits, admitted through a bounded queue with 429
// backpressure, and labeled on a pool of warm arena-reusing labelers.
//
// Usage:
//
//	slapd -addr :8117 -workers 4 -queue 16
//	curl -s --data-binary @frame.png localhost:8117/v1/label | jq .components
//	curl -s localhost:8117/metrics
//
// SIGINT/SIGTERM drain gracefully: /healthz flips to 503 so load
// balancers stop routing, in-flight requests finish, then the process
// exits. See the api package for the wire contract and cmd/slapload for
// the matching load generator.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

func main() {
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, signals, nil); err != nil {
		fmt.Fprintln(os.Stderr, "slapd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal arrives, then drains.
// ready (optional) receives the bound address once the listener is up —
// the test hook, and handy for scripts using -addr :0.
func run(args []string, out io.Writer, signals <-chan os.Signal, ready func(addr string)) error {
	fs := flag.NewFlagSet("slapd", flag.ContinueOnError)
	d := server.NewDaemon(fs, ":8117")
	var (
		workers   = fs.Int("workers", 0, "labeler pool size (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "admitted requests allowed to wait beyond the workers (0 = 2x workers)")
		maxW      = fs.Int("maxwidth", 0, "max image width (0 = default)")
		maxH      = fs.Int("maxheight", 0, "max image height (0 = default)")
		maxPix    = fs.Int64("maxpixels", 0, "max image pixels (0 = default)")
		maxBody   = fs.Int64("maxbody", 0, "max request body bytes (0 = 64 MiB)")
		retry     = fs.Duration("retryafter", time.Second, "Retry-After hint on 429 responses")
		verify    = fs.Bool("verify", false, "cross-check every labeling against the sequential reference (conformance mode)")
		drainWait = fs.Duration("draintimeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		latTarget = fs.Duration("latencytarget", 0, "adaptive admission latency target (0 disables AIMD limiting)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := server.New(server.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		Limits:        imageio.Limits{MaxWidth: *maxW, MaxHeight: *maxH, MaxPixels: *maxPix},
		MaxBodyBytes:  *maxBody,
		RetryAfter:    *retry,
		Verify:        *verify,
		LatencyTarget: *latTarget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, "slapd: "+format+"\n", args...)
		},
	})
	about := fmt.Sprintf("workers %d, admission %d", srv.Workers(), srv.AdmissionCapacity())
	return d.Run(out, signals, ready, srv, srv.DebugHandler(), about, srv.Shutdown, *drainWait)
}
