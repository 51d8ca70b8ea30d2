package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"slapcc/internal/obs"
)

// Daemon is the process shell slapd and slapfront share: the listener
// flags, the hardened http.Server, the private debug listener, and the
// signal-driven shutdown. NewDaemon registers the flags; Run serves once
// they are parsed.
type Daemon struct {
	name                                      string
	addr, debugAddr                           *string
	readHeader, readWait, writeWait, idleWait *time.Duration
	maxHeader                                 *int
}

// NewDaemon registers -addr (defaulting to addr), -debugaddr and the
// five slow-client hardening flags on fs, whose name prefixes the
// daemon's log lines.
func NewDaemon(fs *flag.FlagSet, addr string) *Daemon {
	return &Daemon{
		name:       fs.Name(),
		addr:       fs.String("addr", addr, "listen address (host:port; :0 picks a free port)"),
		debugAddr:  fs.String("debugaddr", "", "private debug listener for pprof and /debug/requests (e.g. 127.0.0.1:6060; empty disables; keep it off public interfaces)"),
		readHeader: fs.Duration("readheadertimeout", 5*time.Second, "time allowed to read a request's headers"),
		readWait:   fs.Duration("readtimeout", 2*time.Minute, "time allowed to read a whole request"),
		writeWait:  fs.Duration("writetimeout", 2*time.Minute, "time allowed to write a response"),
		idleWait:   fs.Duration("idletimeout", 2*time.Minute, "keep-alive idle connection timeout"),
		maxHeader:  fs.Int("maxheaderbytes", 1<<20, "max request header bytes"),
	}
}

// Run serves h on -addr and, when -debugaddr is set, obs.DebugMux over
// the traces handler on the private debug listener, logging each bound
// address to out (the public one followed by about). ready, if not nil,
// receives the public address once it is up — the test hook, and handy
// for scripts using -addr :0. Run blocks until a signal or a serve
// error. On a signal it runs drain (nil skips it), then shuts the
// listener down, both within grace.
func (d *Daemon) Run(out io.Writer, signals <-chan os.Signal, ready func(addr string), h, traces http.Handler, about string, drain func(context.Context) error, grace time.Duration) error {
	ln, err := net.Listen("tcp", *d.addr)
	if err != nil {
		return err
	}
	// The timeouts harden the listener against slow-loris clients: a
	// connection that trickles its headers or body is cut off instead of
	// pinning a goroutine (and, on slapd, an admission slot) forever.
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: *d.readHeader,
		ReadTimeout:       *d.readWait,
		WriteTimeout:      *d.writeWait,
		IdleTimeout:       *d.idleWait,
		MaxHeaderBytes:    *d.maxHeader,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(out, "%s: listening on %s (%s)\n", d.name, ln.Addr(), about)
	if *d.debugAddr != "" {
		dln, err := net.Listen("tcp", *d.debugAddr)
		if err != nil {
			hs.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		dhs := &http.Server{Handler: obs.DebugMux(traces), ReadHeaderTimeout: *d.readHeader}
		defer dhs.Close()
		go dhs.Serve(dln)
		fmt.Fprintf(out, "%s: debug listening on %s\n", d.name, dln.Addr())
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err
	case <-signals:
	}

	fmt.Fprintf(out, "%s: shutting down...\n", d.name)
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if drain != nil {
		if err := drain(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Fprintf(out, "%s: drained\n", d.name)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Fprintf(out, "%s: stopped, bye\n", d.name)
	return nil
}
