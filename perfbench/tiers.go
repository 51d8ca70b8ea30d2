package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"slapcc/client"
	"slapcc/internal/cluster"
	"slapcc/internal/server"
)

// daemon is one in-process tier behind a real loopback TCP listener:
// a slapd (server.Server) or a slapfront (cluster.Coordinator).
type daemon struct {
	URL   string
	http  *http.Server
	slapd *server.Server
	front *cluster.Coordinator
	done  chan struct{} // closed when Serve returns
}

func serve(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{URL: "http://" + ln.Addr().String(), http: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// bootSlapd starts a slapd with the daemon's default configuration.
func bootSlapd() (*daemon, error) {
	srv := server.New(server.Config{Logf: func(string, ...any) {}})
	d, err := serve(srv)
	if err != nil {
		return nil, err
	}
	d.slapd = srv
	return d, nil
}

// bootFront starts a slapfront over backends with the slapfront
// daemon's default hedging and probing.
func bootFront(backends ...*daemon) (*daemon, error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.URL
	}
	co := cluster.New(cluster.Config{
		Backends:      urls,
		ProbeInterval: 2 * time.Second,
		HedgeMax:      2,
	})
	d, err := serve(co)
	if err != nil {
		co.Close()
		return nil, err
	}
	d.front = co
	return d, nil
}

// Close drains a slapd's admitted requests, then closes the listener
// and every connection at once and waits for the serve goroutine to
// exit. A graceful http.Server.Shutdown would wait up to five seconds
// for each connection a client opened but never used, which slapfront's
// hedging leaves behind.
func (d *daemon) Close() error {
	var err error
	if d.slapd != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = d.slapd.Shutdown(ctx)
		cancel()
	}
	if d.front != nil {
		d.front.Close()
	}
	err = errors.Join(err, d.http.Close())
	<-d.done
	return err
}

// stack is the set of tiers one workload (or the ladder) talks to:
// either one slapd, or a slapfront over two slapd backends.
type stack struct {
	all    []*daemon // shutdown order: front first
	target *daemon   // where requests go
}

func bootStack(withFront bool) (*stack, error) {
	s := &stack{}
	b1, err := bootSlapd()
	if err != nil {
		return nil, err
	}
	s.all = []*daemon{b1}
	s.target = b1
	if withFront {
		b2, err := bootSlapd()
		if err != nil {
			s.Close()
			return nil, err
		}
		front, err := bootFront(b1, b2)
		if err != nil {
			b2.Close()
			s.Close()
			return nil, err
		}
		s.all = []*daemon{front, b1, b2}
		s.target = front
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, d := range s.all {
		if err := waitHealthy(ctx, d.URL); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func waitHealthy(ctx context.Context, url string) error {
	c := client.New(url)
	for {
		if err := c.Healthz(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s did not become healthy: %w", url, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (s *stack) Close() error {
	var err error
	for _, d := range s.all {
		err = errors.Join(err, d.Close())
	}
	return err
}

// counters reads a daemon's /metrics text through c and sums each
// metric's samples over their labels.
func counters(ctx context.Context, c *client.Client) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	sums := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		sums[name] += v
	}
	return sums, nil
}

// loadClient returns a client for url that holds at most conns
// connections and never retries, so every refusal counts as a failure.
func loadClient(url string, conns int) *client.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithMaxRetries(0))
}
