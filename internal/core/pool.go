package core

import (
	"context"
	"fmt"
	"runtime"

	"slapcc/internal/bitmap"
	"slapcc/internal/obs"
)

// The worker pool: one simulation runs on one goroutine (the simulated
// PEs keep their own virtual clocks, so host concurrency inside a frame
// would add nothing to fidelity). Independent requests are the better
// axis: a pool of worker labelers — one per core, each with its own
// warm arenas — runs whole simulations concurrently with no shared
// mutable state at all. A caller with a burst of its own frames needs
// no pool: one Labeler per goroutine does the same (see
// examples/videopipeline).

// LabelerPool shards runs across a fixed set of reusable
// Labelers, one checked out per call. Unlike a single Labeler it is
// safe for concurrent use: up to Workers() calls run truly in parallel,
// each on its own arenas, and further callers block for a free worker.
// Results and simulated metrics are bit-identical to a single Labeler's
// (every worker runs the same deterministic simulation).
type LabelerPool struct {
	opt     Options
	workers int
	free    chan *Labeler
}

// NewLabelerPool returns a pool of workers reusable labelers running
// under opt; workers ≤ 0 selects GOMAXPROCS.
func NewLabelerPool(opt Options, workers int) *LabelerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &LabelerPool{opt: opt, workers: workers, free: make(chan *Labeler, workers)}
	for i := 0; i < workers; i++ {
		p.free <- NewLabeler(opt)
	}
	return p
}

// Workers returns the pool size.
func (p *LabelerPool) Workers() int { return p.workers }

// Idle returns how many workers are free right now. The value is a
// racy snapshot — by the time the caller acts another goroutine may
// have taken or returned a worker — so it is a load-shedding signal
// (export it as a gauge, compare against Workers()), not a reservation.
func (p *LabelerPool) Idle() int { return len(p.free) }

// runOn runs fn on a checked-out worker and returns the worker via
// defer so a panicking labeler cannot shrink the pool: the panic
// propagates, but the slot is refilled with a fresh labeler (the
// panicked one's arenas may be mid-run corrupt). Generic so whole runs
// and the tiler's strip runs share this one lifecycle contract.
func runOn[T any](p *LabelerPool, lb *Labeler, fn func(*Labeler) (T, error)) (T, error) {
	done := false
	defer func() {
		if !done {
			lb = NewLabeler(p.opt)
		}
		p.free <- lb
	}()
	res, err := fn(lb)
	done = true
	return res, err
}

// LabelWith labels img on any free worker under per-call options:
// RunWith with no monoid and a context that is never cancelled.
func (p *LabelerPool) LabelWith(img *bitmap.Bitmap, opt Options) (*Result, error) {
	return p.RunWith(context.TODO(), img, nil, nil, opt)
}

// RunWith is Labeler.Run on any free worker under per-call options and
// a request context — the shape a service needs. The wait for a free
// worker aborts if ctx is cancelled first; when ctx carries a trace
// span, the wait is recorded as a "pool" child, the
// queue-behind-the-pool stage every request pays under load. The worker
// is retargeted to opt for the run and restored afterwards, whether the
// run succeeds or fails: one pool of warm workers serves heterogeneous
// requests (connectivity, cost model, ArrayWidth all vary per request),
// the arenas adapting in place. Safe for concurrent use.
func (p *LabelerPool) RunWith(ctx context.Context, img *bitmap.Bitmap, initial []int32, op *Monoid, opt Options) (*Result, error) {
	lb, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	return runOn(p, lb, func(lb *Labeler) (*Result, error) {
		defer func(prev Options) { lb.userOpt = prev }(lb.userOpt)
		lb.userOpt = opt
		return lb.Run(ctx, img, initial, op)
	})
}

// acquire checks out a worker under a "pool" trace span, abandoning the
// wait if ctx is cancelled first.
func (p *LabelerPool) acquire(ctx context.Context) (*Labeler, error) {
	psp := obs.FromContext(ctx).Child("pool")
	select {
	case lb := <-p.free:
		psp.End()
		return lb, nil
	case <-ctx.Done():
		err := fmt.Errorf("core: cancelled waiting for a worker: %w", ctx.Err())
		psp.EndErr(err)
		return nil, err
	}
}
