package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"slapcc/internal/bitmap"
	"slapcc/internal/obs"
)

// The frame-streaming subsystem: one simulation runs on one goroutine
// (the simulated PEs keep their own virtual clocks, so host concurrency
// inside a frame would add nothing to fidelity). A video pipeline has a
// better axis: *frames* are independent, so a pool of worker labelers —
// one per core, each with its own warm arenas — runs whole simulations
// concurrently with no shared mutable state at all, giving near-linear
// multicore scaling of aggregate throughput. LabelerPool is the sharding primitive;
// LabelStream adds in-order delivery on top.

// LabelerPool shards Label calls across a fixed set of reusable
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

// withWorker checks out a worker (blocking), runs fn on it, and returns
// it; see runOn for the panic-safety contract.
func (p *LabelerPool) withWorker(fn func(*Labeler) (*Result, error)) (*Result, error) {
	return runOn(p, <-p.free, fn)
}

// runOn runs fn on a checked-out worker and returns the worker via
// defer so a panicking labeler cannot shrink the pool: the panic
// propagates, but the slot is refilled with a fresh labeler (the
// panicked one's arenas may be mid-run corrupt). Generic so the Label-
// and Aggregate-shaped calls share this one lifecycle contract.
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

// under wraps fn to run with the worker retargeted to opt, restoring
// the worker's own options afterwards whether fn succeeds or fails.
// This is how one pool of warm workers serves heterogeneous requests
// (connectivity, cost model, ArrayWidth all vary per request): the
// arenas adapt in place, so warm reuse still applies across option
// mixes.
func under[T any](opt Options, fn func(*Labeler) (T, error)) func(*Labeler) (T, error) {
	return func(lb *Labeler) (T, error) {
		defer func(prev Options) { lb.userOpt = prev }(lb.userOpt)
		lb.userOpt = opt
		return fn(lb)
	}
}

// Label runs Algorithm CC on img on any free worker, blocking while all
// workers are busy. Safe for concurrent use.
func (p *LabelerPool) Label(img *bitmap.Bitmap) (*Result, error) {
	return p.withWorker(func(lb *Labeler) (*Result, error) { return lb.Label(img) })
}

// LabelWith is Label under per-call options — the shape a service
// needs; see under for the worker-restoration contract.
func (p *LabelerPool) LabelWith(img *bitmap.Bitmap, opt Options) (*Result, error) {
	return p.withWorker(under(opt, func(lb *Labeler) (*Result, error) { return lb.Label(img) }))
}

// TryLabelWith is LabelWith without the blocking wait: when no worker
// is free it reports ok=false immediately and does nothing, so an
// accept loop can shed load instead of queueing behind the pool.
func (p *LabelerPool) TryLabelWith(img *bitmap.Bitmap, opt Options) (res *Result, ok bool, err error) {
	select {
	case lb := <-p.free:
		res, err = runOn(p, lb, under(opt, func(lb *Labeler) (*Result, error) { return lb.Label(img) }))
		return res, true, err
	default:
		return nil, false, nil
	}
}

// LabelWithCtx is LabelWith under a request context: the wait for a
// free worker aborts if ctx is cancelled first, and a strip-mined run
// polls ctx between strips (see Labeler.LabelCtx). When ctx carries a
// trace span, the worker wait is recorded as a "pool" child — the
// queue-behind-the-pool stage every request pays under load.
func (p *LabelerPool) LabelWithCtx(ctx context.Context, img *bitmap.Bitmap, opt Options) (*Result, error) {
	psp := obs.FromContext(ctx).Child("pool")
	lb, err := p.acquire(ctx)
	psp.EndErr(err)
	if err != nil {
		return nil, err
	}
	return runOn(p, lb, under(opt, func(lb *Labeler) (*Result, error) { return lb.LabelCtx(ctx, img) }))
}

// AggregateWithCtx is AggregateWith under a request context, with
// LabelWithCtx's contract (including the "pool" wait span).
func (p *LabelerPool) AggregateWithCtx(ctx context.Context, img *bitmap.Bitmap, initial []int32, op Monoid, opt Options) (*AggregateResult, error) {
	psp := obs.FromContext(ctx).Child("pool")
	lb, err := p.acquire(ctx)
	psp.EndErr(err)
	if err != nil {
		return nil, err
	}
	return runOn(p, lb, under(opt, func(lb *Labeler) (*AggregateResult, error) {
		return lb.AggregateCtx(ctx, img, initial, op)
	}))
}

// acquire checks out a worker, abandoning the wait if ctx is cancelled
// first.
func (p *LabelerPool) acquire(ctx context.Context) (*Labeler, error) {
	select {
	case lb := <-p.free:
		return lb, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("core: cancelled waiting for a worker: %w", ctx.Err())
	}
}

// AggregateWith runs the Corollary 4 aggregation on any free worker
// under per-call options, blocking while all workers are busy. Safe for
// concurrent use; the same lifecycle and restoration contract as
// LabelWith.
func (p *LabelerPool) AggregateWith(img *bitmap.Bitmap, initial []int32, op Monoid, opt Options) (*AggregateResult, error) {
	return runOn(p, <-p.free, under(opt, func(lb *Labeler) (*AggregateResult, error) {
		return lb.Aggregate(img, initial, op)
	}))
}

// labelImage is Label over the Image interface on a whole-image array —
// the tiler's fan-out path labels strip views through it.
func (p *LabelerPool) labelImage(img bitmap.Image) (*Result, error) {
	return p.withWorker(func(lb *Labeler) (*Result, error) { return lb.labelImage(img) })
}

// aggregateImage is Aggregate over the Image interface on a whole-image
// array — the tiler's fan-out path aggregates strip views through it.
func (p *LabelerPool) aggregateImage(img bitmap.Image, initial []int32, op Monoid) (*AggregateResult, error) {
	return runOn(p, <-p.free, func(lb *Labeler) (*AggregateResult, error) {
		return lb.aggregateImage(img, initial, op)
	})
}

// StreamResult is one frame's outcome, delivered to the stream's sink
// in submission order.
type StreamResult struct {
	// Frame is the submission index (0 for the first Submit).
	Frame int
	// Result is the labeling outcome; nil when Err is non-nil.
	Result *Result
	// Err reports a per-frame configuration error.
	Err error
}

// LabelStream labels a stream of independent frames on a LabelerPool,
// delivering results to a sink callback in submission order regardless
// of which worker finishes first. Use it for the video-pipeline shape:
//
//	s := core.NewLabelStream(core.Options{}, 0, func(r core.StreamResult) { … })
//	for _, frame := range frames { s.Submit(frame) }
//	s.Close() // waits; every sink call has returned
//
// With one worker (or on a single-core host, the GOMAXPROCS default)
// the stream degenerates to the single-labeler path: Submit labels the
// frame synchronously on one reused Labeler and invokes the sink
// inline — no goroutines, no channels, never slower than calling that
// Labeler directly. With more workers, frames fan out to the pool
// through a shared channel (idle workers steal the next frame as they
// finish) and a collector goroutine reorders completions for the sink.
//
// Submit and Close must come from one goroutine; the sink is invoked
// serially (inline in sync mode, from the collector otherwise) and must
// not call back into the stream.
type LabelStream struct {
	pool *LabelerPool
	sink func(StreamResult)
	next int // next submission index

	// Synchronous (single-worker) path.
	lone *Labeler

	// Fan-out path.
	frames    chan streamFrame
	done      chan StreamResult
	workersWG sync.WaitGroup
	collector sync.WaitGroup
	closed    bool
}

type streamFrame struct {
	seq int
	img *bitmap.Bitmap
}

// NewLabelStream returns a stream labeling frames under opt on workers
// worker labelers (≤ 0 selects GOMAXPROCS) and delivering results to
// sink in submission order.
func NewLabelStream(opt Options, workers int, sink func(StreamResult)) *LabelStream {
	if sink == nil {
		panic("core: NewLabelStream requires a sink")
	}
	pool := NewLabelerPool(opt, workers)
	s := &LabelStream{pool: pool, sink: sink}
	if pool.Workers() == 1 {
		s.lone = <-pool.free
		return s
	}
	// Frames buffer twice the worker count: enough that the submitter
	// stays ahead of the pool without unbounded queueing.
	s.frames = make(chan streamFrame, 2*pool.Workers())
	s.done = make(chan StreamResult, 2*pool.Workers())
	for i := 0; i < pool.Workers(); i++ {
		lb := <-pool.free
		s.workersWG.Add(1)
		go func(lb *Labeler) {
			defer s.workersWG.Done()
			for f := range s.frames {
				res, err := lb.Label(f.img)
				s.done <- StreamResult{Frame: f.seq, Result: res, Err: err}
			}
		}(lb)
	}
	s.collector.Add(1)
	go func() {
		defer s.collector.Done()
		// Reorder completions: hold each result until every earlier
		// frame has been delivered.
		pending := make(map[int]StreamResult)
		emit := 0
		for r := range s.done {
			pending[r.Frame] = r
			for {
				nxt, ok := pending[emit]
				if !ok {
					break
				}
				delete(pending, emit)
				emit++
				s.sink(nxt)
			}
		}
		if len(pending) != 0 {
			panic(fmt.Sprintf("core: LabelStream lost %d results", len(pending)))
		}
	}()
	return s
}

// Workers returns how many labelers serve the stream.
func (s *LabelStream) Workers() int { return s.pool.Workers() }

// Submit labels img as the next frame. It may block for backpressure
// (all workers busy and the frame buffer full); in single-worker mode
// it labels synchronously and invokes the sink before returning.
func (s *LabelStream) Submit(img *bitmap.Bitmap) {
	if s.closed {
		panic("core: Submit on a closed LabelStream")
	}
	seq := s.next
	s.next++
	if s.lone != nil {
		res, err := s.lone.Label(img)
		s.sink(StreamResult{Frame: seq, Result: res, Err: err})
		return
	}
	s.frames <- streamFrame{seq: seq, img: img}
}

// TrySubmit is Submit without the backpressure wait: it accepts img
// only when the stream can take it without blocking, reporting whether
// it did. A rejected frame consumes no submission index — in-order
// delivery of the accepted frames is unaffected — so an ingest loop can
// shed load (drop, or answer "try again later") instead of stalling.
// In single-worker mode Submit never queues, so TrySubmit always
// accepts and labels synchronously like Submit.
func (s *LabelStream) TrySubmit(img *bitmap.Bitmap) bool {
	if s.closed {
		panic("core: TrySubmit on a closed LabelStream")
	}
	if s.lone != nil {
		s.Submit(img)
		return true
	}
	select {
	case s.frames <- streamFrame{seq: s.next, img: img}:
		s.next++
		return true
	default:
		return false
	}
}

// QueueDepth returns how many accepted frames are waiting for a worker
// right now (0 in single-worker mode, where Submit is synchronous). A
// racy snapshot, like LabelerPool.Idle: a gauge, not a reservation.
func (s *LabelStream) QueueDepth() int { return len(s.frames) }

// QueueCap returns the frame buffer's capacity: TrySubmit starts
// rejecting when QueueDepth reaches it and every worker is busy.
func (s *LabelStream) QueueCap() int { return cap(s.frames) }

// Close drains the stream: it waits until every submitted frame's
// result has been delivered to the sink, then releases the workers.
// The stream cannot be used afterwards. Close is idempotent.
func (s *LabelStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.lone != nil {
		s.pool.free <- s.lone
		s.lone = nil
		return
	}
	close(s.frames)
	s.workersWG.Wait()
	close(s.done)
	s.collector.Wait()
}
