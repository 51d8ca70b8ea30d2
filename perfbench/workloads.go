package main

import (
	"fmt"
	"math"
	"time"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/imageio"
)

// workload is one traffic mix: the tiers it runs against, its load
// shape, and the frames it sends. The why of each one is in
// BENCHMARK.json and perfbench/README.md.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second; 0 runs
	// a closed loop only. An open-loop workload spends openShare of the
	// run on the schedule and the rest in a closed-loop capacity phase.
	rate float64
	// conns is the number of closed-loop clients, and the cap on
	// connections the open loop may hold.
	conns int
	// tail is the percentile reported as latency_tail_ms, one with at
	// least ten samples beyond it at the pinned run length.
	tail float64
	// front serves the workload through slapfront over two slapds.
	front bool
	// distinct sends every frame at most once; otherwise the load
	// cycles through cycle frames.
	distinct bool
	cycle    int
	frame    frameFunc
}

const (
	openShare = 0.5
	// capacityRate sizes the no-repeat corpus of the capacity phase: it
	// feeds up to this many frames per second, about 1.5× what the
	// phase reached when the benchmark was defined. A faster program
	// that exhausts it ends the phase early; frames_per_s stays valid.
	capacityRate = 1500
	// A repeating workload's set-ups and ladder use the first cycleHead
	// frames of its cycle, which hold every shape it sends. A no-repeat
	// workload's set-ups send warmFrames, and its ladder prices
	// ladderFrames, frames of their own that the measured phases never
	// send.
	cycleHead    = 8
	warmFrames   = 48
	ladderFrames = 48
)

var workloads = []*workload{
	{name: "small-open", rate: 300, conns: 2, tail: 0.99, distinct: true, frame: smallFrame},
	{name: "large-host", conns: 1, tail: 0.95, cycle: 8, frame: largeFrame},
	{name: "sim-strips", conns: 2, tail: 0.99, cycle: 32, frame: simFrame},
	{name: "cluster-labels", conns: 2, tail: 0.95, front: true, cycle: 8, frame: clusterFrame},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// corpus is every request one run sends, built before any timer starts.
type corpus struct {
	warm     []*request // sent by every set-up
	open     []*request // open-loop phase, in schedule order
	measured []*request // closed-loop phase
	ladder   []*request // priced rung by rung in a traced run
}

func (w *workload) corpus(seed uint64, seconds float64) (*corpus, error) {
	if !w.distinct {
		reqs, err := buildRequests(w.frame, seed, w.cycle)
		if err != nil {
			return nil, err
		}
		head := reqs[:min(cycleHead, len(reqs))]
		return &corpus{warm: head, measured: reqs, ladder: head}, nil
	}
	nOpen := int(math.Ceil(w.rate * seconds * openShare))
	nCap := int(math.Ceil(capacityRate * seconds * (1 - openShare)))
	reqs, err := buildRequests(w.frame, seed, warmFrames+nOpen+nCap+ladderFrames)
	if err != nil {
		return nil, err
	}
	rest := reqs[warmFrames:]
	return &corpus{
		warm:     reqs[:warmFrames],
		open:     rest[:nOpen],
		measured: rest[nOpen : nOpen+nCap],
		ladder:   rest[nOpen+nCap:],
	}, nil
}

// phaseDurations splits a run of seconds into the open-loop and
// closed-loop phases.
func (w *workload) phaseDurations(seconds float64) (open, closed time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	if w.rate == 0 {
		return 0, total
	}
	open = time.Duration(float64(total) * openShare)
	return open, total - open
}

// smallFrame: 64, 128 or 256 px square, density 0.3–0.7, half SLR1 raw
// and half PNG, all on the host engine, a quarter asking for labels.
// Size, format and labels cycle with period 48, so any 48 consecutive
// frames hold the same mix, as do the even and the odd frames among
// them (a traced run traces the even ones); pixels and density are
// random.
func smallFrame(rng *bitmap.RNG, i int) (*bitmap.Bitmap, imageio.Format, api.Params, error) {
	side := []int{64, 128, 256}[i%3]
	img, err := randomImage(rng, side, side, 0.3+0.4*rng.Float64())
	format := imageio.FormatRaw
	if (i/2)%2 == 1 {
		format = imageio.FormatPNG
	}
	return img, format, api.Params{Cost: "host", WantLabels: (i/4)%4 == 0}, err
}

// largeFrame: 2048² random raw frames on the host engine, summary
// only, at densities 0.15 to 0.85 across each eight frames. The spread
// of run counts makes per-request costs a ladder rather than one value,
// so the run's median latency moves smoothly when the shared host slows
// down part of the run instead of jumping between two modes.
func largeFrame(rng *bitmap.RNG, i int) (*bitmap.Bitmap, imageio.Format, api.Params, error) {
	img, err := randomImage(rng, 2048, 2048, 0.15+0.1*float64(i%8))
	return img, imageio.FormatRaw, api.Params{Cost: "host"}, err
}

// simFrame: 512² frames of four families that drive union–find
// differently, each whole-image and strip-mined at array=128, on the
// default metered simulator, summary only. Any eight consecutive frames
// hold every family in both shapes.
func simFrame(rng *bitmap.RNG, i int) (*bitmap.Bitmap, imageio.Format, api.Params, error) {
	const side = 512
	var img *bitmap.Bitmap
	var err error
	switch i % 4 {
	case 0:
		img, err = randomImage(rng, side, side, 0.5)
	case 1:
		img = serpentine(rng, side)
	case 2:
		img = bitmap.Blobs(side, side/8, 4*side, rng.Uint64())
	case 3:
		img = bitmap.Maze(side, rng.Uint64())
	}
	p := api.Params{}
	if (i/4)%2 == 1 {
		p.ArrayWidth = 128
	}
	return img, imageio.FormatRaw, p, err
}

// serpentine is the hserpentine family with the seed choosing its
// mirror image and cutting four of its rows, so seeds give different
// frames with the same long snake structure.
func serpentine(rng *bitmap.RNG, side int) *bitmap.Bitmap {
	img := bitmap.HSerpentine(side)
	if rng.Intn(2) == 1 {
		img = img.MirrorH()
	}
	for k := 0; k < 4; k++ {
		img.Set(1+rng.Intn(side-2), 2*rng.Intn(side/2), false)
	}
	return img
}

// clusterFrame: 512² random-0.5 raw frames on the host engine,
// strip-mined at array=128, with labels.
func clusterFrame(rng *bitmap.RNG, i int) (*bitmap.Bitmap, imageio.Format, api.Params, error) {
	img, err := randomImage(rng, 512, 512, 0.5)
	return img, imageio.FormatRaw, api.Params{Cost: "host", ArrayWidth: 128, WantLabels: true}, err
}
