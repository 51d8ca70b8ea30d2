// Videopipeline: the scenario that motivated the SLAP (the Princeton
// Engine was a real-time video system simulator): a stream of frames
// flows through the array, and each frame is component-labeled and
// measured in machine steps — near-linear per frame, i.e. real-time for
// the architecture.
//
// The synthetic scene contains moving rectangles ("objects") that drift
// across the frame, occasionally touching and merging into one component.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slapcc"
)

const (
	frameSize = 64
	frames    = 8
)

// object is an axis-aligned rectangle with a velocity.
type object struct {
	x, y, w, h int
	dx, dy     int
}

func drawFrame(objs []object, t int) *slapcc.Bitmap {
	img := slapcc.NewImage(frameSize, frameSize)
	for _, o := range objs {
		x0, y0 := o.x+t*o.dx, o.y+t*o.dy
		for x := x0; x < x0+o.w; x++ {
			for y := y0; y < y0+o.h; y++ {
				if x >= 0 && x < frameSize && y >= 0 && y < frameSize {
					img.Set(x, y, true)
				}
			}
		}
	}
	return img
}

func main() {
	objs := []object{
		{x: 2, y: 6, w: 10, h: 8, dx: 5, dy: 0},    // sweeps left to right
		{x: 50, y: 10, w: 8, h: 8, dx: -4, dy: 1},  // drifts right to left
		{x: 20, y: 40, w: 14, h: 6, dx: 1, dy: -2}, // rises
		{x: 44, y: 44, w: 6, h: 12, dx: 0, dy: 0},  // static
	}

	// One reusable labeler serves the whole stream: every frame re-uses
	// the simulated machine, per-column union–find structures, and link
	// buffers in place, so the per-frame host cost is the simulation
	// itself, not allocation — the shape a real-time pipeline needs.
	lab := slapcc.NewLabeler(slapcc.Options{})

	fmt.Printf("%5s  %10s  %7s  %12s  %10s\n",
		"frame", "components", "pixels", "largest area", "SLAP steps")
	for t := 0; t < frames; t++ {
		img := drawFrame(objs, t)

		// Label the frame and, in the same run, compute per-component
		// areas with the Corollary 4 aggregation (sum of ones).
		res, err := lab.Aggregate(img, slapcc.OnesOf(img), slapcc.SumOf())
		if err != nil {
			log.Fatal(err)
		}
		largest := int32(0)
		for _, v := range res.PerPixel {
			if v > largest {
				largest = v
			}
		}
		fmt.Printf("%5d  %10d  %7d  %12d  %10d\n",
			t, res.Labels.ComponentCount(), img.CountOnes(), largest, res.Metrics.Time)
	}

	fmt.Println("\nper-frame machine time stays a small multiple of the frame height:")
	fmt.Println("the array keeps up with the video rate, which is the architecture's point.")

	// Host-side scaling: the frames are independent, so one goroutine
	// per core, each holding its own labeler, takes the next frame index
	// from a shared counter and writes its result into that frame's slot
	// — the results stay in frame order without any reordering, and
	// aggregate throughput scales with the cores.
	const burst = 64
	workers := runtime.GOMAXPROCS(0)
	results := make([]*slapcc.Result, burst)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lab *slapcc.Labeler) {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < burst; t = int(next.Add(1)) - 1 {
				res, err := lab.Label(drawFrame(objs, t%frames))
				if err != nil {
					log.Fatal(err)
				}
				results[t] = res
			}
		}(slapcc.NewLabeler(slapcc.Options{}))
	}
	wg.Wait()
	fmt.Printf("\nlabeled %d frames on %d goroutines in %v (frame %d: %d components)\n",
		len(results), workers, time.Since(start).Round(time.Millisecond),
		burst-1, results[burst-1].Labels.ComponentCount())
}
