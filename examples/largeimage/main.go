// Largeimage: strip-mined labeling of an image far wider than the
// physical array. A real SLAP has a fixed PE count; with
// Options.ArrayWidth narrower than the image, slapcc.LabelWithOptions
// partitions the image into vertical strips of at most
// Options.ArrayWidth columns, labels each strip with Algorithm CC on the
// fixed-width machine, and stitches the strip boundaries with a metered
// seam pass: a "seam-merge" stitch plus — under the default distributed
// relabel — a "seam-broadcast"/"seam-rewrite" pair that remaps labels on
// the array itself.
//
// The labeling is bit-identical to a whole-image run at every array
// width; what changes is the composed schedule — this example sweeps the
// array width down and prints how the composed time moves under the
// sequential and pipelined schedule models (Options.Schedule), and what
// share the seam phases claim (the seam work is O(h·strips + rewritten
// pixels), a lower-order term until strips get very narrow).
package main

import (
	"fmt"
	"log"

	"slapcc"
)

func main() {
	const n = 1024
	img, ok := slapcc.GenerateFamily("random50", n)
	if !ok {
		log.Fatal("random50 family missing")
	}

	whole, err := slapcc.Label(img)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("image %dx%d, %d components; whole-image array: %d PEs, T = %d steps\n\n",
		n, n, whole.Labels.ComponentCount(), n, whole.Metrics.Time)

	fmt.Printf("%6s  %7s  %12s  %9s  %12s  %7s  %7s\n",
		"array", "strips", "T composed", "vs whole", "T pipelined", "pipe %", "seam %")
	for _, aw := range []int{512, 256, 128, 64, 32} {
		res, err := slapcc.LabelWithOptions(img, slapcc.Options{ArrayWidth: aw})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Labels.Equal(whole.Labels) {
			log.Fatalf("array %d: strip-mined labeling diverged", aw)
		}
		pipe, err := slapcc.LabelWithOptions(img, slapcc.Options{ArrayWidth: aw, Schedule: slapcc.SchedulePipelined})
		if err != nil {
			log.Fatal(err)
		}
		strips := (n + aw - 1) / aw
		fmt.Printf("%6d  %7d  %12d  %9.3f  %12d  %7.2f  %7.2f\n",
			aw, strips, res.Metrics.Time,
			float64(res.Metrics.Time)/float64(whole.Metrics.Time),
			pipe.Metrics.Time,
			100*(1-float64(pipe.Metrics.Time)/float64(res.Metrics.Time)),
			100*float64(slapcc.SeamTime(res.Metrics))/float64(res.Metrics.Time))
	}

	// The strip-mined Corollary 4 aggregation: component areas on the
	// fixed-width array, identical to the whole-image fold.
	agg, err := slapcc.Aggregate(img, slapcc.OnesOf(img), slapcc.SumOf(), slapcc.Options{ArrayWidth: 256})
	if err != nil {
		log.Fatal(err)
	}
	var largest int32
	for _, v := range agg.PerPixel {
		if v > largest {
			largest = v
		}
	}
	fmt.Printf("\naggregate (sum over ones, 256-PE array): largest component %d pixels, T = %d steps\n",
		largest, agg.Metrics.Time)

	fmt.Println("\nLabels and per-pixel folds are bit-identical at every width (checked above).")
	fmt.Println("StripWorkers fans strips across worker labelers for host wall time without")
	fmt.Println("changing the composed metrics; Options.Seam selects the distributed (default)")
	fmt.Println("or host-sequential relabel model — see docs/METRICS.md for the equations.")
}
