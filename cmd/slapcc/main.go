// Command slapcc labels the connected components of a binary image on
// the simulated scan line array processor and reports the labeling and
// the machine-level cost.
//
// Usage:
//
//	slapcc -gen checker -n 16 -show
//	slapcc -in image.pbm -uf blum -metrics
//	slapcc -gen hserpentine -n 64 -bitserial -metrics
//	slapcc -gen random50 -n 32 -agg sum -show
//	slapcc -gen random50 -n 1024 -array 256 -schedule pipelined -metrics
//	slapcc -gen random50 -n 1024 -cost host
//
// Input is either a generated family member (-gen, -n) or a file (-in;
// "-" reads stdin) in any format internal/imageio understands — PNG,
// plain PBM (P1), ASCII art, or the SLR1 raw wire format (docs/SLR1.md)
// — selected with -format (default auto-sniffs), the same codecs the
// slapd service ingests.
//
// Images wider than -array strip-mine onto the fixed-width machine
// (labeling and -agg aggregation alike); -seam selects the distributed
// (default) or host seam-relabel model and -schedule the sequential
// (default) or pipelined strip schedule. Every phase the run can emit
// and the composition equations are documented in docs/METRICS.md.
//
// -cost selects the execution engine: unit (default) and bitserial run
// the metered simulator under the matching link charge; host answers
// with the word-parallel host labeler — identical labels and
// aggregates, no simulation, so no simulated metrics to print.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/imageio"
	"slapcc/internal/seqcc"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slapcc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slapcc", flag.ContinueOnError)
	var (
		genName   = fs.String("gen", "", "generate this workload family (see -list)")
		n         = fs.Int("n", 32, "image size for -gen")
		array     = fs.Int("array", 0, "physical PE count; images wider than this are strip-mined (0 = array as wide as the image)")
		stripWk   = fs.Int("stripworkers", 0, "fan strips of a strip-mined run across this many worker labelers (host wall time only)")
		seam      = fs.String("seam", "", "strip-mined seam-relabel model: distributed (default; broadcast + per-PE rewrite) or host (sequential host pass)")
		schedule  = fs.String("schedule", "", "strip schedule model: sequential (default) or pipelined (overlap strip inputs with compute)")
		inPath    = fs.String("in", "", "read an image from this file ('-' = stdin)")
		format    = fs.String("format", "auto", "input format for -in: png, pbm, art, raw, or auto (sniff)")
		ufKind    = fs.String("uf", string(unionfind.KindTarjan), "union-find kind: "+kindList())
		idle      = fs.Bool("idle", false, "enable idle-time path compression (§3 heuristic)")
		cost      = fs.String("cost", "", "execution engine and charge model: unit (default), bitserial, or host (no simulation)")
		bitserial = fs.Bool("bitserial", false, "use 1-bit links (Theorem 5 machine); same as -cost bitserial")
		unitUF    = fs.Bool("unitcost", false, "account unions/finds at unit cost (Lemma 2 accounting)")
		agg       = fs.String("agg", "", "also aggregate per component: min, max, sum, or or")
		show      = fs.Bool("show", false, "print the image and labeling as ASCII art")
		metrics   = fs.Bool("metrics", false, "print per-phase machine metrics")
		profile   = fs.Bool("profile", false, "print per-PE completion profiles (the systolic wavefront)")
		speculate = fs.Bool("speculate", false, "enable speculative union forwarding (§3 heuristic)")
		conn      = fs.Int("conn", 4, "pixel connectivity: 4 (paper) or 8")
		verify    = fs.Bool("verify", true, "cross-check against the sequential reference")
		list      = fs.Bool("list", false, "list workload families and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, f := range bitmap.Families() {
			fmt.Printf("%-14s %s\n", f.Name, f.Description)
		}
		return nil
	}

	img, err := loadImage(*genName, *inPath, *format, *n)
	if err != nil {
		return err
	}

	// Normalized like the server's query parameters, so the same value
	// works on both front ends.
	seamModel := core.SeamModel(strings.ToLower(*seam))
	scheduleModel := core.ScheduleModel(strings.ToLower(*schedule))
	opt := core.Options{
		UF:              unionfind.Kind(*ufKind),
		Connectivity:    bitmap.Connectivity(*conn),
		IdleCompression: *idle,
		UnitCostUF:      *unitUF,
		Profile:         *profile,
		Speculate:       *speculate,
		ArrayWidth:      *array,
		StripWorkers:    *stripWk,
		Seam:            seamModel,
		Schedule:        scheduleModel,
	}
	hostRun := false
	switch strings.ToLower(*cost) {
	case "", "unit":
	case "bitserial":
		*bitserial = true
	case "host":
		opt.Engine = core.EngineHost
		hostRun = true
	default:
		return fmt.Errorf("unknown cost %q (want unit, bitserial, or host)", *cost)
	}
	if *bitserial {
		// Labels are column-major positions offset by w·h, so the word
		// width depends on the pixel count, not on max(w, h): a square
		// formula over-charges non-square images.
		opt.Cost = slap.BitSerial(slap.WordBitsForDims(img.W(), img.H()))
	}

	res, err := core.LabelLarge(img, opt)
	if err != nil {
		return err
	}
	if *verify {
		if err := seqcc.CheckConn(img, res.Labels, opt.Connectivity); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
	}

	st := seqcc.Summarize(res.Labels)
	fmt.Printf("image: %dx%d, %d foreground pixels (density %.2f)\n",
		img.W(), img.H(), img.CountOnes(), img.Density())
	if *array > 0 && *array < img.W() {
		strips := (img.W() + *array - 1) / *array
		sched, seamName := "sequential", "distributed"
		if scheduleModel == core.SchedulePipelined {
			sched = "pipelined"
		}
		if seamModel == core.SeamHost {
			seamName = "host"
		}
		fmt.Printf("array: %d PEs, %d strips (%s schedule, %s seam relabel)\n",
			*array, strips, sched, seamName)
	}
	fmt.Printf("components: %d (largest %d pixels)\n", st.Components, st.Largest)
	if hostRun {
		fmt.Printf("engine: host (no simulation), uf=%s finds=%d unions=%d\n",
			res.UF.Kind, res.UF.Finds, res.UF.Unions)
	} else {
		// Metrics.N is the physical array width: the image width on plain
		// runs, ArrayWidth on strip-mined ones.
		fmt.Printf("simulated time: %d steps (%.2f steps/PE), uf=%s maxOp=%d\n",
			res.Metrics.Time, float64(res.Metrics.Time)/float64(maxInt(1, res.Metrics.N)),
			res.UF.Kind, res.UF.MaxOpCost)
	}

	if *show {
		fmt.Println("\nimage:")
		fmt.Print(img)
		fmt.Println("labels:")
		fmt.Print(res.Labels)
	}
	if *metrics {
		fmt.Println("\nphases:")
		for _, p := range res.Metrics.Phases {
			fmt.Printf("  %-18s makespan %8d  sends %7d  words %8d  idle %8d  peakQ %4d\n",
				p.Name, p.Makespan, p.Sends, p.Words, p.Idle, p.MaxQueue)
		}
		fmt.Printf("per-PE memory: %d words\n", res.Metrics.PEMemory)
	}
	if *profile {
		fmt.Println("\nper-PE completion profiles (each bar column samples the array left to right):")
		for _, p := range res.Metrics.Phases {
			if len(p.PerPE) == 0 {
				continue
			}
			fmt.Printf("  %-18s %s\n", p.Name, sparkline(p.PerPE, 48))
		}
	}
	if *agg != "" {
		op, err := monoidByName(*agg)
		if err != nil {
			return err
		}
		initial := core.Ones(img)
		if op.Name != "sum" {
			for i := range initial {
				initial[i] = int32(i)
			}
		}
		ares, err := core.Aggregate(img, initial, op, opt)
		if err != nil {
			return err
		}
		if hostRun {
			fmt.Printf("\naggregate (%s over %s): host engine\n", op.Name, initialDesc(op))
		} else {
			fmt.Printf("\naggregate (%s over %s): total time %d steps\n",
				op.Name, initialDesc(op), ares.Metrics.Time)
		}
		if *show {
			printAggregate(img, ares)
		}
	}
	return nil
}

func loadImage(genName, inPath, format string, n int) (*bitmap.Bitmap, error) {
	switch {
	case genName != "" && inPath != "":
		return nil, fmt.Errorf("use either -gen or -in, not both")
	case genName != "":
		f, ok := bitmap.FamilyByName(genName)
		if !ok {
			return nil, fmt.Errorf("unknown family %q (try -list)", genName)
		}
		if n < 1 {
			return nil, fmt.Errorf("invalid size %d", n)
		}
		return f.Generate(n), nil
	case inPath != "":
		fm, err := imageio.ParseFormat(format)
		if err != nil {
			return nil, err
		}
		r := io.Reader(os.Stdin)
		if inPath != "-" {
			f, err := os.Open(inPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		// The CLI trusts its operator: only the codecs' own sanity
		// bounds apply, not the service's admission limits.
		return imageio.Decode(r, fm, imageio.Unlimited())
	default:
		return nil, fmt.Errorf("need -gen FAMILY or -in FILE (try -list)")
	}
}

func monoidByName(name string) (core.Monoid, error) {
	switch strings.ToLower(name) {
	case "min":
		return core.Min(), nil
	case "max":
		return core.Max(), nil
	case "sum":
		return core.Sum(), nil
	case "or":
		return core.Or(), nil
	}
	return core.Monoid{}, fmt.Errorf("unknown aggregate op %q (min, max, sum, or)", name)
}

func initialDesc(op core.Monoid) string {
	if op.Name == "sum" {
		return "ones (component areas)"
	}
	return "positions"
}

func printAggregate(img *bitmap.Bitmap, res *core.AggregateResult) {
	fmt.Println("per-pixel aggregate:")
	for y := 0; y < img.H(); y++ {
		for x := 0; x < img.W(); x++ {
			if img.Get(x, y) {
				fmt.Printf("%5d", res.PerPixel[x*img.H()+y])
			} else {
				fmt.Printf("%5s", ".")
			}
		}
		fmt.Println()
	}
}

// sparkline renders values as a fixed-width bar strip using eighth-block
// characters, scaled to the maximum value.
func sparkline(values []int64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width > len(values) {
		width = len(values)
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	var max int64 = 1
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		// Sample the bucket's maximum.
		lo, hi := i*len(values)/width, (i+1)*len(values)/width
		if hi == lo {
			hi = lo + 1
		}
		var v int64
		for _, x := range values[lo:hi] {
			if x > v {
				v = x
			}
		}
		idx := int(v * int64(len(blocks)-1) / max)
		out[i] = blocks[idx]
	}
	return string(out)
}

func kindList() string {
	var names []string
	for _, k := range unionfind.Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, ", ")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
