// Package loadgen is the one load driver behind cmd/slapload and
// cmd/slapchaos:
//
//   - a corpus: sizes × formats × params in, encoded frames out, each
//     with the reference answer an engine computes in process;
//   - a verifier: a served answer checked against that reference —
//     dims, simulated time, labels, per-pixel folds;
//   - a closed-loop driver: N workers on a shared counter, every
//     request traced and its outcome classified once;
//   - a burst: C no-retry requests released at once, tallied by how
//     the admission queue answered.
//
// The paper's contract is the label answer — every component labeled
// with its least column-major pixel — so a verified frame is checked
// bit for bit, never sampled.
package loadgen

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"slapcc"
	"slapcc/api"
	"slapcc/client"
	"slapcc/internal/server"
)

// Frame is one pre-encoded request the driver can fire repeatedly.
type Frame struct {
	Name  string
	Data  []byte
	CType string
	// Params is the request's query; Op "sum" makes it an /v1/aggregate
	// request, otherwise it is a /v1/label request.
	Params api.Params
	Pixels int64
	// Want is the reference answer; nil leaves the frame unverified.
	Want *Want
}

// send fires f once through c; perPixel is nil on label frames.
func (f *Frame) send(ctx context.Context, c *client.Client) (resp *api.LabelResponse, perPixel []int32, err error) {
	if f.Params.Op == "" {
		resp, err = c.LabelData(ctx, f.Data, f.CType, f.Params)
		return resp, nil, err
	}
	agg, err := c.AggregateData(ctx, f.Data, f.CType, f.Params)
	if err != nil {
		return nil, nil, err
	}
	return &agg.LabelResponse, agg.PerPixel, nil
}

// Want is the answer a server owes one frame.
type Want struct {
	W, H int
	// Labels and PerPixel are column-major (index x·H + y); PerPixel is
	// nil on label frames.
	Labels, PerPixel []int32
	// TimeSteps is the simulated makespan, or −1 when the reference
	// engine differs from the serving one: only the simulator has
	// simulated time, so the comparison is skipped.
	TimeSteps int64
}

// Check compares a served answer with the reference: dims, simulated
// time unless TimeSteps is −1, every label, and every per-pixel fold.
func (w *Want) Check(got *api.LabelResponse, perPixel []int32) error {
	if got.Width != w.W || got.Height != w.H {
		return fmt.Errorf("dims %dx%d, want %dx%d", got.Width, got.Height, w.W, w.H)
	}
	if w.TimeSteps >= 0 && got.Metrics.TimeSteps != w.TimeSteps {
		return fmt.Errorf("time_steps %d, want %d", got.Metrics.TimeSteps, w.TimeSteps)
	}
	if err := same("labels", got.Labels, w.Labels); err != nil {
		return err
	}
	return same("per_pixel", perPixel, w.PerPixel)
}

func same(what string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// Expect computes in process, with engine, the answer a server owes
// img under p: LabelLarge for a label request, or AggregateLarge of the
// all-ones labeling under sum (component areas) for Op "sum". The
// options come from p exactly as slapd resolves them, so strip width,
// schedule and cost model match what the service ran; with ArrayWidth
// 0 both calls are exactly the whole-image run.
func Expect(img *slapcc.Bitmap, p api.Params, engine slapcc.Engine) (*Want, error) {
	opt, err := server.OptionsFromParams(slapcc.Options{}, p, img.W(), img.H())
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	// Only the simulator has simulated time, so the time check needs the
	// reference engine to be the one that serves p ("" is the simulator).
	served := opt.Engine
	if served == "" {
		served = slapcc.EngineSim
	}
	opt.Engine = engine
	w := &Want{W: img.W(), H: img.H(), TimeSteps: -1}
	var lm *slapcc.LabelMap
	var steps int64
	switch p.Op {
	case "":
		res, err := slapcc.LabelLarge(img, opt)
		if err != nil {
			return nil, err
		}
		lm, steps = res.Labels, res.Metrics.Time
	case "sum":
		res, err := slapcc.AggregateLarge(img, slapcc.OnesOf(img), slapcc.SumOf(), opt)
		if err != nil {
			return nil, err
		}
		lm, steps, w.PerPixel = res.Labels, res.Metrics.Time, res.PerPixel
	default:
		return nil, fmt.Errorf("loadgen: no reference for op %q", p.Op)
	}
	w.Labels = make([]int32, 0, lm.W()*lm.H())
	for x := 0; x < lm.W(); x++ {
		w.Labels = append(w.Labels, lm.ColumnSlice(x)...)
	}
	if engine == served {
		w.TimeSteps = steps
	}
	return w, nil
}

// Mix says which request shapes a corpus draws from each encoded image.
type Mix int

const (
	// Rotate sends each encoded image once as a whole-image label,
	// except that every 4th frame strip-mines at Array when the image
	// is wider (slapload).
	Rotate Mix = iota
	// Every sends each encoded image as a whole-image label and, when
	// it is wider than Array, as a strip-mined label and a strip-mined
	// sum aggregate too (slapchaos).
	Every
)

// Corpus describes a frame corpus.
type Corpus struct {
	Sizes   []int // square frame sizes
	Formats []string
	PerSize int // distinct images per size
	Density float64
	// Seed seeds the first image; each later image takes the next seed.
	Seed   uint64
	Params api.Params // stamped on every request
	Array  int        // strip-mining width (0 = whole-image frames only)
	Mix    Mix
	// Ref is the engine that builds the references (slapcc.EngineSim
	// or slapcc.EngineHost); empty leaves every frame unverified.
	Ref slapcc.Engine
}

// Build generates the corpus. refTime is what building the references
// took, reported apart so a loop's frames/s stays a pure service number.
func (c Corpus) Build() (frames []Frame, refTime time.Duration, err error) {
	seed := c.Seed
	for _, n := range c.Sizes {
		shapes := []api.Params{c.Params} // whole, then strip and aggregate
		if c.Array > 0 && c.Array < n {
			strip := c.Params
			strip.ArrayWidth = c.Array
			agg := strip
			agg.Op = "sum"
			shapes = append(shapes, strip, agg)
		}
		for k := 0; k < c.PerSize; k++ {
			img := slapcc.RandomImage(n, c.Density, seed)
			seed++
			wants := make([]*Want, len(shapes)) // shared across formats
			for _, format := range c.Formats {
				format = strings.TrimSpace(format)
				data, ctype, err := client.EncodeImage(img, format)
				if err != nil {
					return nil, 0, fmt.Errorf("loadgen: encode %dpx %s: %w", n, format, err)
				}
				picks := []int{0, 1, 2}[:len(shapes)]
				if c.Mix == Rotate {
					picks = []int{0}
					if len(shapes) > 1 && len(frames)%4 == 3 {
						picks[0] = 1
					}
				}
				for _, i := range picks {
					p := shapes[i]
					if c.Ref != "" && wants[i] == nil {
						t0 := time.Now()
						if wants[i], err = Expect(img, p, c.Ref); err != nil {
							return nil, 0, err
						}
						refTime += time.Since(t0)
					}
					p.WantLabels = p.WantLabels || wants[i] != nil
					name := fmt.Sprintf("%s-%d-%d", format, n, k)
					if p.Op != "" {
						name = fmt.Sprintf("agg-%d-%d", n, k)
					}
					if i > 0 {
						name += "-aw" + strconv.Itoa(c.Array)
					}
					frames = append(frames, Frame{
						Name: name, Data: data, CType: ctype, Params: p,
						Pixels: int64(n) * int64(n), Want: wants[i],
					})
				}
			}
		}
	}
	if len(frames) == 0 {
		return nil, 0, fmt.Errorf("loadgen: empty corpus (sizes %v, formats %v)", c.Sizes, c.Formats)
	}
	return frames, refTime, nil
}

// ParseSizes parses a comma-separated list of positive frame sizes.
func ParseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
