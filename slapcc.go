// Package slapcc labels the connected components of binary images on a
// simulated scan line array processor (SLAP), reproducing Greenberg,
// "Finding Connected Components on a Scan Line Array Processor",
// SPAA 1995.
//
// The SLAP is a SIMD linear array of n processing elements holding one
// image column each, exchanging one word per time step with its
// neighbors. Algorithm CC labels an n×n image with two systolic
// union–find sweeps plus a local merge: O(n lg n) worst case with
// Tarjan's union–find, O(n lg n / lg lg n) with a Blum-style structure
// (Theorem 3), and near-O(n) on typical images. The simulator counts the
// exact time steps the paper's model charges, so the package reports both
// the labeling and the machine-level cost of obtaining it.
//
// # Quick start
//
//	img := slapcc.MustParseImage("##.\n.#.\n..#")
//	res, err := slapcc.Label(img)
//	// res.Labels holds canonical component labels;
//	// res.Metrics.Time is the simulated SLAP makespan.
//
// Labels are canonical: every component carries the least column-major
// position (x·H + y) of its pixels; background pixels carry Background.
//
// # Labeling streams of images
//
// Label allocates almost nothing under steady load (it draws reusable
// machinery from an internal pool), but a stream of frames is served
// best by an explicit Labeler, which re-initializes its simulation
// arenas — the machine, per-column union–find structures, satellite
// arrays, and link buffers — in place on every call:
//
//	lab := slapcc.NewLabeler(slapcc.Options{})
//	for _, frame := range frames {
//		res, err := lab.Label(frame)
//		// res is independent of lab and stays valid;
//		// the next call reuses all working memory.
//	}
//
// A Labeler is not safe for concurrent use (use one per goroutine).
// Results and simulated metrics are bit-identical whether a Labeler is
// fresh, reused, or pooled — only host-side speed differs.
//
// The full evaluation suite lives in cmd/slapbench (see docs/METRICS.md);
// deeper control (union–find variants, bit-serial links, idle-time
// compression) is available through Options.
package slapcc

import (
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

// Bitmap is a binary image; pixel (x, y) is column x, row y.
type Bitmap = bitmap.Bitmap

// LabelMap is a per-pixel component labeling.
type LabelMap = bitmap.LabelMap

// Background is the label of 0-pixels in a LabelMap.
const Background = bitmap.Background

// Connectivity selects which pixels count as adjacent.
type Connectivity = bitmap.Connectivity

// Supported connectivities: the paper's 4-connectivity (default) and the
// customary 8-connected extension.
const (
	Conn4 = bitmap.Conn4
	Conn8 = bitmap.Conn8
)

// Options configure a run; the zero value selects the paper's defaults
// (Tarjan union–find, unit-cost word links, input phase included).
type Options = core.Options

// Result is a run's output: labels, machine metrics, and the union–find
// report, plus the per-pixel folds on Aggregate runs.
type Result = core.Result

// Metrics is the simulated machine's accounting (total time, per-phase
// makespans, traffic, queue peaks, per-PE memory).
type Metrics = slap.Metrics

// CostModel assigns step charges to PE operations.
type CostModel = slap.CostModel

// Monoid is a commutative associative fold operator for Aggregate.
type Monoid = core.Monoid

// Engine selects which execution engine answers a run (Options.Engine):
// the metered SLAP simulation, or a word-parallel host labeler producing
// the same canonical labels and aggregate values with no simulated
// metrics. See docs/ARCHITECTURE.md, "The engine layer".
type Engine = core.Engine

// Engines selectable via Options.Engine.
const (
	EngineSim  = core.EngineSim  // default: the metered SLAP simulation
	EngineHost = core.EngineHost // host-side labeler; answers only, no Metrics
)

// SeamModel selects how a strip-mined run charges its seam relabel
// (Options.Seam): SeamDistributed broadcasts the remap table down the
// array and rewrites per PE; SeamHost charges a sequential host pass.
type SeamModel = core.SeamModel

// Seam-relabel models for Options.Seam; see docs/METRICS.md.
const (
	SeamDistributed = core.SeamDistributed // default: broadcast + per-PE rewrite
	SeamHost        = core.SeamHost        // sequential host pass (comparison model)
)

// ScheduleModel selects the strip-composition schedule
// (Options.Schedule): ScheduleSequential runs strips back to back;
// SchedulePipelined overlaps strip inputs with the previous strip's
// sweeps.
type ScheduleModel = core.ScheduleModel

// Strip schedule models for Options.Schedule; see docs/METRICS.md.
const (
	ScheduleSequential = core.ScheduleSequential // default: strips back to back
	SchedulePipelined  = core.SchedulePipelined  // overlap inputs under compute
)

// UFKind names a union–find implementation.
type UFKind = unionfind.Kind

// Union–find implementations selectable via Options.UF.
const (
	UFTarjan     = unionfind.KindTarjan     // weighted union + path compression (default)
	UFBlum       = unionfind.KindBlum       // Blum-style k-UF trees (Theorem 3)
	UFRank       = unionfind.KindRank       // union by rank + compression
	UFHalving    = unionfind.KindHalving    // one-pass path halving
	UFSplitting  = unionfind.KindSplitting  // one-pass path splitting
	UFNoCompress = unionfind.KindNoCompress // weighted union only
	UFQuickFind  = unionfind.KindQuickFind  // label-array sets
	UFNaiveLink  = unionfind.KindNaiveLink  // unbalanced linking (for ablations)
)

// Labeler runs Algorithm CC repeatedly without re-allocating its
// simulation state; see NewLabeler.
type Labeler = core.Labeler

// NewLabeler returns a reusable labeler for a stream of images: every
// Label or Aggregate call re-initializes the internal arenas in place,
// so a warm Labeler labels frames with (almost) no allocation. Results
// are independent of the Labeler and identical to the one-shot API's. A
// Labeler is not safe for concurrent use.
func NewLabeler(opt Options) *Labeler { return core.NewLabeler(opt) }

// LabelerPool shards runs across a fixed set of reusable
// labelers — the concurrent-use form of Labeler: up to Workers() calls
// run in parallel, each on its own warm arenas.
type LabelerPool = core.LabelerPool

// NewLabelerPool returns a pool of workers reusable labelers (≤ 0
// selects GOMAXPROCS).
func NewLabelerPool(opt Options, workers int) *LabelerPool {
	return core.NewLabelerPool(opt, workers)
}

// Label runs Algorithm CC on img under default options.
func Label(img *Bitmap) (*Result, error) { return core.Label(img, Options{}) }

// LabelWithOptions runs Algorithm CC on img with explicit options.
//
// An image wider than the physical array strip-mines: with 0 <
// opt.ArrayWidth < img.W(), the image is partitioned into vertical
// strips of at most ArrayWidth columns, each strip runs Algorithm CC on
// the fixed-width machine (zero-copy views over one warm arena set, or
// fanned across opt.StripWorkers worker labelers), and the
// strip-boundary seams are stitched by a host-side union–find pass that
// relabels to the global canonical least column-major labels. The
// labeling is bit-identical to a whole-image run's; the composed
// metrics follow the selected Options.Seam and Options.Schedule models
// (see docs/METRICS.md). With ArrayWidth 0 the array is as wide as the
// image.
func LabelWithOptions(img *Bitmap, opt Options) (*Result, error) { return core.Label(img, opt) }

// Aggregate labels every component of img with the op-fold of the
// initial per-pixel labels over the whole component (the paper's
// Corollary 4 extension), returned in Result.PerPixel. initial is
// indexed by column-major position. With 0 < opt.ArrayWidth < img.W()
// the run strip-mines like LabelWithOptions, and the seam stitch also
// combines the per-strip folds of seam-crossing components under op;
// per-pixel folds and labels are bit-identical at every array width.
func Aggregate(img *Bitmap, initial []int32, op Monoid, opt Options) (*Result, error) {
	return core.Aggregate(img, initial, op, opt)
}

// SeamTime sums the makespans of a composed report's seam phases
// ("seam-merge", plus "seam-broadcast"/"seam-rewrite" under the
// distributed relabel) — the strip-mining overhead term next to the
// strips' own labeling time. Zero on whole-image runs.
func SeamTime(m Metrics) int64 { return core.SeamTime(m) }

// MinOf returns the minimum monoid (Corollary 4's operator).
func MinOf() Monoid { return core.Min() }

// MaxOf returns the maximum monoid.
func MaxOf() Monoid { return core.Max() }

// SumOf returns the addition monoid; with OnesOf it computes component
// areas.
func SumOf() Monoid { return core.Sum() }

// OrOf returns the bitwise-or monoid.
func OrOf() Monoid { return core.Or() }

// OnesOf returns an all-ones initial labeling for img.
func OnesOf(img *Bitmap) []int32 { return core.Ones(img) }

// UnitCost returns the standard SLAP cost model: one word per link per
// step.
func UnitCost() CostModel { return slap.Unit() }

// BitSerialCost returns the Theorem 5 restricted model: one bit per link
// per step for words of the given width.
func BitSerialCost(wordBits int) CostModel { return slap.BitSerial(wordBits) }

// WordBits returns the word width needed to carry labels of an n×n image.
func WordBits(n int) int { return slap.WordBitsFor(n) }

// WordBitsDims returns the word width needed to carry labels of a w×h
// image: ⌈lg max(2, 2·w·h)⌉, since labels are column-major positions
// offset by w·h for the right pass. Use this instead of WordBits(max(w,
// h)) for non-square images, which the square form over-charges.
func WordBitsDims(w, h int) int { return slap.WordBitsForDims(w, h) }

// NewImage returns an all-zero w×h image.
func NewImage(w, h int) *Bitmap { return bitmap.New(w, h) }

// ParseImage builds an image from ASCII art ('#'/'1' foreground, '.'/'0'
// background, one row per line).
func ParseImage(art string) (*Bitmap, error) { return bitmap.Parse(art) }

// MustParseImage is ParseImage that panics on error.
func MustParseImage(art string) *Bitmap { return bitmap.MustParse(art) }

// RandomImage returns an n×n image with i.i.d. pixel density.
func RandomImage(n int, density float64, seed uint64) *Bitmap {
	return bitmap.Random(n, density, seed)
}

// GenerateFamily produces the n×n member of a named workload family
// (see FamilyNames); it reports false for unknown names.
func GenerateFamily(name string, n int) (*Bitmap, bool) {
	f, ok := bitmap.FamilyByName(name)
	if !ok {
		return nil, false
	}
	return f.Generate(n), true
}

// FamilyNames lists the built-in workload families.
func FamilyNames() []string {
	fams := bitmap.Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}
