package core

import (
	"slapcc/internal/bitmap"
	"slapcc/internal/hostcc"
	"slapcc/internal/unionfind"
)

// Engine selects which execution engine answers a run (Options.Engine).
//
// The simulator is the paper; the host engine is for callers who want
// the paper's answers without the paper's machine. Both produce the
// same canonical least-column-major labels and the same Corollary 4
// aggregate values for every image, connectivity, and shape — the
// cross-engine differential tests enforce it — so switching engines
// changes only what else comes back: the simulator's Result carries the
// full metered accounting, the host engine's carries none.
type Engine string

const (
	// EngineSim runs the metered SLAP simulation: systolic phases,
	// traffic, queue peaks, union–find step charges. The default (""
	// selects it).
	EngineSim Engine = "sim"
	// EngineHost answers on the host with the word-parallel run-based
	// labeler (internal/hostcc): identical labels and aggregates, no
	// simulation. Metrics is zero (no phases, no simulated time) and the
	// UF report carries the host labeler's operation counts under
	// HostUFKind. Under ArrayWidth a host run strip-mines like a
	// simulated one — each strip a host run over a zero-copy view, the
	// seams stitched by the tiler under the host seam model — and its UF
	// report sums the strips' and the stitch's counts, exactly as the
	// cluster coordinator composes the same request. Seam and Schedule
	// do not apply, and the simulation-only knobs (Cost, UF, Profile, …)
	// are validated but otherwise ignored.
	EngineHost Engine = "host"
)

// Valid reports whether the engine is known ("" selects the default).
func (e Engine) Valid() bool { return e == "" || e == EngineSim || e == EngineHost }

// HostUFKind is the UFReport.Kind of a host-engine run: the run
// union–find is the host labeler's own (weighted, path-halving), not
// one of the simulator's metered structures, and only its operation
// counts are reported.
const HostUFKind unionfind.Kind = "host"

// hostReport shapes the host labeler's stats as the run's UF report.
// TotalSteps/MaxOpCost/MeanOpCost stay zero: the host engine does not
// meter pointer steps — that is the point of it.
func hostReport(st hostcc.Stats) UFReport {
	return UFReport{Kind: HostUFKind, Finds: st.Finds, Unions: st.Unions}
}

// hostLabeler returns the labeler's lazily built host-engine arena set,
// so LabelerPool / sync.Pool reuse warms the host path exactly like the
// simulator's.
func (lb *Labeler) hostLabeler() *hostcc.Labeler {
	if lb.host == nil {
		lb.host = hostcc.NewLabeler()
	}
	return lb.host
}

// runHost is runImage's host branch, for a whole image or a strip
// view: canonical labels (and, under op, the per-pixel folds), zero
// Metrics, a HostUFKind report. Under Options.SkipLabels a label run
// never materializes the labeling — the summary-only sweep produces the
// identical Stats (and so the identical wire response, minus the label
// array) at a fraction of the cost; aggregation runs ignore it, since
// the folds are the product.
func (lb *Labeler) runHost(img bitmap.Image, initial []int32, op *Monoid) (*Result, error) {
	opt := lb.userOpt.withDefaults()
	if err := opt.validate(img.W(), img.H()); err != nil {
		return nil, err
	}
	host := lb.hostLabeler()
	res := &Result{}
	var st hostcc.Stats
	switch {
	case op != nil:
		res.Labels, res.PerPixel, st = host.Aggregate(img, initial, op.Identity, op.Combine, opt.Connectivity)
	case opt.SkipLabels:
		st = host.Summary(img, opt.Connectivity)
	default:
		res.Labels, st = host.Label(img, opt.Connectivity)
	}
	res.UF = hostReport(st)
	// The run-derived summary equals seqcc.Summarize over the labels, at
	// O(runs) instead of O(pixels).
	res.Summary = &Summary{W: img.W(), H: img.H(), Components: st.Components, Foreground: st.Foreground, Largest: st.Largest}
	return res, nil
}

// composeHostStrips is composeStrips' host-engine path (res.PerPixel
// and op non-nil on aggregation runs): a strip-mined host run stitches
// its strips here, whether they were labeled in process by runLarge or
// by backends the cluster coordinator fanned them to under cost=host.
// The stitch is the simulator's, with the seam forced to the host model
// — no seam machine is built, and the charged phases are discarded,
// because a host-engine answer carries no Metrics. The composed labels
// and summary are bit-identical to one whole-image host run (the
// tiler's own invariant), and the UF report folds the strips' and the
// stitch's operation counts under HostUFKind.
func (lb *Labeler) composeHostStrips(img *bitmap.Bitmap, res *Result, runs []StripRun, op *Monoid, opt Options) {
	hostOpt := opt
	hostOpt.Seam = SeamHost
	_, seamStats, _ := lb.stitchSeams(img, res, runs, op, hostOpt)
	res.UF = UFReport{Kind: HostUFKind, Finds: seamStats.finds, Unions: seamStats.unions}
	for _, run := range runs {
		res.UF.Finds += run.UF.Finds
		res.UF.Unions += run.UF.Unions
		res.Speculation.Sends += run.Speculation.Sends
		res.Speculation.Wasted += run.Speculation.Wasted
	}
}
