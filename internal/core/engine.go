package core

import (
	"fmt"
	"math"

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
	// HostUFKind. ArrayWidth, Seam, and Schedule do not apply — a host
	// run always labels the whole image in one pass, which is
	// bit-identical to any strip-mined decomposition — and the
	// simulation-only knobs (Cost, UF, Profile, …) are validated but
	// otherwise ignored.
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

// checkHostRun validates the option surface for a host-engine run with
// the same checks (and error text) the simulator's runCC applies, so a
// bad configuration fails identically whichever engine would have run.
func checkHostRun(opt Options, w, h int) error {
	if err := opt.Cost.Validate(); err != nil {
		return err
	}
	if !unionfind.Valid(opt.UF) {
		return fmt.Errorf("core: unknown union-find kind %q", opt.UF)
	}
	if !opt.Connectivity.Valid() {
		return fmt.Errorf("core: invalid connectivity %d", opt.Connectivity)
	}
	if w > 0 && h > 0 && 2*int64(w)*int64(h) > math.MaxInt32 {
		return fmt.Errorf("core: image %dx%d exceeds the int32 label space", w, h)
	}
	if opt.ArrayWidth < 0 || opt.StripWorkers < 0 {
		return fmt.Errorf("core: negative tiling options (ArrayWidth %d, StripWorkers %d)", opt.ArrayWidth, opt.StripWorkers)
	}
	if !opt.Seam.Valid() {
		return fmt.Errorf("core: unknown seam model %q (want %q or %q)", opt.Seam, SeamDistributed, SeamHost)
	}
	if !opt.Schedule.Valid() {
		return fmt.Errorf("core: unknown schedule model %q (want %q or %q)", opt.Schedule, ScheduleSequential, SchedulePipelined)
	}
	return nil
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

// labelHost answers Label with the host engine: canonical labels, zero
// Metrics, a HostUFKind report. Under Options.SkipLabels the labeling
// itself is never materialized — the summary-only sweep produces the
// identical Stats (and so the identical wire response, minus the label
// array) at a fraction of the cost.
func (lb *Labeler) labelHost(img *bitmap.Bitmap) (*Result, error) {
	opt := lb.userOpt.withDefaults()
	if err := checkHostRun(opt, img.W(), img.H()); err != nil {
		return nil, err
	}
	if err := cancelCheck(lb.ctx); err != nil {
		return nil, err
	}
	if opt.SkipLabels {
		st := lb.hostLabeler().Summary(img, opt.Connectivity)
		return &Result{UF: hostReport(st), Summary: hostSummary(st, img)}, nil
	}
	labels, st := lb.hostLabeler().Label(img, opt.Connectivity)
	return &Result{Labels: labels, UF: hostReport(st), Summary: hostSummary(st, img)}, nil
}

// hostSummary lifts the host labeler's run-derived component summary
// (identical to seqcc.Summarize over the labels, at O(runs) instead of
// O(pixels)) into the result.
func hostSummary(st hostcc.Stats, img *bitmap.Bitmap) *Summary {
	return &Summary{W: img.W(), H: img.H(), Components: st.Components, Foreground: st.Foreground, Largest: st.Largest}
}

// aggregateHost answers Aggregate with the host engine; callers
// validated initial and op.
func (lb *Labeler) aggregateHost(img *bitmap.Bitmap, initial []int32, op Monoid) (*AggregateResult, error) {
	opt := lb.userOpt.withDefaults()
	if err := checkHostRun(opt, img.W(), img.H()); err != nil {
		return nil, err
	}
	if err := cancelCheck(lb.ctx); err != nil {
		return nil, err
	}
	labels, per, st := lb.hostLabeler().Aggregate(img, initial, op.Identity, op.Combine, opt.Connectivity)
	return &AggregateResult{PerPixel: per, Labels: labels, UF: hostReport(st), Summary: hostSummary(st, img)}, nil
}

// composeHostStrips is the host-engine compose path behind
// ComposeStrips/ComposeAggregateStrips (out/op non-nil on aggregation
// runs): the cluster coordinator fans strips to backends under
// cost=host and stitches the answers here. The strip labelings are
// already globalized into global; the stitch reuses the seam
// machinery's label (and fold) rewrite with the seam forced to the
// host model — no seam machine is built, and the charged phases are
// discarded, because a host-engine answer carries no Metrics. The
// composed labels are bit-identical to one whole-image host run (the
// tiler's own invariant), and the UF report folds the strips' and the
// stitch's operation counts under HostUFKind.
func (lb *Labeler) composeHostStrips(img *bitmap.Bitmap, global *bitmap.LabelMap, runs []StripRun, out []int32, op *Monoid, opt Options) (UFReport, SpecStats) {
	hostOpt := opt
	hostOpt.Seam = SeamHost
	_, seamStats, _ := lb.stitchSeams(img, global, out, op, opt.ArrayWidth, hostOpt)
	rep := UFReport{Kind: HostUFKind}
	var spec SpecStats
	for _, run := range runs {
		rep.Finds += run.UF.Finds
		rep.Unions += run.UF.Unions
		spec.Sends += run.Speculation.Sends
		spec.Wasted += run.Speculation.Wasted
	}
	rep.Finds += seamStats.finds
	rep.Unions += seamStats.unions
	return rep, spec
}
