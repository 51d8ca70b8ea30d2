package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"slapcc/internal/bitmap"
	"slapcc/internal/obs"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

// The strip-mined tiler: a real SLAP has a fixed PE count, but the images
// worth labeling do not. When 0 < Options.ArrayWidth < img.W(), Label and
// Aggregate partition the w×h image into vertical strips of at most
// ArrayWidth columns and take one strip path (runLarge): each strip is a
// whole-image run on the fixed-width machine (zero-copy bitmap.Strip
// views over one warm arena set, or fanned across a LabelerPool), and
// one compose (composeStrips) stitches the strip-boundary seams with a
// metered union–find pass, relabeling to the global canonical
// least-column-major labels. A nil *Monoid means a label run; with a
// monoid each strip runs the Corollary 4 aggregation over its window of
// the initial values, and the same stitch additionally combines the
// per-strip component folds under the monoid. Labels and per-pixel
// aggregates are bit-identical to whole-image runs.
//
// # Schedule models
//
// Composed metrics follow one of two documented schedule models
// (Options.Schedule; full equations in docs/METRICS.md):
//
//   - ScheduleSequential (default): the strips execute back to back on
//     the one physical array (slap.Metrics.MergeSequential). Per-phase
//     makespans and traffic sum across strips, queue peaks and per-PE
//     memory max, N is the physical array width (the last strip is
//     usually narrower; its surplus PEs idle and charge nothing), and
//     per-PE profiles are dropped.
//   - SchedulePipelined: the array double-buffers its column memory, so
//     strip s+1's O(h) input phase streams in while strip s's sweeps run
//     (slap.Metrics.MergePipelined), and every boundary column except
//     the final strip's streams off under the following strips' compute.
//     Work totals are identical to the sequential model's; only the
//     composed Time (and the seam-merge critical path) shrink.
//
// StripWorkers only changes host wall time, never the composed metrics.
//
// # Seam accounting
//
// The stitch is charged as a "seam-merge" phase under the run's cost
// model:
//
//   - offload: each seam's two boundary label columns cross one link,
//     2h one-word records per seam (WordSteps each, counted in
//     Sends/Words); under SchedulePipelined only the final column's h
//     words remain on the critical path (the rest overlap compute);
//   - scan: one LocalStep per seam row to inspect the left boundary
//     pixel, plus one per adjacency probe into the right column (1 probe
//     under Conn4, up to 3 clipped probes under Conn8) for each left
//     1-pixel;
//   - stitch: one LocalStep per recorded seam edge (label interning),
//     the metered union–find steps of the unions and the per-label finds
//     (operation counts instead when UnitCostUF), and one LocalStep per
//     distinct boundary label per fold — the class-minimum fold, plus
//     the class-total fold on aggregation runs.
//
// The relabel itself is charged per Options.Seam:
//
//   - SeamDistributed (default): the remap table — one record per
//     boundary label whose canonical label (or component total) changed
//     — is broadcast down the array as a metered "seam-broadcast" sweep
//     (2-word records; 3-word on aggregation runs, which carry the
//     combined total), and every PE rewrites the columns it holds in a
//     "seam-rewrite" local phase: one LocalStep per foreground pixel
//     examined plus one per pixel rewritten. Both phases execute on a
//     real simulated machine, so their makespans are the systolic ones.
//   - SeamHost: the relabel is a sequential host pass folded into
//     seam-merge — one LocalStep per rewritten pixel — exactly the
//     original strip-mining model, kept selectable for comparison.
//
// Seam work is O(h·strips + rewritten pixels): lower-order next to the
// Θ(w·h) labeling work unless strips are extremely narrow. On the host
// the stitch likewise reads only the boundary columns; the one pass
// over every pixel that follows is the globalizing copy into the
// composed map, which relabels and summarizes on the way.

// StripRun is one strip's completed whole-image run, ready for seam
// composition: the strip-local labeling (least strip-local column-major
// labels, exactly what Label returns for the strip on its own), its
// simulated metrics, and its union–find report. PerPixel carries the
// strip's per-pixel fold on aggregation runs and is nil otherwise.
//
// The split between running strips and composing them is the cluster
// seam: the tiler produces StripRuns locally; the slapfront
// coordinator produces them by fanning strips out to slapd backends
// over the wire. Either way ComposeStrips stitches them into a result
// bit-identical to the whole-image run.
type StripRun struct {
	Labels      *bitmap.LabelMap
	Metrics     slap.Metrics
	UF          UFReport
	Speculation SpecStats
	PerPixel    []int32
}

// ComposeStrips stitches already-run strips into the whole-image
// result: runs[s] must be the whole-image run of the strip covering
// columns [s·aw, min((s+1)·aw, w)) of img, where aw = opt.ArrayWidth.
// With op nil the runs are labelings; under op each run's PerPixel must
// hold the strip's own Corollary 4 fold, and the stitch additionally
// combines the per-strip folds of seam-crossing components. The result
// — labels, per-pixel folds, composed metrics under opt.Schedule, seam
// phases under opt.Seam, union–find report — is bit-identical to
// Run(ctx, img, initial, op, opt), which strip-mines through the same
// composition (when the runs were aggregated over the matching windows
// of initial).
func ComposeStrips(img *bitmap.Bitmap, runs []StripRun, op *Monoid, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if op != nil && op.Combine == nil {
		return nil, fmt.Errorf("core: monoid %q has no Combine", op.Name)
	}
	if err := checkCompose(img, runs, opt, op != nil); err != nil {
		return nil, err
	}
	// A labeler goes back to the pool only after a completed compose:
	// the stitch's dense tables are clean between stitches, not midway.
	lb := labelerPool.Get().(*Labeler)
	lb.userOpt = opt
	res := lb.composeStrips(img, runs, op, opt)
	labelerPool.Put(lb)
	return res, nil
}

// checkCompose validates a ComposeStrips call: a genuinely strip-mined
// width, the right strip count, and per-strip dimensions that match the
// spans the width implies.
func checkCompose(img *bitmap.Bitmap, runs []StripRun, opt Options, agg bool) error {
	w, h := img.W(), img.H()
	if err := opt.validate(w, h); err != nil {
		return err
	}
	aw := opt.ArrayWidth
	if aw <= 0 || aw >= w {
		return fmt.Errorf("core: ComposeStrips needs 0 < ArrayWidth < image width (got %d for width %d)", aw, w)
	}
	strips := (w + aw - 1) / aw
	if len(runs) != strips {
		return fmt.Errorf("core: %d strip runs for %d strips (width %d, array %d)", len(runs), strips, w, aw)
	}
	for s, run := range runs {
		_, sw := stripSpan(w, aw, s)
		if run.Labels == nil || run.Labels.W() != sw || run.Labels.H() != h {
			return fmt.Errorf("core: strip %d labels are %v, want %dx%d", s, dimsOf(run.Labels), sw, h)
		}
		if agg && len(run.PerPixel) != sw*h {
			return fmt.Errorf("core: strip %d per-pixel fold has %d values, want %d", s, len(run.PerPixel), sw*h)
		}
	}
	return nil
}

// dimsOf formats a label map's dimensions for error text (nil-safe).
func dimsOf(lm *bitmap.LabelMap) string {
	if lm == nil {
		return "nil"
	}
	return fmt.Sprintf("%dx%d", lm.W(), lm.H())
}

// seamPhaseNames are the phases a strip-mined run's seam pass can
// emit, in execution order: the stitch itself, then — under the
// distributed relabel — the remap broadcast and the per-PE rewrite.
var seamPhaseNames = [...]string{"seam-merge", "seam-broadcast", "seam-rewrite"}

// SeamTime sums the makespans of every seam phase of a composed report
// ("seam-merge" alone under SeamHost; plus "seam-broadcast" and
// "seam-rewrite" under the default distributed relabel). Zero on
// whole-image runs, which have no seams.
func SeamTime(m slap.Metrics) int64 {
	var total int64
	for _, name := range seamPhaseNames {
		if p, ok := m.Phase(name); ok {
			total += p.Makespan
		}
	}
	return total
}

// stripSpan returns strip s's leftmost column and width.
func stripSpan(w, aw, s int) (x0, sw int) {
	x0 = s * aw
	sw = aw
	if w-x0 < sw {
		sw = w - x0
	}
	return x0, sw
}

// mergeStrip folds one strip's metrics into the composed report under
// the selected schedule model.
func mergeStrip(comp *slap.Metrics, opt Options, s slap.Metrics) {
	if opt.Schedule == SchedulePipelined {
		comp.MergePipelined(s)
	} else {
		comp.MergeSequential(s)
	}
}

// foldStripUF accumulates one strip's union–find report into the
// composed one (TotalSteps/MeanOpCost are finalized by finishStripUF).
func foldStripUF(rep *UFReport, steps, ops *int64, s UFReport) {
	rep.Finds += s.Finds
	rep.Unions += s.Unions
	*steps += s.TotalSteps
	*ops += s.Finds + s.Unions
	if s.MaxOpCost > rep.MaxOpCost {
		rep.MaxOpCost = s.MaxOpCost
	}
}

// finishStripUF folds the seam stitch's union–find stats and finalizes
// the derived fields.
func finishStripUF(rep *UFReport, steps, ops int64, seam seamUFStats) {
	rep.Finds += seam.finds
	rep.Unions += seam.unions
	steps += seam.steps
	ops += seam.finds + seam.unions
	if seam.maxOp > rep.MaxOpCost {
		rep.MaxOpCost = seam.maxOp
	}
	rep.TotalSteps = steps
	if ops > 0 {
		rep.MeanOpCost = float64(steps) / float64(ops)
	}
}

// stripTraceSpan opens one strip's trace span when the request context
// carries one (nil — a no-op span — otherwise), tagged with the strip
// index so /debug/requests attributes seam-adjacent stragglers.
func stripTraceSpan(ctx context.Context, s int) *obs.Span {
	ssp := obs.FromContext(ctx).Child("strip")
	if ssp != nil {
		ssp.Annotate("s=" + strconv.Itoa(s))
	}
	return ssp
}

// runLarge executes a strip-mined run: Algorithm CC per strip when op is
// nil, the Corollary 4 aggregation over initial otherwise (each strip
// sees the contiguous column-major window of initial its columns own —
// zero-copy, like the strip views themselves), then the compose.
// Callers guarantee 0 < ArrayWidth < img.W() and, with op, validated
// initial/op.
func (lb *Labeler) runLarge(img *bitmap.Bitmap, initial []int32, op *Monoid) (*Result, error) {
	opt := lb.userOpt.withDefaults()
	w, h := img.W(), img.H()
	if err := opt.validate(w, h); err != nil {
		return nil, err
	}
	aw := opt.ArrayWidth
	strips := (w + aw - 1) / aw

	// Strip runs are plain whole-image runs over strip views.
	stripOpt := opt
	stripOpt.ArrayWidth = 0
	stripOpt.StripWorkers = 0

	runs := make([]StripRun, strips)
	if opt.StripWorkers > 1 && strips > 1 {
		// Fan the independent strips across a pool of worker labelers;
		// results land in strip order, so everything downstream is
		// identical to the sequential path. The pool is cached on the
		// labeler, so a warm labeler's workers keep their arenas across
		// frames instead of rebuilding the pool per call.
		ctx := lb.ctx
		pool := lb.ensureStripPool(stripOpt, opt.StripWorkers, strips)
		errs := make([]error, strips)
		var wg sync.WaitGroup
		for s := 0; s < strips; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if errs[s] = cancelCheck(ctx); errs[s] != nil {
					return
				}
				ssp := stripTraceSpan(ctx, s)
				runs[s], errs[s] = runOn(pool, <-pool.free, func(wl *Labeler) (StripRun, error) {
					return wl.runStrip(img, initial, op, aw, s)
				})
				ssp.EndErr(errs[s])
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		// One warm arena set runs every strip in turn: the machine and
		// column arenas reset in place per strip, as across frames. A
		// cancelled request context stops the run between strips instead
		// of finishing the whole image.
		saved := lb.userOpt
		lb.userOpt = stripOpt
		defer func() { lb.userOpt = saved }()
		for s := 0; s < strips; s++ {
			if err := cancelCheck(lb.ctx); err != nil {
				return nil, err
			}
			ssp := stripTraceSpan(lb.ctx, s)
			run, err := lb.runStrip(img, initial, op, aw, s)
			ssp.EndErr(err)
			if err != nil {
				return nil, err
			}
			runs[s] = run
		}
	}

	return lb.composeStrips(img, runs, op, opt), nil
}

// runStrip runs strip s of an aw-column tiling of img as a whole-image
// run on lb: the labeling when op is nil, the aggregation over the
// strip's window of initial otherwise.
func (lb *Labeler) runStrip(img *bitmap.Bitmap, initial []int32, op *Monoid, aw, s int) (StripRun, error) {
	x0, sw := stripSpan(img.W(), aw, s)
	if op != nil {
		h := img.H()
		initial = initial[x0*h : (x0+sw)*h]
	}
	res, err := lb.runImage(img.StripView(x0, sw), initial, op)
	if err != nil {
		return StripRun{}, err
	}
	return StripRun{Labels: res.Labels, Metrics: res.Metrics, UF: res.UF, Speculation: res.Speculation, PerPixel: res.PerPixel}, nil
}

// composeStrips is the second half of a strip-mined run — stitch the
// seams, globalize and relabel the strip labelings in one pass, compose
// the report under the schedule model — shared by runLarge and the
// exported ComposeStrips (whose runs arrive from remote backends). On
// aggregation runs (op non-nil) it also places the strips' per-pixel
// folds, and the stitch combines the folds of seam-crossing components.
// The result carries the composed labeling's Summary, counted in the
// same pass.
func (lb *Labeler) composeStrips(img *bitmap.Bitmap, runs []StripRun, op *Monoid, opt Options) *Result {
	w, h := img.W(), img.H()
	aw := opt.ArrayWidth
	res := &Result{}
	if op != nil {
		res.PerPixel = make([]int32, w*h)
		for s, run := range runs {
			copy(res.PerPixel[s*aw*h:], run.PerPixel)
		}
	}

	tsp := obs.FromContext(lb.ctx).Child("stitch")
	if opt.Engine == EngineHost {
		lb.composeHostStrips(img, res, runs, op, opt)
		tsp.End()
		return res
	}
	seamPhases, seamStats, seamMem := lb.stitchSeams(img, res, runs, op, opt)
	tsp.End()

	// Compose the whole-run report under the selected schedule model.
	comp := slap.Metrics{N: aw}
	rep := UFReport{Kind: opt.UF}
	var steps, ops int64
	for _, run := range runs {
		mergeStrip(&comp, opt, run.Metrics)
		foldStripUF(&rep, &steps, &ops, run.UF)
		res.Speculation.Sends += run.Speculation.Sends
		res.Speculation.Wasted += run.Speculation.Wasted
	}
	for _, p := range seamPhases {
		comp.AppendPhase(p)
	}
	if seamMem > comp.PEMemory {
		comp.PEMemory = seamMem
	}
	finishStripUF(&rep, steps, ops, seamStats)
	res.Metrics = comp
	res.UF = rep
	return res
}

// ensureStripPool returns the labeler's cached strip-worker pool,
// rebuilding it when the options or worker count changed.
func (lb *Labeler) ensureStripPool(stripOpt Options, workers, strips int) *LabelerPool {
	if workers > strips {
		workers = strips
	}
	pool := lb.stripPool
	if pool == nil || lb.stripPoolOpt != stripOpt || pool.Workers() != workers {
		pool = NewLabelerPool(stripOpt, workers)
		lb.stripPool = pool
		lb.stripPoolOpt = stripOpt
	}
	return pool
}

// seamUFStats summarizes the stitch's union–find work for the composed
// UF report.
type seamUFStats struct {
	finds, unions int64
	steps         int64
	maxOp         int64
}

// labelSlot is the relabel pass's dense per-label state over one
// strip's window of the global label space, indexed by the label less
// the strip's x0·h offset, plus 1 (slot 0 is background's): remap is
// 0, or 1 + the label's pair index when the merge changed it; size
// counts the pixels of the strip piece the label names. One slot holds
// both, so a pixel's lookup and count touch one cache line.
type labelSlot struct {
	remap, size int32
}

// remapPair is one seam remap-table entry: a globalized strip-local
// label whose canonical label (or, on aggregation runs, component
// total) the stitch changed, with the class's canonical label and —
// on aggregation runs — its combined total.
type remapPair struct {
	old, canon, tot int32
}

// seamScratch is the labeler-owned arena for the seam stitch: the
// epoch-marked interner over boundary labels (the same structure the
// merge and aggregation steps use instead of per-call maps), the
// boundary label/value/edge/root/fold arrays, one reusable metered
// forest, the relabel pass's one-strip label table and per-boundary-
// label bookkeeping, and — for the distributed relabel — a private
// fixed-width machine that executes the seam-broadcast/seam-rewrite
// phases. The label table is all zero between strips (the pass clears
// each strip's window after it), so a warm labeler stitches seams with
// no per-call allocation beyond the composed label map and what the
// strip size and label count force on first growth.
type seamScratch struct {
	it       interner
	labels   []labelSlot // one strip's window of the label space (see labelSlot)
	vals     []int32
	acc      []int32 // per boundary label: its component's per-strip fold (aggregation only)
	edges    []unionfind.Pair
	roots    []int32
	classMin []int32
	classTot []int32
	pairs    []remapPair
	pairOf   []int32 // per boundary label: 0, or 1 + its pair index
	pieces   []int32 // per boundary label: its strip piece's pixel count
	byStrip  []int32 // boundary ids grouped by strip
	stripEnd []int32 // per strip: the end of its ids in byStrip
	classSz  []int32 // per class root: the composed component's pixel count
	colFG    []int64 // per column: foreground pixels (distributed rewrite charge)
	colRW    []int64 // per column: rewritten pixels
	forest   *unionfind.Forest
	meter    *unionfind.Meter
	m        *slap.Machine
	phases   [3]slap.PhaseMetrics // seam-merge [, seam-broadcast, seam-rewrite]
}

// stitchSeams composes the strip runs into res.Labels (and, on
// aggregation runs, rewrites res.PerPixel, which holds the strips'
// folds side by side) and sets res.Summary. It merges the components
// split across strip boundaries — a metered union–find over the global
// labels of adjacent boundary columns, read from the strip maps — and
// then makes one pass per strip that globalizes each pixel's label and
// relabels it through the dense remap table to its class's least label
// (which is the component's global least column-major position, since
// each class member is already the least position within its strip).
// On aggregation runs the stitch additionally combines the per-strip
// component folds of each class under op, and the pass writes the
// combined totals. The host work is O(boundary) for the stitch plus
// one O(w·h) memory-speed pass; the charged work is the model's (see
// the accounting above). It returns the charged seam phases, the
// union–find stats to fold into the run report, and the peak per-PE
// memory the distributed relabel declared.
func (lb *Labeler) stitchSeams(img *bitmap.Bitmap, res *Result, runs []StripRun, op *Monoid, opt Options) ([]slap.PhaseMetrics, seamUFStats, int64) {
	w, h := img.W(), img.H()
	aw := opt.ArrayWidth
	sc := &lb.seam
	seams := len(runs) - 1
	// Size the interner from the actual boundary population: distinct
	// boundary labels cannot exceed the boundary 1-pixel count (the
	// loose 2h·seams bound would balloon the table on sparse images at
	// narrow widths). Host-side sizing work only; nothing is charged.
	bound := 0
	for s := 0; s < seams; s++ {
		lcol := runs[s].Labels.ColumnSlice(runs[s].Labels.W() - 1)
		rcol := runs[s+1].Labels.ColumnSlice(0)
		for y := 0; y < h; y++ {
			bound += int(1+lcol[y]>>31) + int(1+rcol[y]>>31)
		}
	}
	sc.it.prepare(bound)
	sc.vals = sc.vals[:0]
	sc.acc = sc.acc[:0]
	sc.edges = sc.edges[:0]
	var scanSteps int64
	// intern returns the boundary id of global label g, assigning the
	// next one on first sight; fold is the piece's whole-strip fold
	// (any pixel of the piece carries it).
	intern := func(g, fold int32) int32 {
		i := sc.it.slot(g)
		if sc.it.live(i) {
			return sc.it.val[i]
		}
		id := int32(len(sc.vals))
		sc.it.set(i, g, id)
		sc.vals = append(sc.vals, g)
		if op != nil {
			sc.acc = append(sc.acc, fold)
		}
		return id
	}
	loDy, hiDy := 0, 0
	if opt.Connectivity == bitmap.Conn8 {
		loDy, hiDy = -1, 1
	}
	for s := 0; s < seams; s++ {
		left, right := runs[s], runs[s+1]
		swL := left.Labels.W()
		lcol := left.Labels.ColumnSlice(swL - 1)
		rcol := right.Labels.ColumnSlice(0)
		offL, offR := int32(s*aw*h), int32((s+1)*aw*h)
		var fold int32
		for y := 0; y < h; y++ {
			scanSteps++ // read the left boundary pixel
			if lcol[y] == bitmap.Background {
				continue
			}
			var a int32
			aSet := false
			for dy := loDy; dy <= hiDy; dy++ {
				ny := y + dy
				if ny < 0 || ny >= h {
					continue
				}
				scanSteps++ // one adjacency probe into the right column
				if rcol[ny] == bitmap.Background {
					continue
				}
				if !aSet {
					if op != nil {
						fold = left.PerPixel[(swL-1)*h+y]
					}
					a = intern(lcol[y]+offL, fold)
					aSet = true
				}
				if op != nil {
					fold = right.PerPixel[ny]
				}
				sc.edges = append(sc.edges, unionfind.Pair{X: a, Y: intern(rcol[ny]+offR, fold)})
			}
		}
	}

	cost := opt.Cost
	distributed := opt.Seam != SeamHost
	// Offload: each seam's two boundary label columns cross one link as
	// 2h one-word records.
	offload := int64(2*h) * int64(seams)

	var ufCharge, foldSteps int64
	var stats seamUFStats
	sc.pairs = sc.pairs[:0]
	if len(sc.edges) > 0 {
		if sc.forest == nil {
			sc.forest = unionfind.NewForest(0, unionfind.LinkBySize, unionfind.CompressFull)
			sc.meter = unionfind.NewMeter(sc.forest)
		}
		sc.forest.Reset(len(sc.vals))
		sc.meter.ResetStats()
		for _, e := range sc.edges {
			sc.meter.Union(int(e.X), int(e.Y))
		}
		roots := unionfind.GrowInt32(sc.roots, len(sc.vals))
		sc.roots = roots
		sc.meter.FindCostRange(len(sc.vals), roots)
		st := sc.meter.Stats()
		stats = seamUFStats{
			finds:  st.Finds,
			unions: st.Unions,
			steps:  st.FindSteps + st.UnionSteps,
			maxOp:  sc.meter.MaxOpCost(),
		}
		if opt.UnitCostUF {
			ufCharge = st.Finds + st.Unions
		} else {
			ufCharge = stats.steps
		}

		// Least label per class; then the remap entries of the labels
		// the merge changed. Each class member label is the least global
		// position of its component's pixels within one strip, so the
		// class minimum is the component's global least position. On
		// aggregation runs, the class total — the op-fold of the member
		// pieces' strip folds — is computed alongside; each piece
		// contributes exactly once, which non-idempotent monoids need.
		classMin := fillNeg(unionfind.GrowInt32(sc.classMin, len(sc.vals)))
		sc.classMin = classMin
		var classTot []int32
		for id, v := range sc.vals {
			foldSteps++
			if r := roots[id]; classMin[r] == -1 || v < classMin[r] {
				classMin[r] = v
			}
		}
		if op != nil {
			classTot = unionfind.GrowInt32(sc.classTot, len(sc.vals))
			sc.classTot = classTot
			for i := range classTot {
				classTot[i] = op.Identity
			}
			for id := range sc.vals {
				foldSteps++
				r := roots[id]
				classTot[r] = op.Combine(classTot[r], sc.acc[id])
			}
		}
		// A remap pair for every label the merge changed.
		sc.pairOf = unionfind.GrowInt32(sc.pairOf, len(sc.vals))
		for id, v := range sc.vals {
			r := roots[id]
			sc.pairOf[id] = 0
			if classMin[r] != v || (op != nil && classTot[r] != sc.acc[id]) {
				p := remapPair{old: v, canon: classMin[r]}
				if op != nil {
					p.tot = classTot[r]
				}
				sc.pairs = append(sc.pairs, p)
				sc.pairOf[id] = int32(len(sc.pairs))
			}
		}
	}

	rewrites := lb.relabelStrips(res, runs, w, h, aw, distributed)

	edgeSteps := int64(len(sc.edges))
	local := scanSteps + edgeSteps + ufCharge + foldSteps
	if !distributed {
		local += rewrites
	}
	seamMerge := slap.PhaseMetrics{Name: "seam-merge"}
	seamMerge.Sends = offload
	seamMerge.Words = offload
	seamMerge.Busy = cost.WordSteps*offload + cost.LocalStep*local
	if opt.Schedule == SchedulePipelined {
		// Every boundary column except the final strip's streamed off
		// the array while the following strips computed; one h-word
		// column remains on the critical path before the host stitch.
		seamMerge.Makespan = cost.WordSteps*int64(h) + cost.LocalStep*local
	} else {
		seamMerge.Makespan = seamMerge.Busy
	}
	sc.phases[0] = seamMerge
	var peMem int64
	if !distributed {
		return sc.phases[:1], stats, 0
	}
	sc.phases[1], sc.phases[2], peMem = lb.seamArrayPhases(w, aw, op != nil, len(sc.pairs) > 0, cost)
	return sc.phases[:3], stats, peMem
}

// relabelStrips is the stitch's one pass over the pixels: strip by
// strip (each a contiguous block of the column-major global map) it
// writes every pixel's global label — its strip-local label plus the
// strip's x0·h offset, or the canonical label of its remap pair — and,
// on aggregation runs, the combined total over a rewritten pixel's
// fold. Each strip runs against its own window of the label table,
// with the remap entries of the strip's changed labels set before and
// the window cleared after, so the table stays the size of one strip
// and hot in cache. Alongside it counts res.Summary — each strip
// piece's pixels, then the stitch's classes as the sums of their
// pieces — and, when the relabel is distributed, each column's
// foreground and rewritten pixels (the seam-rewrite charge). It returns
// the number of rewritten pixels.
func (lb *Labeler) relabelStrips(res *Result, runs []StripRun, w, h, aw int, distributed bool) int64 {
	sc := &lb.seam
	global := bitmap.NewLabelMapNoInit(w, h)
	lab := global.Labels()
	res.Summary = &Summary{W: w, H: h, Foreground: w * h}
	if distributed {
		sc.colFG = growInt64(sc.colFG, w)
		sc.colRW = growInt64(sc.colRW, w)
	}
	if len(sc.labels) <= aw*h {
		sc.labels = make([]labelSlot, aw*h+1)
	}
	// Group the boundary labels by strip (a counting sort), so each
	// strip visits only its own.
	vals := sc.vals
	stripEnd := unionfind.GrowInt32(sc.stripEnd, len(runs))
	clear(stripEnd)
	for _, v := range vals {
		stripEnd[int(v)/(aw*h)]++
	}
	var start int32
	for s, n := range stripEnd {
		stripEnd[s] = start
		start += n
	}
	byStrip := unionfind.GrowInt32(sc.byStrip, len(vals))
	for id, v := range vals {
		s := int(v) / (aw * h)
		byStrip[stripEnd[s]] = int32(id)
		stripEnd[s]++
	}
	pieces := unionfind.GrowInt32(sc.pieces, len(vals))
	sc.stripEnd, sc.byStrip, sc.pieces = stripEnd, byStrip, pieces

	var rewrites int64
	var comps, largest int32
	var lo int32
	for s, run := range runs {
		x0 := s * aw
		off := int32(x0 * h)
		sw := run.Labels.W()
		tab := sc.labels[:sw*h+1]
		ids := byStrip[lo:stripEnd[s]]
		lo = stripEnd[s]
		for _, id := range ids {
			tab[vals[id]-off+1].remap = sc.pairOf[id]
		}
		src := run.Labels.Labels()
		for c := 0; c < sw; c++ {
			base := (x0 + c) * h
			col := src[c*h : (c+1)*h]
			bg := tab[0].size
			rw, colComps, colLargest := relabelColumn(lab[base:base+h], col, tab, sc.pairs, off)
			comps += colComps
			largest = max(largest, colLargest)
			rewrites += int64(rw)
			if rw > 0 && res.PerPixel != nil {
				out := res.PerPixel[base : base+h]
				for y, l := range col {
					if l != bitmap.Background {
						if k := tab[l+1].remap; k != 0 {
							out[y] = sc.pairs[k-1].tot
						}
					}
				}
			}
			if distributed {
				sc.colFG[x0+c] = int64(h) - int64(tab[0].size-bg)
				sc.colRW[x0+c] = int64(rw)
			}
		}
		for _, id := range ids {
			pieces[id] = tab[vals[id]-off+1].size
		}
		// Slot 0 counted the strip's background, once as a piece.
		if tab[0].size > 0 {
			comps--
		}
		res.Summary.Foreground -= int(tab[0].size)
		clear(tab)
	}
	// Each class of boundary pieces is one component: its pieces were
	// counted apart, and its size is theirs summed.
	classSz := unionfind.GrowInt32(sc.classSz, len(vals))
	clear(classSz)
	sc.classSz = classSz
	for id, r := range sc.roots[:len(vals)] {
		classSz[r] += pieces[id]
		if int(r) != id {
			comps--
		}
	}
	for _, n := range classSz {
		largest = max(largest, n)
	}
	res.Labels = global
	res.Summary.Components = int(comps)
	res.Summary.Largest = int(largest)
	return rewrites
}

// relabelColumn writes one column of the composed labeling: dst[y] is
// col[y] + off, or the canonical label of its remap pair, and the
// label's slot in the strip's table counts the pixel. The loop is
// branch-free but for rewritten pixels: the table is indexed by label
// + 1, so a background pixel (label −1, which stays −1) counts in slot
// 0. It returns the rewritten pixels, the labels counted for the first
// time (slot 0's included), and the largest foreground count reached.
func relabelColumn(dst, col []int32, tab []labelSlot, pairs []remapPair, off int32) (rw, comps, largest int32) {
	dst = dst[:len(col)]
	for y, l := range col {
		bg := l >> 31 // −1 on background, 0 on foreground
		i := (l | bg) + 1
		g := (l + off) | bg // the global label
		if k := tab[i].remap; k != 0 {
			g = pairs[k-1].canon
			rw++
		}
		dst[y] = g
		n := tab[i].size + 1
		tab[i].size = n
		comps -= (n - 2) >> 31 // +1 when n == 1
		largest = max(largest, n&^bg)
	}
	return rw, comps, largest
}

// seamArrayPhases executes the distributed relabel on the seam machine —
// a real simulated array of the physical width — and returns its two
// phases plus the peak per-PE memory the remap table declared.
//
// seam-broadcast: the remap table enters at PE 0 and rides the links to
// the end of the array, one record per changed boundary label (2 words:
// old label, canonical label; 3 on aggregation runs, which also carry
// the class total), one LocalStep per PE per record for the table
// insert, eos-terminated like every Algorithm CC stream. The makespan is
// the systolic one: the last PE finishes ~(R + N) record times after the
// first.
//
// seam-rewrite: purely local; PE i holds column i of every strip (the
// array is reused, not replicated), and charges one LocalStep per
// foreground pixel it examines plus one per pixel it rewrites. When the
// remap table is empty the PEs skip their columns entirely.
func (lb *Labeler) seamArrayPhases(w, aw int, agg, changed bool, cost slap.CostModel) (bcast, rewrite slap.PhaseMetrics, peMem int64) {
	sc := &lb.seam
	if sc.m == nil {
		sc.m = slap.NewMachine(aw, cost)
	} else {
		sc.m.Reset(aw, cost)
	}
	m := sc.m
	recWords := uint8(2)
	if agg {
		recWords = 3
	}
	pairs := sc.pairs
	tableWords := int64(recWords) * int64(len(pairs))
	m.RunSweep("seam-broadcast", slap.LeftToRight, func(pe *slap.PE) {
		if pe.Index == 0 {
			for _, p := range pairs {
				pe.Tick(1) // table insert
				if pe.HasOut() {
					pe.Send(slap.Msg{Kind: msgLabel, A: p.old, B: p.canon, Words: recWords})
				}
			}
			if pe.HasOut() {
				pe.Send(slap.Msg{Kind: msgEOS})
			}
		} else {
			for {
				msg, ok := pe.RecvWait()
				if !ok {
					panic(fmt.Sprintf("core: PE %d: seam-broadcast stream ended without eos", pe.Index))
				}
				if msg.Kind == msgEOS {
					if pe.HasOut() {
						pe.Send(msg)
					}
					break
				}
				pe.Tick(1) // table insert
				if pe.HasOut() {
					pe.Send(msg)
				}
			}
		}
		pe.DeclareMemory(tableWords)
	})
	m.RunLocal("seam-rewrite", func(pe *slap.PE) {
		var ticks int64
		if changed {
			for x := pe.Index; x < w; x += aw {
				ticks += sc.colFG[x] + sc.colRW[x]
			}
		}
		pe.Tick(ticks)
	})
	return m.PhaseMetricsAt(0), m.PhaseMetricsAt(1), m.PEMemoryWords()
}

// growInt64 returns s grown to length n, zeroed.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		s = make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
