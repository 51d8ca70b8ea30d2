// Package hostcc is the host execution engine: a word-parallel two-pass
// connected-component labeler that computes the same canonical
// least-column-major labeling as the simulated SLAP — and the same
// Corollary 4 aggregate folds — without simulating anything. No phases,
// no metered union–find, no systolic accounting: just answers, at
// hundreds of megabytes per second instead of single digits.
//
// The algorithm is the classic run-based two-pass labeler (PAPERS.md:
// Gupta et al. 1606.05973), shaped for this repository's column-major
// packed bitsets:
//
//  1. Runs. Each column's bits arrive as a packed []uint64
//     (bitmap.ColumnWords); vertical runs of 1-pixels fall out of two
//     word-parallel masks — run starts are word &^ (word<<1 | carry),
//     run ends are word &^ (word>>1 | next<<63) — scanned with
//     bits.TrailingZeros64, so a solid column costs O(h/64), not O(h).
//  2. Unions. Adjacent columns' runs merge by a two-pointer sweep over
//     their sorted row intervals (8-connectivity widens each interval
//     by one row); a path-halving union–find linked by least run id
//     joins the runs. Runs are created in ascending column-major start
//     order, so every class's root is its least run — the one whose
//     start is the component's least column-major position — and
//     parents always point at smaller ids.
//  3. Resolve + fill. Because parents decrease, one ascending sweep
//     resolves every run's canonical label with a single array read
//     (a root mints base+y0, a non-root copies its parent's already
//     resolved label) — no find chains on the hot write path — and
//     writes the run's rows through LabelMap.ColumnSlice. Aggregation
//     folds each run's initial values once into its root
//     (exactly-once combination, which non-idempotent monoids like
//     sum require), then writes per-pixel totals alongside the labels.
//
// Everything lives in a reusable arena Labeler, pooled like the
// simulator's, so steady host-engine traffic allocates only the
// returned results. The engine is held bit-identical to the simulator
// across the whole family × connectivity × shape matrix by the
// cross-engine tests in internal/core.
package hostcc

import (
	"math/bits"
	"sync"

	"slapcc/internal/bitmap"
)

// Stats reports what a host run did: run (interval) counts and the
// union–find operation counts, for the UF report the service surfaces
// — the host engine charges no simulated steps — plus the component
// summary (count, foreground pixels, largest component), which the
// resolve sweep computes from the run structure for ~free, sparing
// result consumers a per-pixel summarization pass.
type Stats struct {
	Runs   int64
	Finds  int64
	Unions int64

	Components int
	Foreground int
	Largest    int
}

// Labeler is the host engine's reusable arena set: column word
// buffers, the flat run arrays, and the run union–find. Like the
// simulator's Labeler it is not safe for concurrent use, and the
// results it returns are independent of it.
type Labeler struct {
	words  []uint64 // one 64-column block of packed column bitsets
	runY0  []int32  // per run: first row
	runY1  []int32  // per run: last row
	colRun []int32  // per column: first run index; len w+1
	parent []int32  // run union–find, linked by least id: parent[r] ≤ r
	root   []int32  // per-run scratch: resolved root
	canon  []int32  // per-run scratch: resolved canonical label
	fold   []int32  // per-root: aggregate fold (aggregation only)
	size   []int32  // per-root: component pixel count (the summary)

	finds, unions int64
	fg, largest   int // component summary, accumulated by the resolve sweeps
}

// NewLabeler returns a reusable host-engine labeler.
func NewLabeler() *Labeler { return &Labeler{} }

// pool backs the package-level one-shot Label, mirroring the
// simulator's labelerPool: steady one-shot host traffic reuses warm
// arenas.
var pool = sync.Pool{New: func() any { return NewLabeler() }}

// Label labels img on a pooled host labeler. See Labeler.Label.
func Label(img *bitmap.Bitmap, conn bitmap.Connectivity) (*bitmap.LabelMap, Stats) {
	lb := pool.Get().(*Labeler)
	defer pool.Put(lb)
	return lb.Label(img, conn)
}

// Label computes the canonical component labeling of img: every
// component labeled with the least column-major position (x·H + y) of
// its pixels, background bitmap.Background — bit-identical to the
// simulator's Result.Labels for every image and connectivity.
func (lb *Labeler) Label(img *bitmap.Bitmap, conn bitmap.Connectivity) (*bitmap.LabelMap, Stats) {
	w, h := img.W(), img.H()
	// The fill sweep writes every slot exactly once — runs get their
	// label, the gaps between them get Background — so the map skips its
	// own Background prefill (a whole extra pass over W·H at this speed).
	out := bitmap.NewLabelMapNoInit(w, h)
	lb.runPass(img, conn)

	n := len(lb.runY0)
	lb.canon = growInt32(lb.canon, n)
	lb.root = growInt32(lb.root, n)
	lb.size = growInt32(lb.size, n)
	labv, roots, sizes := lb.canon, lb.root, lb.size
	runY0, runY1, parent := lb.runY0, lb.runY1, lb.parent
	for i := range sizes {
		sizes[i] = 0
	}
	lb.finds += int64(n) // one root resolution per run
	r := 0
	for x := 0; x < w; x++ {
		col := out.ColumnSlice(x)
		base := int32(x * h)
		gap := int32(0) // first row of the background gap before the next run
		for ; r < int(lb.colRun[x+1]); r++ {
			// Parents point at strictly smaller ids, so an ascending sweep
			// sees every parent's label already resolved: a root is its
			// class's least run (least column-major start = the canonical
			// label), a non-root copies its parent's label. Component sizes
			// fold into the roots along the same sweep — the summary costs
			// O(runs), not a per-pixel pass.
			var lab, root int32
			if p := parent[r]; p == int32(r) {
				lab, root = base+runY0[r], int32(r)
			} else {
				lab, root = labv[p], roots[p]
			}
			labv[r], roots[r] = lab, root
			y0, y1 := runY0[r], runY1[r]
			ln := y1 - y0 + 1
			lb.fg += int(ln)
			s := sizes[root] + ln
			sizes[root] = s
			if int(s) > lb.largest {
				lb.largest = int(s)
			}
			pre := col[gap:y0]
			for i := range pre {
				pre[i] = bitmap.Background
			}
			run := col[y0 : y1+1]
			for i := range run {
				run[i] = lab
			}
			gap = y1 + 1
		}
		tail := col[gap:]
		for i := range tail {
			tail[i] = bitmap.Background
		}
	}
	return out, lb.stats()
}

// Summary computes exactly the Stats a Label call would return — runs,
// operation counts, and the component summary — without materializing
// the per-pixel labeling: the same run pass, then an O(runs) resolve
// sweep that tracks only roots and component sizes. Summary-only
// service traffic (labels not requested) answers with this, skipping
// the fill sweep and the W·H label allocation that otherwise dominate
// a host frame.
func (lb *Labeler) Summary(img *bitmap.Bitmap, conn bitmap.Connectivity) Stats {
	lb.runPass(img, conn)

	n := len(lb.runY0)
	lb.root = growInt32(lb.root, n)
	lb.size = growInt32(lb.size, n)
	roots, sizes := lb.root, lb.size
	runY0, runY1, parent := lb.runY0, lb.runY1, lb.parent
	for i := range sizes {
		sizes[i] = 0
	}
	lb.finds += int64(n) // one root resolution per run
	for r := 0; r < n; r++ {
		root := int32(r)
		if p := parent[r]; p != int32(r) {
			root = roots[p]
		}
		roots[r] = root
		ln := runY1[r] - runY0[r] + 1
		lb.fg += int(ln)
		s := sizes[root] + ln
		sizes[root] = s
		if int(s) > lb.largest {
			lb.largest = int(s)
		}
	}
	return lb.stats()
}

// Aggregate computes the Corollary 4 aggregation on the host: the
// labeling plus, at every foreground position, the fold (under
// combine/identity) of initial over that pixel's whole component;
// background positions hold identity. initial is indexed by
// column-major position and must have length W·H (the caller
// validates). Values are bit-identical to the simulator's
// Result.PerPixel.
func (lb *Labeler) Aggregate(img *bitmap.Bitmap, initial []int32, identity int32, combine func(a, b int32) int32, conn bitmap.Connectivity) (*bitmap.LabelMap, []int32, Stats) {
	w, h := img.W(), img.H()
	// Like Label, pass B writes every label slot (runs and gaps), so the
	// map skips its Background prefill; per still prefills identity —
	// pass B only touches its foreground positions.
	out := bitmap.NewLabelMapNoInit(w, h)
	per := make([]int32, w*h)
	for i := range per {
		per[i] = identity
	}
	lb.runPass(img, conn)

	n := len(lb.runY0)
	lb.canon = growInt32(lb.canon, n)
	lb.fold = growInt32(lb.fold, n)
	lb.root = growInt32(lb.root, n)
	lb.size = growInt32(lb.size, n)
	canon, fold, roots, sizes := lb.canon, lb.fold, lb.root, lb.size
	for i := range sizes {
		sizes[i] = 0
	}
	lb.finds += int64(n) // one root resolution per run

	// Pass A: fold each run's initial values once into its class — the
	// exactly-once combination non-idempotent monoids need — resolving
	// roots, canonical labels, and the component summary along the same
	// ascending sweep (parents point at smaller, already resolved ids; a
	// root is its class's least run, whose start is the canonical label).
	r := 0
	for x := 0; x < w; x++ {
		base := x * h
		for ; r < int(lb.colRun[x+1]); r++ {
			acc := identity
			for _, v := range initial[base+int(lb.runY0[r]) : base+int(lb.runY1[r])+1] {
				acc = combine(acc, v)
			}
			var root int32
			if p := lb.parent[r]; p == int32(r) {
				root = int32(r)
				roots[r] = root
				canon[r] = int32(base) + lb.runY0[r]
				fold[r] = acc
			} else {
				root = roots[p]
				roots[r] = root
				canon[r] = canon[p]
				fold[root] = combine(fold[root], acc)
			}
			ln := lb.runY1[r] - lb.runY0[r] + 1
			lb.fg += int(ln)
			s := sizes[root] + ln
			sizes[root] = s
			if int(s) > lb.largest {
				lb.largest = int(s)
			}
		}
	}

	// Pass B: write labels (runs and background gaps) and the finished
	// class totals.
	r = 0
	for x := 0; x < w; x++ {
		col := out.ColumnSlice(x)
		base := x * h
		gap := 0 // first row of the background gap before the next run
		for ; r < int(lb.colRun[x+1]); r++ {
			lab, tot := canon[r], fold[roots[r]]
			y0, y1 := int(lb.runY0[r]), int(lb.runY1[r])
			pre := col[gap:y0]
			for i := range pre {
				pre[i] = bitmap.Background
			}
			runLab := col[y0 : y1+1]
			runTot := per[base+y0 : base+y1+1]
			for i := range runLab {
				runLab[i] = lab
				runTot[i] = tot
			}
			gap = y1 + 1
		}
		tail := col[gap:]
		for i := range tail {
			tail[i] = bitmap.Background
		}
	}
	return out, per, lb.stats()
}

// runPass extracts every column's vertical runs from the packed column
// words and unions vertically adjacent runs of neighboring columns —
// the whole connectivity structure, built in one left-to-right sweep.
func (lb *Labeler) runPass(img *bitmap.Bitmap, conn bitmap.Connectivity) {
	w, h := img.W(), img.H()
	hw := (h + 63) >> 6
	lb.runY0 = lb.runY0[:0]
	lb.runY1 = lb.runY1[:0]
	lb.parent = lb.parent[:0]
	lb.colRun = append(lb.colRun[:0], 0)
	lb.finds, lb.unions = 0, 0
	lb.fg, lb.largest = 0, 0

	widen := int32(0)
	if conn == bitmap.Conn8 {
		widen = 1 // a diagonal touch is row-interval overlap widened by one
	}
	maxCol := (h + 1) / 2 // a column holds at most ⌈h/2⌉ runs
	prevLo := 0
	for x := 0; x < w; x++ {
		// Columns arrive 64 at a time through the blocked bit transpose —
		// the per-column, per-row bit gather was the hottest single loop
		// in the engine.
		if x&63 == 0 {
			lb.words = img.ColumnWordsBlock(x, lb.words)
		}
		words := lb.words[(x&63)*hw : (x&63)*hw+hw]
		// Reserve this column's worst case up front so the emission loop
		// writes runs by index — three appends per run (len/cap checks and
		// length updates ×~runs×3) were a measurable slice of the pass.
		curLo := len(lb.runY0)
		lb.runY0 = growTo(lb.runY0, curLo+maxCol)[:curLo]
		lb.runY1 = growTo(lb.runY1, curLo+maxCol)[:curLo]
		lb.parent = growTo(lb.parent, curLo+maxCol)[:curLo]
		runY0 := lb.runY0[:curLo+maxCol]
		runY1 := lb.runY1[:curLo+maxCol]
		n := curLo
		inRun := false
		var y0 int32
		for wi, word := range words {
			if word == 0 {
				// A run never spans an all-zero word: its end was emitted
				// from the previous word's mask (the lookahead bit was 0).
				continue
			}
			var carry, next uint64
			if wi > 0 {
				carry = words[wi-1] >> 63
			}
			if wi+1 < len(words) {
				next = words[wi+1] & 1
			}
			starts := word &^ (word<<1 | carry)
			ends := word &^ (word>>1 | next<<63)
			base := int32(wi << 6)
			// Starts and ends strictly alternate in bit order; each end
			// closes either the run carried in from below or the lowest
			// un-popped start.
			for ends != 0 {
				if !inRun {
					y0 = base + int32(bits.TrailingZeros64(starts))
					starts &= starts - 1
				}
				runY0[n] = y0
				runY1[n] = base + int32(bits.TrailingZeros64(ends))
				n++
				ends &= ends - 1
				inRun = false
			}
			if starts != 0 { // exactly one start can remain: a run crossing into the next word
				y0 = base + int32(bits.TrailingZeros64(starts))
				inRun = true
			}
		}
		curHi := n
		lb.runY0 = lb.runY0[:curHi]
		lb.runY1 = lb.runY1[:curHi]
		lb.parent = lb.parent[:curHi]
		for r := curLo; r < curHi; r++ {
			lb.parent[r] = int32(r)
		}
		// Two-pointer merge against the previous column's runs. Runs in a
		// column are separated by at least one background row, so the
		// widened intervals' low ends still ascend and pi never backtracks.
		pi := prevLo
		for ci := curLo; ci < curHi; ci++ {
			lo, hi := runY0[ci]-widen, runY1[ci]+widen
			for pi < curLo && runY1[pi] < lo {
				pi++
			}
			for pj := pi; pj < curLo && runY0[pj] <= hi; pj++ {
				lb.union(int32(pj), int32(ci))
			}
		}
		prevLo = curLo
		lb.colRun = append(lb.colRun, int32(curHi))
	}
}

// growTo returns s with capacity at least n, preserving contents.
func growTo(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s
	}
	ns := make([]int32, len(s), max(n, 2*cap(s)))
	copy(ns, s)
	return ns
}

// find returns r's root with path halving, counting the operation.
func (lb *Labeler) find(r int32) int32 {
	lb.finds++
	p := lb.parent
	for p[r] != r {
		p[r] = p[p[r]]
		r = p[r]
	}
	return r
}

// union links a's and b's classes under the smaller root id, counting
// effective unions. Least-id linking keeps parents strictly decreasing
// (path halving preserves it), which is what lets the resolve sweeps
// replace per-run find chains with one sequential pass, and makes every
// class's root the run holding the canonical label.
func (lb *Labeler) union(a, b int32) {
	ra, rb := lb.find(a), lb.find(b)
	if ra == rb {
		return
	}
	lb.unions++
	if ra > rb {
		ra, rb = rb, ra
	}
	lb.parent[rb] = ra
}

func (lb *Labeler) stats() Stats {
	n := len(lb.runY0)
	return Stats{
		Runs: int64(n), Finds: lb.finds, Unions: lb.unions,
		// Every effective union merges two classes into one, so the class
		// count is runs − unions.
		Components: n - int(lb.unions),
		Foreground: lb.fg,
		Largest:    lb.largest,
	}
}

// growInt32 returns s with length n, reusing capacity (contents
// unspecified).
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
