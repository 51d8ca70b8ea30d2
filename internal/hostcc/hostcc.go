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
//  1. Runs. Each column's bits arrive as a packed []uint64, 64 columns
//     at a time (bitmap.Image.ColumnWordsBlock, from a whole Bitmap or a
//     zero-copy Strip view); vertical runs of 1-pixels fall out of two
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
//     resolves every run's root with a single array read (a root mints
//     the canonical label base+y0, a non-root copies its parent's
//     already resolved root) — no find chains on the hot path — and a
//     fill sweep writes each run's rows through LabelMap.ColumnSlice.
//     Aggregation folds each run's initial values once into its root
//     (exactly-once combination, which non-idempotent monoids like
//     sum require), then writes per-pixel totals alongside the labels.
//
// Large frames run in column bands, one per core (Chen et al.
// 1708.08180's block-local union–find, with the blocks cut at word
// columns). The SLAP gives each column its own processor and only
// ever unions adjacent columns, so a band of 64-aligned columns runs
// steps 1–3 alone, with band-local run ids; the seams between bands
// are then stitched sequentially with the same two-pointer sweep,
// over band roots whose global id is the band's prefix offset plus the
// local id, still linked by least id. Every class's root therefore
// stays its least run, and the labels, folds and Stats are identical
// to one band's at every band count. One band is the whole path for
// small frames: it has no seam to stitch.
//
// Everything lives in a reusable arena Labeler, pooled like the
// simulator's, so steady host-engine traffic allocates only the
// returned results. The engine is held bit-identical to the simulator
// across the whole family × connectivity × shape matrix by the
// cross-engine tests in internal/core.
package hostcc

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"slapcc/internal/bitmap"
)

// minBandPixels is the least frame area per band. Summary on random
// 0.5-density frames at GOMAXPROCS 2 on a 2-vCPU Xeon, one band against
// two (BenchmarkSummaryBands, medians of 10 runs): 128² 0.147 vs
// 0.161 ms (0.91×), 256² 0.71 vs 0.47 ms (1.5×), 512² 2.75 vs 1.58 ms
// (1.74×), 1024² 12.1 vs 6.5 ms (1.87×), 2048² 47.5 vs 26.4 ms (1.80×).
// With two frames labeled at once, so that no core idles, two bands
// cost the same as one within noise from 256² to 1024². The split
// first wins at 2^15 pixels a band; the constant keeps four times
// that, so a frame of up to 2^17 pixels (256², a 128×512 strip) stays
// on one band and 512² is the smallest frame that splits.
const minBandPixels = 1 << 17

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
// buffers, the flat run arrays, and the run union–find, for each of
// its column bands. Like the simulator's Labeler it is not safe for
// concurrent use, and the results it returns are independent of it.
type Labeler struct {
	words  []uint64 // one 64-column block of packed column bitsets
	runY0  []int32  // per run: first row
	runY1  []int32  // per run: last row
	colRun []int32  // per band column: first run index; len x1−x0+1
	parent []int32  // run union–find, linked by least id: parent[r] ≤ r (see seamFind for links between bands)
	root   []int32  // per run: resolved band root
	canon  []int32  // per band root: canonical label (Label and Aggregate)
	fold   []int32  // per band root: aggregate fold (Aggregate)
	size   []int32  // per band root: component pixel count (the summary)

	finds, unions int64
	fg, largest   int // component summary, accumulated by the resolve sweeps and the stitch

	x0, x1 int   // the band's columns
	off    int32 // global id of the band's first run

	// bands are the column bands of the current frame; bands[0] is the
	// labeler itself, and the others keep their arenas across frames.
	bands []*Labeler
	// forceBands, when non-zero, replaces the core and area terms of the
	// band count; tests use it to split small frames.
	forceBands int
	job        job // the current call's, shared by its bands
}

// NewLabeler returns a reusable host-engine labeler.
func NewLabeler() *Labeler { return &Labeler{} }

// pool backs the package-level one-shot Label, mirroring the
// simulator's labelerPool: steady one-shot host traffic reuses warm
// arenas.
var pool = sync.Pool{New: func() any { return NewLabeler() }}

// Label labels img on a pooled host labeler. See Labeler.Label.
func Label(img bitmap.Image, conn bitmap.Connectivity) (*bitmap.LabelMap, Stats) {
	lb := pool.Get().(*Labeler)
	defer pool.Put(lb)
	return lb.Label(img, conn)
}

// Label computes the canonical component labeling of img: every
// component labeled with the least column-major position (x·H + y) of
// its pixels, background bitmap.Background — bit-identical to the
// simulator's Result.Labels for every image and connectivity. img may
// be a whole Bitmap or a zero-copy Strip view of one.
func (lb *Labeler) Label(img bitmap.Image, conn bitmap.Connectivity) (*bitmap.LabelMap, Stats) {
	// The fill sweep writes every slot exactly once — runs get their
	// label, the gaps between them get Background — so the map skips its
	// own Background prefill (a whole extra pass over W·H at this speed).
	labels := bitmap.NewLabelMapNoInit(img.W(), img.H())
	return labels, lb.run(job{img: img, conn: conn, labels: labels})
}

// Summary computes exactly the Stats a Label call would return — runs,
// operation counts, and the component summary — without materializing
// the per-pixel labeling: the same run pass, then an O(runs) resolve
// sweep that tracks only roots and component sizes. Summary-only
// service traffic (labels not requested) answers with this, skipping
// the fill sweep and the W·H label allocation that otherwise dominate
// a host frame.
func (lb *Labeler) Summary(img bitmap.Image, conn bitmap.Connectivity) Stats {
	return lb.run(job{img: img, conn: conn})
}

// Aggregate computes the Corollary 4 aggregation on the host: the
// labeling plus, at every foreground position, the fold (under
// combine/identity) of initial over that pixel's whole component;
// background positions hold identity. initial is indexed by
// column-major position and must have length W·H (the caller
// validates). combine must be associative and commutative, as
// core.Monoid documents: bands fold their columns separately and the
// stitch combines their totals. Values are bit-identical to the
// simulator's Result.PerPixel.
func (lb *Labeler) Aggregate(img bitmap.Image, initial []int32, identity int32, combine func(a, b int32) int32, conn bitmap.Connectivity) (*bitmap.LabelMap, []int32, Stats) {
	w, h := img.W(), img.H()
	// Like Label's, the fill writes every label and per-pixel slot (runs
	// and gaps), so neither is prefilled.
	j := job{
		img: img, conn: conn,
		labels: bitmap.NewLabelMapNoInit(w, h), per: make([]int32, w*h),
		initial: initial, identity: identity, combine: combine,
	}
	return j.labels, j.per, lb.run(j)
}

// job is one call's inputs and outputs. Every band reads it and writes
// only its own columns of labels and per.
type job struct {
	img    bitmap.Image
	conn   bitmap.Connectivity
	labels *bitmap.LabelMap // nil on a Summary call
	// Aggregate only; combine is nil otherwise.
	per, initial []int32
	identity     int32
	combine      func(a, b int32) int32
}

// run labels j.img band by band: each band extracts, unions and
// resolves its own columns, the seams are stitched, and, unless the
// call is a Summary, each band fills its columns of the labels and
// folds. The job is held on the labeler only for the call, so a pooled
// labeler keeps no image or result alive.
func (lb *Labeler) run(j job) Stats {
	lb.job = j
	defer func() { lb.job = job{} }()
	lb.split(j.img.W(), j.img.H())
	lb.eachBand((*Labeler).scan)
	lb.stitch()
	if j.labels != nil {
		lb.eachBand((*Labeler).fill)
	}
	return lb.stats()
}

// split cuts a w×h frame into column bands of whole 64-column blocks:
// one per core, each at least minBandPixels, never more than the
// blocks. The count is worked out from the frame and the machine, so
// there is nothing to configure.
func (lb *Labeler) split(w, h int) {
	n := lb.forceBands
	if n == 0 {
		if n = w * h / minBandPixels; n > 1 {
			n = min(n, runtime.GOMAXPROCS(0))
		}
	}
	blocks := (w + 63) >> 6
	n = max(1, min(n, blocks))
	if cap(lb.bands) < n {
		bands := make([]*Labeler, n)
		copy(bands, lb.bands[:cap(lb.bands)])
		lb.bands = bands
	}
	lb.bands = lb.bands[:n] // reslicing keeps the arenas of bands past n
	lb.bands[0] = lb
	for i := range lb.bands {
		if lb.bands[i] == nil {
			lb.bands[i] = NewLabeler()
		}
		b := lb.bands[i]
		b.x0 = min(w, (i*blocks/n)<<6)
		b.x1 = min(w, ((i+1)*blocks/n)<<6)
	}
}

// eachBand runs f on every band, the first on the caller's goroutine
// and the others on goroutines of their own, and returns once all of
// them have. A panic in a band goroutine is recovered there and raised
// again here, on the caller's goroutine, so a recover above the
// labeler (slapd's per-request one) still catches it.
func (lb *Labeler) eachBand(f func(b *Labeler, j *job)) {
	j := &lb.job
	if len(lb.bands) == 1 {
		f(lb, j)
		return
	}
	var wg sync.WaitGroup
	var once sync.Once
	var bandPanic any
	for _, b := range lb.bands[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { bandPanic = p })
				}
			}()
			f(b, j)
		}()
	}
	func() {
		defer wg.Wait() // a panicking first band still waits for the others
		f(lb, j)
	}()
	if bandPanic != nil {
		panic(bandPanic)
	}
}

// runPass extracts every column's vertical runs from the packed column
// words and unions vertically adjacent runs of neighboring columns —
// the band's whole connectivity structure, built in one left-to-right
// sweep.
func (lb *Labeler) runPass(img bitmap.Image, conn bitmap.Connectivity) {
	h := img.H()
	hw := (h + 63) >> 6
	lb.runY0 = lb.runY0[:0]
	lb.runY1 = lb.runY1[:0]
	lb.parent = lb.parent[:0]
	lb.colRun = append(lb.colRun[:0], 0)
	lb.finds, lb.unions = 0, 0

	widen := int32(0)
	if conn == bitmap.Conn8 {
		widen = 1 // a diagonal touch is row-interval overlap widened by one
	}
	maxCol := (h + 1) / 2 // a column holds at most ⌈h/2⌉ runs
	prevLo := 0
	for x := lb.x0; x < lb.x1; x++ {
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

// scan is a band's first phase: its run pass, then its resolve sweep.
func (lb *Labeler) scan(j *job) {
	lb.runPass(j.img, j.conn)
	lb.resolve(j)
}

// resolve is the band's ascending sweep. Parents point at strictly
// smaller ids, so each run's parent is resolved before the run is: a
// root is its class's least run, whose start is the class's canonical
// label, and a non-root takes its parent's root. Component sizes fold
// into the roots along the same sweep — the summary costs O(runs), not
// a per-pixel pass — and so, on an Aggregate call, does each run's
// fold of its initial values, combined exactly once.
func (lb *Labeler) resolve(j *job) {
	h := j.img.H()
	n := len(lb.runY0)
	lb.root = growInt32(lb.root, n)
	lb.size = growInt32(lb.size, n)
	clear(lb.size)
	if j.labels != nil {
		lb.canon = growInt32(lb.canon, n)
		if j.combine != nil {
			lb.fold = growInt32(lb.fold, n)
		}
	}
	roots, sizes, canon, fold := lb.root, lb.size, lb.canon, lb.fold
	runY0, runY1, parent := lb.runY0, lb.runY1, lb.parent
	lb.finds += int64(n) // one root resolution per run
	fg, largest := 0, int32(0)
	r := 0
	for x := lb.x0; x < lb.x1; x++ {
		base := int32(x * h)
		for end := int(lb.colRun[x-lb.x0+1]); r < end; r++ {
			root := int32(r)
			if p := parent[r]; p != root {
				root = roots[p]
			}
			roots[r] = root
			y0, y1 := runY0[r], runY1[r]
			ln := y1 - y0 + 1
			fg += int(ln)
			s := sizes[root] + ln
			sizes[root] = s
			largest = max(largest, s)
			if j.labels == nil {
				continue
			}
			if root == int32(r) {
				canon[r] = base + y0
			}
			if j.combine != nil {
				acc := j.identity
				for _, v := range j.initial[base+y0 : base+y1+1] {
					acc = j.combine(acc, v)
				}
				if root == int32(r) {
					fold[r] = acc
				} else {
					fold[root] = j.combine(fold[root], acc)
				}
			}
		}
	}
	lb.fg, lb.largest = fg, int(largest)
}

// stitch joins the bands' classes across every seam with the run
// pass's two-pointer sweep, between the last column of one band and
// the first of the next, two finds per touching pair as in the band.
// Each band root keeps its band's local parent array; a link between
// bands is by least global id, and carries the linked class's size
// (and fold) into the surviving root. The band roots a seam merged
// then take their surviving root's canonical label and fold, so each
// band can fill its own columns.
func (lb *Labeler) stitch() {
	j := &lb.job
	var off int32
	for _, b := range lb.bands {
		b.off = off
		off += int32(len(b.runY0))
	}
	widen := int32(0)
	if j.conn == bitmap.Conn8 {
		widen = 1
	}
	for i := 1; i < len(lb.bands); i++ {
		left, right := lb.bands[i-1], lb.bands[i]
		pi, pEnd := left.colRun[len(left.colRun)-2], left.colRun[len(left.colRun)-1]
		for ci := int32(0); ci < right.colRun[1]; ci++ {
			lo, hi := right.runY0[ci]-widen, right.runY1[ci]+widen
			for pi < pEnd && left.runY1[pi] < lo {
				pi++
			}
			for pj := pi; pj < pEnd && left.runY0[pj] <= hi; pj++ {
				lb.seamUnion(left.off+left.root[pj], right.off+right.root[ci], j)
			}
		}
	}
	if j.labels == nil {
		return
	}
	for i, b := range lb.bands {
		if i > 0 {
			lb.patch(b, 0, b.colRun[1], j)
		}
		if i < len(lb.bands)-1 {
			lb.patch(b, b.colRun[len(b.colRun)-2], b.colRun[len(b.colRun)-1], j)
		}
	}
}

// seamUnion links the classes of global runs a and b under the smaller
// root id, counting two finds and an effective union, as union does.
func (lb *Labeler) seamUnion(a, b int32, j *job) {
	lb.finds += 2
	ra, rb := lb.seamFind(a), lb.seamFind(b)
	if ra == rb {
		return
	}
	lb.unions++
	if ra > rb {
		ra, rb = rb, ra
	}
	keep, k := lb.at(ra)
	gone, g := lb.at(rb)
	gone.parent[g] = ra - gone.off
	s := keep.size[k] + gone.size[g]
	keep.size[k] = s
	lb.largest = max(lb.largest, int(s))
	if j.combine != nil {
		keep.fold[k] = j.combine(keep.fold[k], gone.fold[g])
	}
}

// seamFind returns the root of global run g, with path halving. Parent
// entries are band-local ids; a link into an earlier band is stored
// relative to the band's first run, so it is negative, and band.off +
// parent is the parent's global id either way. Only band roots are
// ever linked, so the walk never enters a band's own trees.
func (lb *Labeler) seamFind(g int32) int32 {
	for {
		b, l := lb.at(g)
		p := b.off + b.parent[l]
		if p == g {
			return g
		}
		pb, pl := lb.at(p)
		gp := pb.off + pb.parent[pl]
		b.parent[l] = gp - b.off
		g = gp
	}
}

// at returns the band holding global run g and g's id in it. An empty
// band shares its offset with the next one, and the search picks the
// last band whose offset is at most g, which is the one holding it.
func (lb *Labeler) at(g int32) (*Labeler, int32) {
	i := sort.Search(len(lb.bands), func(i int) bool { return lb.bands[i].off > g }) - 1
	b := lb.bands[i]
	return b, g - b.off
}

// patch gives every band root of b's runs [lo, hi) that a seam merged
// its surviving root's canonical label and fold. It finds without
// counting: the stitch's finds were counted by seamUnion.
func (lb *Labeler) patch(b *Labeler, lo, hi int32, j *job) {
	for _, q := range b.root[lo:hi] {
		g := b.off + q
		r := lb.seamFind(g)
		if r == g {
			continue
		}
		rb, rl := lb.at(r)
		b.canon[q] = rb.canon[rl]
		if j.combine != nil {
			b.fold[q] = rb.fold[rl]
		}
	}
}

// fill writes the band's columns of the labels, and of the folds on an
// Aggregate call: every run gets its root's label (and total), and the
// gaps between runs get Background (and identity).
func (lb *Labeler) fill(j *job) {
	h := j.img.H()
	runY0, runY1, roots, canon, fold := lb.runY0, lb.runY1, lb.root, lb.canon, lb.fold
	r := 0
	for x := lb.x0; x < lb.x1; x++ {
		col := j.labels.ColumnSlice(x)
		var per []int32
		if j.combine != nil {
			per = j.per[x*h : x*h+h]
		}
		gap := int32(0) // first row of the gap before the next run
		for end := int(lb.colRun[x-lb.x0+1]); r < end; r++ {
			root := roots[r]
			y0, y1 := runY0[r], runY1[r]
			set(col[gap:y0], bitmap.Background)
			set(col[y0:y1+1], canon[root])
			if per != nil {
				set(per[gap:y0], j.identity)
				set(per[y0:y1+1], fold[root])
			}
			gap = y1 + 1
		}
		set(col[gap:], bitmap.Background)
		if per != nil {
			set(per[gap:], j.identity)
		}
	}
}

// set writes v to every element of s.
func set(s []int32, v int32) {
	for i := range s {
		s[i] = v
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

// stats sums the bands' counts. Every effective union, in a band or at
// a seam, merges two classes into one, so the class count is runs −
// unions.
func (lb *Labeler) stats() Stats {
	var st Stats
	for _, b := range lb.bands {
		st.Runs += int64(len(b.runY0))
		st.Finds += b.finds
		st.Unions += b.unions
		st.Foreground += b.fg
		st.Largest = max(st.Largest, b.largest)
	}
	st.Components = int(st.Runs - st.Unions)
	return st
}

// growInt32 returns s with length n, reusing capacity (contents
// unspecified).
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
