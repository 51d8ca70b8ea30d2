package core

import (
	mbits "math/bits"

	"slapcc/internal/bitmap"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

// mergeScratch is the labeler-owned arena for the merge step: a small
// epoch-marked interning table (see interner — a per-column-sized hash
// that stays cache-resident, where the direct-index table over the
// 2·w·h label space it replaced cost a cache miss per probe), the
// per-column edge list and class minima, and one accumulated union–find
// meter whose inner forest is re-initialized per column.
type mergeScratch struct {
	it       interner
	values   []int32
	edges    []unionfind.Pair
	classMin []int32
	// Batch-find scratch: per-node roots, and the left-label node id of
	// each 1-pixel in row order (so the final labeling loop needs no
	// interner probe and no per-operation meter call).
	roots    []int32
	pixIds   []int32
	pixRoots []int32
	forest   *unionfind.Forest
	meter    *unionfind.Meter
}

// reset prepares the scratch for a run.
func (sc *mergeScratch) reset() {
	if sc.forest == nil {
		// The merge's "familiar sequential algorithm" (Lemma 2) runs on
		// the package default structure, as before.
		sc.forest = unionfind.NewForest(0, unionfind.LinkBySize, unionfind.CompressFull)
		sc.meter = unionfind.NewMeter(sc.forest)
	}
	sc.meter.ResetStats()
}

// mergeSub is step 3 of Algorithm CC (Figure 2): within each PE,
// independently and in parallel, run sequential connected components on
// the graph whose nodes are the column's left and right labels and whose
// edges are the per-pixel pairs (leftlabel[j], rightlabel[j]). Every
// pixel then takes the least label of its graph component — which equals
// the least column-major position of its global image component, because
// that least position's label reaches every column the component touches
// through the left labeling, and right-pass labels (offset by w·h) never
// undercut left-pass labels.
//
// It returns the phase as a slap.SubPhase so runCC can attach it to the
// right pass's fused walk (the per-column merge runs the moment the
// column's right labeling is assigned); the scratch is prepared here,
// before the walk starts. Column order is irrelevant: each column's
// merge is independent, and the interning epochs keep the shared
// scratch disjoint between columns.
func (lb *Labeler) mergeSub(labels *bitmap.LabelMap) slap.SubPhase {
	sc := &lb.mg
	sc.reset()
	lb.meters = append(lb.meters, sc.meter)
	unit := lb.opt.UnitCostUF
	body := func(pe *slap.PE) {
		x := pe.Index
		lcol, rcol := &lb.passCols[0][x], &lb.passCols[1][x]
		// The phase is purely local, so every charge is accumulated in
		// ticks and charged once: the PE clock is identical to charging
		// operation by operation.
		var ticks int64

		// Dense-index the distinct labels appearing in this column (one
		// charged step per intern lookup, as the map-based merge charged).
		// A column of k 1-pixels has at most 2k distinct pass labels.
		sc.it.prepare(2 * int(lcol.onesCount))
		sc.values = sc.values[:0]
		sc.edges = sc.edges[:0]
		sc.pixIds = sc.pixIds[:0]
		it := &sc.it
		prevRow := -2
		var ea, eb int32
		for wi, word := range lcol.bits {
			for word != 0 {
				j := wi<<6 + mbits.TrailingZeros64(word)
				word &= word - 1
				// No missing-label guard is needed (or possible) here:
				// out is no longer -1-prefilled, and each pass's assign
				// step already panics on any 1-row whose set has no
				// label, over exactly the same packed bits this loop
				// walks.
				ll, rl := lcol.out[j], rcol.out[j]
				ticks += 2
				// Vertically consecutive 1-rows belong to one set in
				// both passes, so a run's pixels all carry the previous
				// row's (ll, rl) pair: reuse its node ids instead of
				// re-probing the interning table. First sight of a label
				// is always at a run head, so table contents — and every
				// charge — are unchanged.
				if j != prevRow+1 {
					if i := it.slot(ll); it.live(i) {
						ea = it.val[i]
					} else {
						ea = int32(len(sc.values))
						it.set(i, ll, ea)
						sc.values = append(sc.values, ll)
					}
					if i := it.slot(rl); it.live(i) {
						eb = it.val[i]
					} else {
						eb = int32(len(sc.values))
						it.set(i, rl, eb)
						sc.values = append(sc.values, rl)
					}
				}
				prevRow = j
				sc.edges = append(sc.edges, unionfind.Pair{X: ea, Y: eb})
				sc.pixIds = append(sc.pixIds, ea)
			}
		}
		if len(sc.values) == 0 {
			return
		}
		// Sequential connected components over ≤ 2·ones nodes and ones
		// edges: the "familiar sequential algorithm" of Lemma 2, executed
		// as one metered batch (identical order and charges).
		sc.forest.Reset(len(sc.values))
		ops, steps := sc.meter.UnionCostPairs(sc.edges)
		if unit {
			ticks += ops
		} else {
			ticks += steps
		}
		// Least label per class. The finds run as one metered batch
		// (identical order and charges), then the minima fold over the
		// recorded roots.
		classMin := fillNeg(unionfind.GrowInt32(sc.classMin, len(sc.values)))
		sc.classMin = classMin
		roots := unionfind.GrowInt32(sc.roots, len(sc.values))
		sc.roots = roots
		ops, steps = sc.meter.FindCostRange(len(sc.values), roots)
		if unit {
			ticks += ops
		} else {
			ticks += steps
		}
		for id, v := range sc.values {
			root := roots[id]
			if classMin[root] == -1 || v < classMin[root] {
				classMin[root] = v
			}
			ticks++
		}
		// Label every 1-pixel with its class minimum, again with the
		// finds batched — pixIds recorded each pixel's left-label node
		// while the edges were built.
		pixRoots := unionfind.GrowInt32(sc.pixRoots, len(sc.pixIds))
		sc.pixRoots = pixRoots
		ops, steps = sc.meter.FindCostSeq(sc.pixIds, pixRoots)
		if unit {
			ticks += ops
		} else {
			ticks += steps
		}
		ticks += int64(len(sc.pixIds))
		outLab := labels.ColumnSlice(x)
		k := 0
		for wi, word := range lcol.bits {
			for word != 0 {
				j := wi<<6 + mbits.TrailingZeros64(word)
				word &= word - 1
				outLab[j] = classMin[pixRoots[k]]
				k++
			}
		}
		pe.Tick(ticks)
		pe.DeclareMemory(int64(4 * len(sc.values)))
	}
	return slap.SubPhase{Name: "merge", Local: true, Body: body}
}
