package unionfind

import (
	mbits "math/bits"
)

// Meter wraps a UnionFind and records per-operation cost statistics:
// the quantity Theorem 3 is about is the *worst single operation*, which
// cumulative counters cannot show. Costs are measured as Steps() deltas.
type Meter struct {
	inner UnionFind
	// forest caches the concrete type of a forest-backed inner structure:
	// Find/Union on the simulator's hot path then skip the interface
	// dispatch (the accounting is unchanged).
	forest *Forest

	finds, unions int64
	findSteps     int64
	unionSteps    int64
	maxFind       int64
	maxUnion      int64
}

var _ UnionFind = (*Meter)(nil)

// NewMeter wraps inner.
func NewMeter(inner UnionFind) *Meter {
	m := &Meter{inner: inner}
	m.forest, _ = inner.(*Forest)
	return m
}

// Unwrap returns the wrapped structure.
func (m *Meter) Unwrap() UnionFind { return m.inner }

// Reset re-initializes the wrapped structure to n singletons and clears
// every recorded statistic.
func (m *Meter) Reset(n int) {
	m.inner.Reset(n)
	m.ResetStats()
}

// ResetStats clears the recorded statistics without touching the wrapped
// structure — for callers that re-initialize the inner structure
// themselves (possibly several times) while accumulating one report.
func (m *Meter) ResetStats() {
	m.finds, m.unions = 0, 0
	m.findSteps, m.unionSteps = 0, 0
	m.maxFind, m.maxUnion = 0, 0
}

// Find forwards to the wrapped structure, recording the operation cost.
func (m *Meter) Find(x int) int {
	r, _ := m.FindCost(x)
	return r
}

// FindCost is Find returning the operation's charged cost as well, so
// the simulator converts it into machine time without re-reading the
// step counter around the call. A forest-backed structure — the default,
// behind nearly every find the simulator executes — is dispatched to its
// cost-returning entry directly (which also selects the compact int16
// arrays for small element counts), cutting a call level and a counter
// re-read off the hottest path; the charges are identical.
func (m *Meter) FindCost(x int) (r int, cost int64) {
	if f := m.forest; f != nil && f.comp == CompressFull {
		// The default configuration, open-coded per width so the find
		// loop inlines here (the generic dispatch costs two call levels
		// per operation on the simulator's single hottest path).
		if f.small {
			root, steps := findFullG(f.parent16, int16(x))
			f.steps += steps
			r, cost = int(root), steps
		} else {
			root, steps := findFullG(f.parent, int32(x))
			f.steps += steps
			r, cost = int(root), steps
		}
	} else if f := m.forest; f != nil {
		r, cost = f.findCost(x)
	} else {
		before := m.inner.Steps()
		r = m.inner.Find(x)
		cost = m.inner.Steps() - before
	}
	m.finds++
	m.findSteps += cost
	if cost > m.maxFind {
		m.maxFind = cost
	}
	return r, cost
}

// The batch find entries below run one Find per requested element, in
// order, exactly as a loop of FindCost calls would — same traversals,
// same compression writes, same per-operation stats (counts, step sums,
// max) — but fold the meter bookkeeping once per batch and keep the
// find loop inlined next to local accumulators. They are what lets the
// simulator's local phases (find-all, assign, merge) charge millions of
// metered operations without a wrapper call per operation. The batch
// fast path requires a forest-backed structure with full compression
// (the simulator's configuration); anything else falls back to
// per-operation FindCost, bit-identically.

// FindCostBitset runs Find on element j for every set bit j of bits
// (bit j%64 of word j/64), ascending, and returns the operation count
// and total charged steps. When roots is non-nil, roots[j] receives
// element j's root.
func (m *Meter) FindCostBitset(bits []uint64, roots []int32) (ops, steps int64) {
	if f := m.forest; f != nil && f.comp == CompressFull {
		var max int64
		if f.small {
			ops, steps, max = findBitsetG(f.parent16, bits, roots)
		} else {
			ops, steps, max = findBitsetG(f.parent, bits, roots)
		}
		m.foldFinds(f, ops, steps, max)
		return ops, steps
	}
	for wi, word := range bits {
		for word != 0 {
			j := wi<<6 + mbits.TrailingZeros64(word)
			word &= word - 1
			r, c := m.FindCost(j)
			if roots != nil {
				roots[j] = int32(r)
			}
			ops++
			steps += c
		}
	}
	return ops, steps
}

// FindCostBitsetInto is FindCostBitset recording each operation's
// charged cost in costs[j] as well, for callers that replay the charges
// op by op against a virtual clock (the label pass interleaves sends
// with the charges; the finds themselves neither read nor affect
// anything the sends touch, so running them as one batch is invisible).
func (m *Meter) FindCostBitsetInto(bits []uint64, roots, costs []int32) {
	if f := m.forest; f != nil && f.comp == CompressFull {
		var ops, steps, max int64
		if f.small {
			ops, steps, max = findBitsetIntoG(f.parent16, bits, roots, costs)
		} else {
			ops, steps, max = findBitsetIntoG(f.parent, bits, roots, costs)
		}
		m.foldFinds(f, ops, steps, max)
		return
	}
	for wi, word := range bits {
		for word != 0 {
			j := wi<<6 + mbits.TrailingZeros64(word)
			word &= word - 1
			r, c := m.FindCost(j)
			roots[j] = int32(r)
			costs[j] = int32(c)
		}
	}
}

// FindCostSeq runs Find on each ids[k] in order; roots[k] receives the
// result when roots is non-nil (it must then be at least as long).
func (m *Meter) FindCostSeq(ids, roots []int32) (ops, steps int64) {
	if f := m.forest; f != nil && f.comp == CompressFull {
		var max int64
		if f.small {
			ops, steps, max = findSeqG(f.parent16, ids, roots)
		} else {
			ops, steps, max = findSeqG(f.parent, ids, roots)
		}
		m.foldFinds(f, ops, steps, max)
		return ops, steps
	}
	for k, id := range ids {
		r, c := m.FindCost(int(id))
		if roots != nil {
			roots[k] = int32(r)
		}
		ops++
		steps += c
	}
	return ops, steps
}

// FindCostRange runs Find on elements 0..n-1 in order; roots[k]
// receives element k's root when roots is non-nil.
func (m *Meter) FindCostRange(n int, roots []int32) (ops, steps int64) {
	if f := m.forest; f != nil && f.comp == CompressFull {
		var max int64
		if f.small {
			ops, steps, max = findRangeG(f.parent16, n, roots)
		} else {
			ops, steps, max = findRangeG(f.parent, n, roots)
		}
		m.foldFinds(f, ops, steps, max)
		return ops, steps
	}
	for k := 0; k < n; k++ {
		r, c := m.FindCost(k)
		if roots != nil {
			roots[k] = int32(r)
		}
		ops++
		steps += c
	}
	return ops, steps
}

// Pair is one union request for UnionCostPairs.
type Pair struct{ X, Y int32 }

// UnionCostPairs executes Union(p.X, p.Y) for every pair in order —
// identical traversals, links, and per-operation stats as a loop of
// UnionCost calls — and returns the operation count and total charged
// steps. Callers that need per-union outcomes (roots, united flags)
// must use UnionCost; this entry serves charge-only loops like the
// merge step's edge replay.
func (m *Meter) UnionCostPairs(pairs []Pair) (ops, steps int64) {
	if f := m.forest; f != nil && f.comp == CompressFull && f.link == LinkBySize {
		var max, united int64
		if f.small {
			steps, max, united = unionPairsG(f.parent16, f.weight16, pairs)
		} else {
			steps, max, united = unionPairsG(f.parent, f.weight, pairs)
		}
		ops = int64(len(pairs))
		f.steps += steps
		f.sets -= int(united)
		m.unions += ops
		m.unionSteps += steps
		if max > m.maxUnion {
			m.maxUnion = max
		}
		return ops, steps
	}
	for _, p := range pairs {
		_, _, _, _, c := m.UnionCost(int(p.X), int(p.Y))
		ops++
		steps += c
	}
	return ops, steps
}

// foldFinds folds one batch's accumulated find stats into the meter and
// the forest's step counter, with the same end state as per-op entry.
func (m *Meter) foldFinds(f *Forest, ops, steps, max int64) {
	f.steps += steps
	m.finds += ops
	m.findSteps += steps
	if max > m.maxFind {
		m.maxFind = max
	}
}

// Union forwards to the wrapped structure, recording the operation cost.
func (m *Meter) Union(x, y int) (root, a, b int, united bool) {
	root, a, b, united, _ = m.UnionCost(x, y)
	return root, a, b, united
}

// UnionCost is Union returning the operation's charged cost as well.
// Forest-backed structures are handled like FindCost's fast path, with
// identical charges.
func (m *Meter) UnionCost(x, y int) (root, a, b int, united bool, cost int64) {
	if f := m.forest; f != nil && f.comp == CompressFull && f.link == LinkBySize {
		// The default configuration again: one specialized call per
		// width replaces the generic rule dispatch.
		if f.small {
			root, a, b, united, cost = unionFullSizeG(f.parent16, f.weight16, int16(x), int16(y))
		} else {
			root, a, b, united, cost = unionFullSizeG(f.parent, f.weight, int32(x), int32(y))
		}
		f.steps += cost
		if united {
			f.sets--
		}
	} else if f := m.forest; f != nil {
		root, a, b, united, cost = f.unionCost(x, y)
	} else {
		before := m.inner.Steps()
		root, a, b, united = m.inner.Union(x, y)
		cost = m.inner.Steps() - before
	}
	m.unions++
	m.unionSteps += cost
	if cost > m.maxUnion {
		m.maxUnion = cost
	}
	return root, a, b, united, cost
}

// Len forwards to the wrapped structure.
func (m *Meter) Len() int { return m.inner.Len() }

// CapBound forwards to the wrapped structure.
func (m *Meter) CapBound() int { return m.inner.CapBound() }

// Sets forwards to the wrapped structure.
func (m *Meter) Sets() int { return m.inner.Sets() }

// Steps forwards to the wrapped structure.
func (m *Meter) Steps() int64 {
	if f := m.forest; f != nil {
		return f.steps
	}
	return m.inner.Steps()
}

// Stats summarizes what the meter observed.
type Stats struct {
	Finds, Unions         int64
	FindSteps, UnionSteps int64
	MaxFind, MaxUnion     int64
}

// Stats returns the recorded statistics.
func (m *Meter) Stats() Stats {
	return Stats{
		Finds: m.finds, Unions: m.unions,
		FindSteps: m.findSteps, UnionSteps: m.unionSteps,
		MaxFind: m.maxFind, MaxUnion: m.maxUnion,
	}
}

// MaxOpCost returns the largest cost of any single recorded operation.
func (m *Meter) MaxOpCost() int64 {
	if m.maxFind > m.maxUnion {
		return m.maxFind
	}
	return m.maxUnion
}

// MeanOpCost returns the average cost over all recorded operations, or 0.
func (m *Meter) MeanOpCost() float64 {
	ops := m.finds + m.unions
	if ops == 0 {
		return 0
	}
	return float64(m.findSteps+m.unionSteps) / float64(ops)
}
