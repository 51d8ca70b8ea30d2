package core

import (
	"fmt"
	"math/bits"

	"slapcc/internal/bitmap"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

// colState is one PE's persistent memory for one pass: the column's
// pixels, its union–find structure over rows, and the per-set satellite
// data adjnext/adjprev (a witness row where the set touches the next /
// previous column of the sweep; -1 is the paper's nil) and label.
//
// The column pixels are kept bit-packed (bit j%64 of word j/64 is row
// j), extracted word-wise from the image by bitmap.ColumnWords: every
// walk over the column skips zero words and pulls 1-rows out of the
// packed words with bits.TrailingZeros64, and the witness tests against
// neighbor columns are single-bit probes. The two passes share the bit
// arrays (pixels don't depend on sweep direction).
//
// colStates live in the Labeler's per-pass arenas and are re-initialized
// in place for every run, so a warm Labeler performs no per-column
// allocation at all.
type colState struct {
	bits      []uint64 // packed column pixels; immutable for the run
	onesCount int32    // popcount of bits
	uf        *unionfind.Meter
	kind      unionfind.Kind    // the kind uf wraps (arena revalidation)
	forest    *unionfind.Forest // non-nil when forest-backed (idle compression)
	// adj interleaves the two witness satellites — adj[2s] is the
	// paper's adjnext[s], adj[2s+1] its adjprev[s] — so the hot paths
	// touch one cache line per set instead of two.
	adj   []int32
	label []int32
	out   []int32 // final per-row pass labels (-1 on 0-pixels)
	costs []int32 // label-pass batch-find cost scratch
}

// bitAt probes one pixel of a packed column.
func bitAt(b []uint64, j int) bool { return b[j>>6]>>(uint(j)&63)&1 != 0 }

// passName labels the machine phases of one pass. The names are static
// so the hot path never builds a string (a concatenation here is an
// allocation per phase per run).
func passName(dir slap.Direction, step string) string {
	if dir == slap.LeftToRight {
		switch step {
		case "unionfind":
			return "left:unionfind"
		case "findall":
			return "left:findall"
		case "labelpass":
			return "left:labelpass"
		case "assign":
			return "left:assign"
		case "agg":
			return "left:agg"
		}
		return "left:" + step
	}
	switch step {
	case "unionfind":
		return "right:unionfind"
	case "findall":
		return "right:findall"
	case "labelpass":
		return "right:labelpass"
	case "assign":
		return "right:assign"
	case "agg":
		return "right:agg"
	}
	return "right:" + step
}

// passIndex maps a sweep direction to its arena slot.
func passIndex(dir slap.Direction) int {
	if dir == slap.LeftToRight {
		return 0
	}
	return 1
}

// runPass computes one directional connected labeling (steps 1–4 of
// Algorithm Left-Components, Figure 4). Left pass labels are
// column-major positions; right pass labels are offset by w·h and use
// the mirrored column order, so the two label spaces are disjoint and
// left labels always win the final minimum.
//
// The four phases execute as one fused walk per column (slap.RunFused):
// the walk visits each column once, running make-set/union, find-all,
// label, and assign back to back while the column's packed bits,
// union–find arrays, and satellites are cache-hot, instead of walking
// the whole array four times. Each phase keeps its own virtual clocks,
// links, and metrics, so the simulated accounting is bit-identical to
// the per-phase reference execution (the noFuse option, which the
// equivalence tests run). extra, when non-nil, is a
// trailing subphase that rides the same walk — runCC attaches the merge
// step to the right pass this way.
func (lb *Labeler) runPass(dir slap.Direction, extra *slap.SubPhase) []colState {
	w, h := lb.w, lb.h
	dx := 1
	base := int32(0)
	lastCol := w - 1
	if dir == slap.RightToLeft {
		dx = -1
		base = int32(w * h)
		lastCol = 0
	}
	// posOf(x, j), the pass label of pixel (x, j), is affine in j: the
	// label pass hoists the per-column base and adds row indices.
	colBase := func(x int) int32 {
		if dir == slap.LeftToRight {
			return int32(x * h)
		}
		return base + int32((w-1-x)*h)
	}

	// The packed column bits are extracted (or adopted from the left
	// pass: both are immutable for the rest of the run, and the passes
	// always execute left-first) before the walk starts — the sweep
	// bodies probe *neighbor* columns' bits ahead of the walk reaching
	// them. The rest of the column state is re-initialized per column by
	// the walk's prep hook, right before the column's phase bodies run
	// over it.
	p := passIndex(dir)
	cols := lb.ensurePass(p)
	if p == 1 {
		for x := range cols {
			cols[x].bits = lb.passCols[0][x].bits
			cols[x].onesCount = lb.passCols[0][x].onesCount
		}
	} else {
		for x := range cols {
			st := &cols[x]
			st.bits = lb.img.ColumnWords(x, st.bits)
			n := 0
			for _, wd := range st.bits {
				n += bits.OnesCount64(wd)
			}
			st.onesCount = int32(n)
		}
	}

	// Step 1 (Figure 5): the union–find pass.
	ufBody := func(pe *slap.PE) {
		x := pe.Index
		st := &cols[x]
		// The sweep-order neighbor columns' packed bits: the witness
		// tests on the hot path are then single-bit probes.
		var nextBits, prevBits []uint64
		if nx := x + dx; nx >= 0 && nx < w {
			nextBits = cols[nx].bits
		}
		if px := x - dx; px >= 0 && px < w {
			prevBits = cols[px].bits
		}

		// Make-Set(j) for every row, and initialize the adjacency
		// witnesses of the singleton sets (constant work per row).
		// Witness values are rows of the *next* column (for Conn4 the
		// row indices coincide). Under Conn8 a pixel may touch up to
		// three next-column pixels that are not connected to each other
		// except through this pixel, so consecutive neighbors are
		// chained with bridge records the next column replays as unions.
		if lb.opt.Connectivity == bitmap.Conn8 {
			// Only 1-rows do work; the per-row tick of the row scan is
			// charged in arrears before each, so the clock at every send
			// is identical to ticking row by row.
			lastRow := int32(-1)
			for wi, word := range st.bits {
				for word != 0 {
					j := int32(wi<<6 + bits.TrailingZeros64(word))
					word &= word - 1
					pe.Tick(int64(j - lastRow))
					lastRow = j
					st.adj[2*j] = lb.witnessIn(nextBits, int(j))
					st.adj[2*j+1] = lb.witnessIn(prevBits, int(j))
					if x != lastCol {
						prevNbr := int32(-1)
						for r := int(j) - 1; r <= int(j)+1; r++ {
							if r < 0 || r >= h || !bitAt(nextBits, r) {
								continue
							}
							if prevNbr != -1 {
								pe.Send(slap.Msg{Kind: msgUnion, A: prevNbr, B: int32(r), Words: 2})
							}
							prevNbr = int32(r)
						}
					}
				}
			}
			pe.Tick(int64(h-1) - int64(lastRow))
		} else {
			// Conn4 sends nothing here, so the per-row tick is charged in
			// one batch and only 1-rows are visited: clocks are identical
			// to the row-by-row loop. The witness words are hoisted per
			// 64-row block and the adj writes are branchless — at 50%
			// density a taken/not-taken witness branch is a coin flip,
			// the worst case for prediction.
			pe.Tick(int64(h))
			adj := st.adj
			for wi, word := range st.bits {
				var nextWord, prevWord uint64
				if nextBits != nil {
					nextWord = nextBits[wi]
				}
				if prevBits != nil {
					prevWord = prevBits[wi]
				}
				for word != 0 {
					t := bits.TrailingZeros64(word)
					j := wi<<6 + t
					word &= word - 1
					// v = j when the witness bit is set, -1 otherwise.
					nb := int32(nextWord >> uint(t) & 1)
					pb := int32(prevWord >> uint(t) & 1)
					adj[2*j] = int32(j)&(-nb) | (nb - 1)
					adj[2*j+1] = int32(j)&(-pb) | (pb - 1)
				}
			}
		}
		// Phase one: union vertical runs within the column. Unions happen
		// exactly at consecutive pairs of 1-rows — bit j of
		// word & (word<<1), with the previous word's top bit carried in,
		// is set exactly when rows j-1 and j are both 1 — and the
		// per-row tick of the row scan is charged in arrears right
		// before each union, keeping the clock at every union (and so at
		// every send) identical to ticking row by row.
		// Ticks accumulate locally and flush right before each send (the
		// only points where the clock is observable), charging totals
		// identical to ticking per row and per operation.
		lastRow := int32(0)
		var acc int64
		var carry uint64
		for wi, word := range st.bits {
			pairs := word & (word<<1 | carry)
			carry = word >> 63
			for pairs != 0 {
				j := int32(wi<<6 + bits.TrailingZeros64(pairs))
				pairs &= pairs - 1
				acc += int64(j - lastRow)
				lastRow = j
				_ = lb.apply(pe, st, j-1, j, x != lastCol, false, &acc)
			}
		}
		pe.Tick(acc + int64(h-1) - int64(lastRow))
		// Phase two: replay relevant unions arriving from the previous
		// column until eos.
		// Speculation throttle (stands in for the paper's quash
		// messages): once this PE has wasted more forwards than it has
		// confirmed, and at least specWasteBudget in total, it stops
		// speculating for the rest of the pass.
		const specWasteBudget = 8
		var specFired, specWasted int64
		speculating := lb.opt.Speculate && x != lastCol
		if pe.HasIn() {
			if lb.opt.IdleCompression && st.forest != nil && st.onesCount > 0 {
				// Cycle compression victims through the column's 1-rows
				// in ascending order, straight off the packed words.
				f, cbits := st.forest, st.bits
				wi, rem := 0, st.bits[0]
				pe.OnIdle(func() {
					for rem == 0 {
						wi++
						if wi == len(cbits) {
							wi = 0
						}
						rem = cbits[wi]
					}
					f.CompressOne(wi<<6 + bits.TrailingZeros64(rem))
					rem &= rem - 1
				})
			}
			var acc int64
			for {
				// The clock is observable inside RecvWait (its poll
				// arithmetic), so pending charges flush first.
				if acc != 0 {
					pe.Tick(acc)
					acc = 0
				}
				msg, ok := pe.RecvWait()
				if !ok {
					panic(fmt.Sprintf("core: PE %d: union stream ended without eos", x))
				}
				if msg.Kind == msgEOS {
					break
				}
				if msg.Kind != msgUnion {
					panic(fmt.Sprintf("core: PE %d: unexpected message kind %d in union pass", x, msg.Kind))
				}
				// §3 speculation: forward the union before executing it
				// when the witness rows visibly continue into the next
				// column, taking the find/union latency off the
				// inter-PE critical path. Safe without quash messages:
				// the forwarded rows are connected here, so their
				// next-column neighbors share a component and the
				// downstream union is at worst a no-op.
				speculated := false
				if speculating {
					throttled := specWasted >= specWasteBudget && specWasted > specFired-specWasted
					if !throttled {
						pe.Tick(1)
						wa, wb := lb.witnessIn(nextBits, int(msg.A)), lb.witnessIn(nextBits, int(msg.B))
						if wa != -1 && wb != -1 {
							pe.Send(slap.Msg{Kind: msgUnion, A: wa, B: wb, Words: 2})
							lb.spec.Sends++
							specFired++
							speculated = true
						}
					}
				}
				if !lb.apply(pe, st, msg.A, msg.B, x != lastCol, speculated, &acc) && speculated {
					specWasted++
					lb.spec.Wasted++
				}
			}
			// acc is always zero here: the eos record's arrival flushed
			// the last union's pending charges.
		}
		if x != lastCol {
			pe.Send(slap.Msg{Kind: msgEOS})
		}
		// The PE's memory: column bits, union–find arrays, satellites.
		pe.DeclareMemory(int64(h) + 2*int64(h) + 3*int64(len(st.adj)/2))
	}

	// Step 2: a find on every pixel (also primes path compression so
	// every later find is cheap, as §3 notes). The phase is purely local,
	// so every charge — the per-row bookkeeping tick and the union–find
	// step costs — is accumulated and charged in one batch: the PE
	// clocks are identical to ticking operation by operation.
	unit := lb.opt.UnitCostUF
	findallBody := func(pe *slap.PE) {
		st := &cols[pe.Index]
		ops, steps := st.uf.FindCostBitset(st.bits, nil)
		if unit {
			pe.Tick(int64(h) + ops)
		} else {
			pe.Tick(int64(h) + steps)
		}
	}

	// Step 3 (Figure 6): the label pass, with the min rule (see below).
	labelBody := func(pe *slap.PE) {
		x := pe.Index
		st := &cols[x]
		// Sets with no previous-column adjacency label themselves with
		// their first pixel's position and send the label onward once.
		// Only 1-rows do work, and the row scan's per-row tick is
		// charged in arrears before each find, exactly like the
		// union–find pass's phase one. The finds themselves run as one
		// metered batch up front (they neither read nor affect anything
		// the interleaved sends touch), recording per-row roots and
		// costs; the loop then replays each row's charges against the
		// clock, borrowing out as the root scratch (its 1-row slots are
		// overwritten by assign, its 0-row slots never read before).
		roots := st.out[:h]
		st.uf.FindCostBitsetInto(st.bits, roots, st.costs)
		pos := colBase(x)
		lastRow := int32(-1)
		var acc int64
		for wi, word := range st.bits {
			for word != 0 {
				j := int32(wi<<6 + bits.TrailingZeros64(word))
				word &= word - 1
				// The row-scan arrears and the find charge accumulate and
				// flush right before each send, charging totals identical
				// to ticking per row and per operation.
				if unit {
					acc += int64(j-lastRow) + 1
				} else {
					acc += int64(j-lastRow) + int64(st.costs[j])
				}
				lastRow = j
				s := roots[j]
				if st.adj[2*s+1] == -1 && st.label[s] == -1 {
					st.label[s] = pos + j
					if st.adj[2*s] != -1 {
						pe.Tick(acc)
						acc = 0
						pe.Send(slap.Msg{Kind: msgLabel, A: st.label[s], B: st.adj[2*s], Words: 2})
					}
				}
			}
		}
		pe.Tick(acc + int64(h-1) - int64(lastRow))
		// Incoming labels. Figure 6 overwrites label[S] per arrival; when
		// two sets of the previous column merge only through this column,
		// overwriting is order-dependent, so we apply the paper's §2
		// consistency rule ("each component gets labeled with the least
		// label seen"): adopt the minimum and forward on first receipt or
		// improvement. Every set still sends at least once and the least
		// label of each prefix component reaches every column it touches.
		if pe.HasIn() {
			for {
				msg, ok := pe.RecvWait()
				if !ok {
					panic(fmt.Sprintf("core: PE %d: label stream ended without eos", x))
				}
				if msg.Kind == msgEOS {
					break
				}
				if msg.Kind != msgLabel {
					panic(fmt.Sprintf("core: PE %d: unexpected message kind %d in label pass", x, msg.Kind))
				}
				// One find charge plus the record's bookkeeping step,
				// fused (no send happens between them).
				s, cost := st.uf.FindCost(int(msg.B))
				if unit {
					pe.Tick(2)
				} else {
					pe.Tick(cost + 1)
				}
				if st.label[s] == -1 || msg.A < st.label[s] {
					st.label[s] = msg.A
					if st.adj[2*s] != -1 {
						pe.Send(slap.Msg{Kind: msgLabel, A: st.label[s], B: st.adj[2*s], Words: 2})
					}
				}
			}
		}
		if x != lastCol {
			pe.Send(slap.Msg{Kind: msgEOS})
		}
	}

	// Step 4: assign each pixel its set's label (purely local: charges
	// are batched like findall's). The batch find borrows the adj array
	// as its per-row root scratch — the witness satellites are dead once
	// the label pass is over, and adj is always at least h long.
	assignBody := func(pe *slap.PE) {
		st := &cols[pe.Index]
		roots := st.adj[:h]
		ops, steps := st.uf.FindCostBitset(st.bits, roots)
		if unit {
			pe.Tick(int64(h) + ops)
		} else {
			pe.Tick(int64(h) + steps)
		}
		for wi, word := range st.bits {
			for word != 0 {
				j := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				s := roots[j]
				if st.label[s] == -1 {
					panic(fmt.Sprintf("core: PE %d row %d: set %d never received a label", pe.Index, j, s))
				}
				st.out[j] = st.label[s]
			}
		}
	}

	subs := append(lb.subs[:0],
		slap.SubPhase{Name: passName(dir, "unionfind"), Body: ufBody},
		slap.SubPhase{Name: passName(dir, "findall"), Local: true, Body: findallBody},
		slap.SubPhase{Name: passName(dir, "labelpass"), Body: labelBody},
		slap.SubPhase{Name: passName(dir, "assign"), Local: true, Body: assignBody},
	)
	if extra != nil {
		subs = append(subs, *extra)
	}
	lb.m.RunFused(dir, func(x int) { lb.resetColState(&cols[x]) }, subs)
	// Park the (possibly grown) arena for the next run, clearing the
	// closure slots: the merge subphase captures the run's result
	// LabelMap, which a retained closure would pin long after the
	// caller released it.
	for i := range subs {
		subs[i] = slap.SubPhase{}
	}
	lb.subs = subs[:0]
	return cols
}

// ensurePass returns the pass arena sized to the current run's width,
// growing it (and carrying over existing column states) when needed.
func (lb *Labeler) ensurePass(p int) []colState {
	if cap(lb.passCols[p]) < lb.w {
		grown := make([]colState, lb.w)
		copy(grown, lb.passCols[p])
		lb.passCols[p] = grown
	}
	lb.passCols[p] = lb.passCols[p][:lb.w]
	return lb.passCols[p]
}

// resetColState re-initializes the per-column pass state (union–find
// structure and satellite arrays; the packed bits were set up by
// runPass) for the current image, reusing every backing array of a
// previous run. A reset state is indistinguishable from a freshly built
// one. In the fused walk it runs as the per-column prep hook, so the
// arrays it fills are still cache-hot when the phase bodies read them.
func (lb *Labeler) resetColState(st *colState) {
	h := lb.h
	if st.uf == nil || st.kind != lb.opt.UF {
		inner, _ := unionfind.Make(lb.opt.UF, h)
		st.uf = unionfind.NewMeter(inner)
		// Only Stats/MaxOpCost feed the UF report; skip the histogram.
		st.uf.DisableHistogram()
		st.kind = lb.opt.UF
	} else {
		st.uf.Reset(h)
	}
	st.forest = nil
	if f, ok := st.uf.Unwrap().(*unionfind.Forest); ok {
		st.forest = f
	}
	cb := st.uf.CapBound()
	// adj and out need no -1 pre-fill: every slot the passes read is
	// written first (witnesses for 1-rows in the make-set loop, merged
	// roots in apply's satellite fold — 0-rows are never unioned, so
	// stale slots are unreachable; out's 1-row slots are all written by
	// assign, and only 1-row slots are ever read). label is different:
	// "label[s] == -1" is the not-yet-labeled sentinel the label pass
	// tests before any write.
	st.adj = unionfind.GrowInt32(st.adj, 2*cb)
	st.label = fillNeg(unionfind.GrowInt32(st.label, cb))
	st.out = unionfind.GrowInt32(st.out, h)
	st.costs = unionfind.GrowInt32(st.costs, h)
	lb.meters = append(lb.meters, st.uf)
}

// apply is the paper's Apply (Figure 5): union the sets holding the two
// rows; if both sets touch the next column, first forward the pair of
// witness rows so the next column replays the union. When the union was
// already forwarded speculatively, the normal forward is suppressed
// (both messages would union the same two downstream sets). It reports
// whether the two rows were in distinct sets.
//
// acc is the caller's pending-tick accumulator: the union's charge
// joins it, and the whole balance flushes to the clock right before a
// send (the only point inside apply where the clock is observable) —
// charging totals identical to ticking per operation.
func (lb *Labeler) apply(pe *slap.PE, st *colState, top, bot int32, hasOut, speculated bool, acc *int64) bool {
	if !bitAt(st.bits, int(top)) || !bitAt(st.bits, int(bot)) {
		panic(fmt.Sprintf("core: PE %d: union witness rows (%d,%d) include a 0-pixel", pe.Index, top, bot))
	}
	root, a, b, united, cost := st.uf.UnionCost(int(top), int(bot))
	if lb.opt.UnitCostUF {
		cost = 1
	}
	t := *acc + cost
	if !united {
		*acc = t
		return false
	}
	// Forward the relevant union before folding satellites: the witness
	// rows must be the pre-union ones (Figure 5 enqueues before Union).
	adj := st.adj
	if !speculated && adj[2*a] != -1 && adj[2*b] != -1 && hasOut {
		pe.Tick(t)
		t = 0
		pe.Send(slap.Msg{Kind: msgUnion, A: adj[2*a], B: adj[2*b], Words: 2})
	}
	*acc = t + 1 // the satellite-fold step
	adj[2*root] = firstWitness(adj[2*a], adj[2*b])
	adj[2*root+1] = firstWitness(adj[2*a+1], adj[2*b+1])
	return true
}

// firstWitness keeps any non-nil witness row.
func firstWitness(a, b int32) int32 {
	if a != -1 {
		return a
	}
	return b
}

// witness returns a row of column x+dir holding a 1-pixel adjacent to
// pixel (x, j) under the configured connectivity, or -1 (the paper's
// nil). Constant work; the returned row identifies where the neighboring
// column should replay information concerning (x, j)'s set. It probes
// the neighbor's packed bits from the pass arena.
func (lb *Labeler) witness(cols []colState, x, j, dir int) int32 {
	nx := x + dir
	if nx < 0 || nx >= lb.w {
		return -1
	}
	return lb.witnessIn(cols[nx].bits, j)
}

// witnessIn is witness against an already-resolved neighbor column's
// packed bits (nil when the neighbor is off the edge of the image).
func (lb *Labeler) witnessIn(nbits []uint64, j int) int32 {
	if nbits == nil {
		return -1
	}
	if bitAt(nbits, j) {
		return int32(j)
	}
	if lb.opt.Connectivity == bitmap.Conn8 {
		if j > 0 && bitAt(nbits, j-1) {
			return int32(j - 1)
		}
		if j+1 < lb.h && bitAt(nbits, j+1) {
			return int32(j + 1)
		}
	}
	return -1
}

// fillNeg fills s with -1 (the paper's nil) by block-copying from a
// shared template: reset paths fill thousands of satellite arrays per
// run, and a memmove beats an element-by-element loop.
func fillNeg(s []int32) []int32 {
	copy(s, unionfind.NegTable(len(s)))
	return s
}
