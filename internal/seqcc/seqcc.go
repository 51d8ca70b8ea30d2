// Package seqcc is the sequential ground truth every labeler in this
// repository is validated against: BFS, a flood-fill labeler under 4- or
// 8-connectivity, plus the checks, summaries and the Corollary 4
// aggregation reference built on it. The run-based linear-time labeler
// of the kind the paper's §1 cites (Schwartz–Sharir–Siegel,
// Dillencourt–Samet–Tamminen) is the host engine, internal/hostcc.
//
// BFS produces the same canonical labeling as Algorithm CC: every
// component is labeled with the least column-major position (x·H + y) of
// its pixels, and background pixels carry bitmap.Background. Outputs are
// therefore comparable with ==, not merely up to renaming.
package seqcc

import (
	"fmt"

	"slapcc/internal/bitmap"
)

// BFS labels 4-connected components by flood fill, visiting seeds in
// column-major order so each component's seed is its least position. It
// is the package's correctness oracle: ~40 lines with no clever data
// structures.
func BFS(b *bitmap.Bitmap) *bitmap.LabelMap { return BFSConn(b, bitmap.Conn4) }

// BFSConn is BFS under an explicit connectivity.
func BFSConn(b *bitmap.Bitmap, conn bitmap.Connectivity) *bitmap.LabelMap {
	w, h := b.W(), b.H()
	lm := bitmap.NewLabelMap(w, h)
	deltas := conn.Neighbors()
	var stack [][2]int
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if !b.Get(x, y) || lm.Get(x, y) != bitmap.Background {
				continue
			}
			seed := int32(x*h + y)
			lm.Set(x, y, seed)
			stack = append(stack[:0], [2]int{x, y})
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, d := range deltas {
					nx, ny := p[0]+d[0], p[1]+d[1]
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					if b.Get(nx, ny) && lm.Get(nx, ny) == bitmap.Background {
						lm.Set(nx, ny, seed)
						stack = append(stack, [2]int{nx, ny})
					}
				}
			}
		}
	}
	return lm
}

// Check verifies that lm is exactly the canonical 4-connected component
// labeling of b, returning a descriptive error otherwise.
func Check(b *bitmap.Bitmap, lm *bitmap.LabelMap) error {
	return CheckConn(b, lm, bitmap.Conn4)
}

// CheckConn verifies lm against the ground truth under an explicit
// connectivity: it recomputes the canonical labeling with BFSConn and
// compares pixel by pixel.
func CheckConn(b *bitmap.Bitmap, lm *bitmap.LabelMap, conn bitmap.Connectivity) error {
	if lm.W() != b.W() || lm.H() != b.H() {
		return fmt.Errorf("seqcc: label map is %dx%d, image is %dx%d", lm.W(), lm.H(), b.W(), b.H())
	}
	want := BFSConn(b, conn)
	for x := 0; x < b.W(); x++ {
		for y := 0; y < b.H(); y++ {
			g, e := lm.Get(x, y), want.Get(x, y)
			if g != e {
				return fmt.Errorf("seqcc: pixel (%d,%d) under %v: label %d, want %d", x, y, conn, g, e)
			}
		}
	}
	return nil
}

// Stats describes a labeling.
type Stats struct {
	Components int
	Foreground int
	Largest    int
}

// Summarize computes component statistics of a labeling.
func Summarize(lm *bitmap.LabelMap) Stats {
	sizes := lm.ComponentSizes()
	st := Stats{Components: len(sizes)}
	for _, s := range sizes {
		st.Foreground += s
		if s > st.Largest {
			st.Largest = s
		}
	}
	return st
}

// AggregateRef computes, per component of b, the op-fold of initial[p]
// over the component's pixels (initial is indexed by column-major
// position). It returns per-pixel results: out[p] = fold over p's
// component, bitmap.Background pixels map to identity. This is the
// sequential reference for the paper's Corollary 4 extension.
func AggregateRef(b *bitmap.Bitmap, initial []int32, op func(a, c int32) int32, identity int32) []int32 {
	w, h := b.W(), b.H()
	if len(initial) != w*h {
		panic(fmt.Sprintf("seqcc: initial labels have length %d, want %d", len(initial), w*h))
	}
	lm := BFS(b)
	acc := make(map[int32]int32)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			l := lm.Get(x, y)
			if l == bitmap.Background {
				continue
			}
			v, ok := acc[l]
			if !ok {
				v = identity
			}
			acc[l] = op(v, initial[x*h+y])
		}
	}
	out := make([]int32, w*h)
	for i := range out {
		out[i] = identity
	}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if l := lm.Get(x, y); l != bitmap.Background {
				out[x*h+y] = acc[l]
			}
		}
	}
	return out
}
