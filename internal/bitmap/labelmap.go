package bitmap

import (
	"fmt"
	"strings"
)

// Background is the label of 0-pixels in a LabelMap.
const Background int32 = -1

// LabelMap holds a per-pixel component labeling. Labels are int32: the
// canonical label of a component is the least column-major position
// (x·H + y) of its pixels, which for images up to 32767² fits comfortably
// (the algorithm's right-pass labels use one extra bit of headroom).
// Storage is column-major to match the SLAP's one-column-per-PE layout.
type LabelMap struct {
	w, h int
	lab  []int32
}

// NewLabelMap returns a w×h map with every pixel labeled Background.
func NewLabelMap(w, h int) *LabelMap {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("bitmap: negative label map %dx%d", w, h))
	}
	lm := &LabelMap{w: w, h: h, lab: make([]int32, w*h)}
	for i := range lm.lab {
		lm.lab[i] = Background
	}
	return lm
}

// NewLabelMapNoInit returns a w×h label map whose slots are zero, NOT
// Background: the caller must write every position (runs and
// background gaps alike) before handing the map out. The host engine's
// fill sweep does exactly that, and skipping the Background prefill is
// a measurable slice of its per-frame cost.
func NewLabelMapNoInit(w, h int) *LabelMap {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("bitmap: negative label map %dx%d", w, h))
	}
	return &LabelMap{w: w, h: h, lab: make([]int32, w*h)}
}

// LabelMapOf wraps lab, a column-major w×h labeling, as a LabelMap
// without copying it: the map and the caller share the storage from
// here on.
func LabelMapOf(w, h int, lab []int32) *LabelMap {
	if w < 0 || h < 0 || len(lab) != w*h {
		panic(fmt.Sprintf("bitmap: %d labels for a %dx%d label map", len(lab), w, h))
	}
	return &LabelMap{w: w, h: h, lab: lab}
}

// Labels returns the map's whole column-major storage (index x·H + y).
// Writes through it are writes to the map.
func (lm *LabelMap) Labels() []int32 { return lm.lab }

// W returns the width.
func (lm *LabelMap) W() int { return lm.w }

// H returns the height.
func (lm *LabelMap) H() int { return lm.h }

// Get returns the label at (x, y).
func (lm *LabelMap) Get(x, y int) int32 {
	if x < 0 || x >= lm.w || y < 0 || y >= lm.h {
		panic(fmt.Sprintf("bitmap: label Get(%d, %d) out of bounds for %dx%d", x, y, lm.w, lm.h))
	}
	return lm.lab[x*lm.h+y]
}

// Set assigns the label at (x, y).
func (lm *LabelMap) Set(x, y int, v int32) {
	if x < 0 || x >= lm.w || y < 0 || y >= lm.h {
		panic(fmt.Sprintf("bitmap: label Set(%d, %d) out of bounds for %dx%d", x, y, lm.w, lm.h))
	}
	lm.lab[x*lm.h+y] = v
}

// ColumnSlice returns the backing storage of column x (labels indexed by
// row). Writes through it are writes to the map — the simulator's merge
// step uses it to assign a column's labels without per-pixel bounds
// arithmetic.
func (lm *LabelMap) ColumnSlice(x int) []int32 {
	return lm.lab[x*lm.h : (x+1)*lm.h]
}

// Equal reports whether two label maps agree exactly.
func (lm *LabelMap) Equal(o *LabelMap) bool {
	if lm.w != o.w || lm.h != o.h {
		return false
	}
	for i := range lm.lab {
		if lm.lab[i] != o.lab[i] {
			return false
		}
	}
	return true
}

// ComponentCount returns the number of distinct non-background labels.
func (lm *LabelMap) ComponentCount() int {
	seen := make(map[int32]struct{})
	for _, v := range lm.lab {
		if v != Background {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// ComponentSizes returns the pixel count of every distinct label.
func (lm *LabelMap) ComponentSizes() map[int32]int {
	// Canonical labels are column-major positions, so they index a dense
	// counting array of W·H slots — an order of magnitude cheaper than a
	// per-pixel map assignment on large frames. A labeling carrying a
	// foreign label space (e.g. a strip relabeled to global positions
	// that exceed its own W·H) falls back to the map.
	n := int32(len(lm.lab))
	counts := make([]int32, n)
	roots := make([]int32, 0, 64)
	for _, v := range lm.lab {
		if v < 0 {
			continue
		}
		if v >= n {
			return lm.componentSizesMap()
		}
		if counts[v] == 0 {
			roots = append(roots, v)
		}
		counts[v]++
	}
	sizes := make(map[int32]int, len(roots))
	for _, r := range roots {
		sizes[r] = int(counts[r])
	}
	return sizes
}

func (lm *LabelMap) componentSizesMap() map[int32]int {
	sizes := make(map[int32]int)
	for _, v := range lm.lab {
		if v != Background {
			sizes[v]++
		}
	}
	return sizes
}

// Foreground returns the binary image of non-background pixels.
func (lm *LabelMap) Foreground() *Bitmap {
	b := New(lm.w, lm.h)
	for x := 0; x < lm.w; x++ {
		for y := 0; y < lm.h; y++ {
			if lm.Get(x, y) != Background {
				b.Set(x, y, true)
			}
		}
	}
	return b
}

// String renders the map with one compact cell per pixel: '.' for
// background and a letter cycling through a–z per distinct label (in
// order of first appearance), for small-image debugging.
func (lm *LabelMap) String() string {
	names := map[int32]byte{}
	var sb strings.Builder
	for y := 0; y < lm.h; y++ {
		for x := 0; x < lm.w; x++ {
			v := lm.Get(x, y)
			if v == Background {
				sb.WriteByte('.')
				continue
			}
			c, ok := names[v]
			if !ok {
				c = byte('a' + len(names)%26)
				names[v] = c
			}
			sb.WriteByte(c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
