package bitmap

import "fmt"

// Image is the read-only shape both engines consume: dimensions plus
// word-packed column extraction, 64 columns at a time. *Bitmap
// implements it, and so does the zero-copy *Strip view, which is how
// the strip-mined tiler labels a window of a larger image without
// copying pixels.
type Image interface {
	// W returns the width (number of columns / SLAP processors).
	W() int
	// H returns the height (number of rows).
	H() int
	// ColumnWordsBlock extracts the 64 columns starting at x0, which
	// must be in [0, W), as Bitmap.ColumnWordsBlock lays them out into
	// dst (reused when its capacity suffices); columns at or beyond W
	// extract as all zeros.
	ColumnWordsBlock(x0 int, dst []uint64) []uint64
}

var (
	_ Image = (*Bitmap)(nil)
	_ Image = (*Strip)(nil)
)

// Strip is a zero-copy vertical slice of a Bitmap: columns [x0, x0+w) at
// full height, re-addressed from column 0. The strip-mined tiler labels
// each strip on a fixed-width array through this view; no pixels are
// copied (column extraction delegates to the parent with the offset
// applied). A Strip observes later writes to the parent image.
type Strip struct {
	src *Bitmap
	x0  int
	w   int
}

// StripView returns the view of columns [x0, x0+w). It panics when the
// window is not fully inside the image: a silent clip would corrupt the
// tiler's seam arithmetic.
func (b *Bitmap) StripView(x0, w int) *Strip {
	if x0 < 0 || w < 0 || x0+w > b.w {
		panic(fmt.Sprintf("bitmap: strip [%d, %d) out of bounds for width %d", x0, x0+w, b.w))
	}
	return &Strip{src: b, x0: x0, w: w}
}

// W returns the strip's width.
func (s *Strip) W() int { return s.w }

// H returns the strip's height (the parent's).
func (s *Strip) H() int { return s.src.h }

// Get returns the pixel at strip coordinates (x, y); out-of-range
// coordinates read as 0, mirroring Bitmap.Get (columns outside the strip
// read as 0 even where the parent image has pixels).
func (s *Strip) Get(x, y int) bool {
	if x < 0 || x >= s.w {
		return false
	}
	return s.src.Get(s.x0+x, y)
}

// ColumnWordsBlock extracts strip columns [x0, x0+64) (parent columns
// from x0 on) exactly as Bitmap.ColumnWordsBlock does; columns past the
// strip's right edge extract as all zeros even where the parent image
// has pixels. It panics when x0 is outside [0, W).
func (s *Strip) ColumnWordsBlock(x0 int, dst []uint64) []uint64 {
	if x0 < 0 || x0 >= s.w {
		panic(fmt.Sprintf("bitmap: strip column block at %d outside [0, %d)", x0, s.w))
	}
	return s.src.columnWordsBlock(s.x0+x0, s.x0+s.w, dst)
}
