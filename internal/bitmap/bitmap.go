// Package bitmap provides the binary-image container used throughout the
// repository, together with the workload generators, text/PBM
// serialization, and geometric transforms needed by the experiments.
//
// Pixels are addressed as (x, y) with x the column index in [0, W) and y
// the row index in [0, H), matching the paper's convention that processor
// i of the SLAP holds column i and rows are numbered top to bottom. The
// column-major position of pixel (x, y) in an n×n image is x·n + y; the
// paper uses that position as the initial label of each pixel.
package bitmap

import (
	"fmt"
	"strings"
)

// Connectivity selects which pixels count as adjacent.
type Connectivity uint8

// Supported connectivities. The paper treats 4-connectivity ("adjacent
// horizontally or vertically"); 8-connectivity adds the diagonals and is
// provided as the customary library extension.
const (
	Conn4 Connectivity = 4
	Conn8 Connectivity = 8
)

// Valid reports whether c is a supported connectivity.
func (c Connectivity) Valid() bool { return c == Conn4 || c == Conn8 }

func (c Connectivity) String() string {
	switch c {
	case Conn4:
		return "4-connected"
	case Conn8:
		return "8-connected"
	}
	return "invalid-connectivity"
}

// Neighbors returns the adjacency offsets of c.
func (c Connectivity) Neighbors() [][2]int {
	if c == Conn8 {
		return [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	}
	return [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
}

// Bitmap is a binary image stored bit-packed in row-major order. The zero
// value is an empty 0×0 image; use New to allocate.
type Bitmap struct {
	w, h   int
	words  []uint64 // row-major, ceil(w/64) words per row
	stride int      // words per row
}

// New returns an all-zero bitmap of width w and height h. It panics if
// either dimension is negative.
func New(w, h int) *Bitmap {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("bitmap: negative dimensions %dx%d", w, h))
	}
	stride := (w + 63) / 64
	return &Bitmap{w: w, h: h, stride: stride, words: make([]uint64, stride*h)}
}

// Square returns an all-zero n×n bitmap.
func Square(n int) *Bitmap { return New(n, n) }

// W returns the width (number of columns / SLAP processors).
func (b *Bitmap) W() int { return b.w }

// H returns the height (number of rows).
func (b *Bitmap) H() int { return b.h }

// InBounds reports whether (x, y) is a valid pixel coordinate.
func (b *Bitmap) InBounds(x, y int) bool {
	return x >= 0 && x < b.w && y >= 0 && y < b.h
}

// Get returns the pixel at (x, y). Out-of-bounds coordinates read as 0,
// which simplifies neighborhood scans at the image border.
func (b *Bitmap) Get(x, y int) bool {
	if !b.InBounds(x, y) {
		return false
	}
	return b.words[y*b.stride+x/64]&(1<<uint(x%64)) != 0
}

// Set assigns the pixel at (x, y). It panics on out-of-bounds coordinates:
// silently dropping writes would mask generator bugs.
func (b *Bitmap) Set(x, y int, v bool) {
	if !b.InBounds(x, y) {
		panic(fmt.Sprintf("bitmap: Set(%d, %d) out of bounds for %dx%d", x, y, b.w, b.h))
	}
	idx := y*b.stride + x/64
	mask := uint64(1) << uint(x%64)
	if v {
		b.words[idx] |= mask
	} else {
		b.words[idx] &^= mask
	}
}

// Fill sets every pixel to v.
func (b *Bitmap) Fill(v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	for i := range b.words {
		b.words[i] = w
	}
	if v {
		b.clearPadding()
	}
}

// clearPadding zeroes the unused high bits in the last word of each row so
// that popcounts and equality checks are exact.
func (b *Bitmap) clearPadding() {
	rem := b.w % 64
	if rem == 0 || b.stride == 0 {
		return
	}
	mask := (uint64(1) << uint(rem)) - 1
	for y := 0; y < b.h; y++ {
		b.words[y*b.stride+b.stride-1] &= mask
	}
}

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	c := New(b.w, b.h)
	copy(c.words, b.words)
	return c
}

// Equal reports whether two bitmaps have identical dimensions and pixels.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.w != o.w || b.h != o.h {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// CountOnes returns the number of 1-pixels.
func (b *Bitmap) CountOnes() int {
	n := 0
	for _, w := range b.words {
		n += popcount(w)
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Density returns the fraction of 1-pixels, in [0, 1]; 0 for empty images.
func (b *Bitmap) Density() float64 {
	if b.w*b.h == 0 {
		return 0
	}
	return float64(b.CountOnes()) / float64(b.w*b.h)
}

// ColumnWordsBlock extracts the 64 columns starting at x0 as packed
// column bitsets, laid out column-major in dst: bit y%64 of word
// c·ceil(H/64) + y/64 is pixel (x0+c, y). dst is reused when its
// capacity suffices (the engines' arenas). Columns at or beyond W
// extract as all zeros and padding bits above H are zero, so word-wise
// popcounts and zero-skipping walks over a column are exact. x0 may be
// any column of the image: each row's 64 pixels from x0 on are cut from
// its words by one shift (shiftedWord), and one 64×64 bit transpose per
// 64-row tile replaces 64·64 single-bit probes, which is what lets the
// host engine stream whole images at memory-bandwidth-ish rates. It
// panics when x0 is outside [0, W).
func (b *Bitmap) ColumnWordsBlock(x0 int, dst []uint64) []uint64 {
	return b.columnWordsBlock(x0, b.w, dst)
}

// columnWordsBlock is ColumnWordsBlock with the columns at or beyond end
// (at most W) extracting as zeros: a Strip's right edge.
func (b *Bitmap) columnWordsBlock(x0, end int, dst []uint64) []uint64 {
	if x0 < 0 || x0 >= end {
		panic(fmt.Sprintf("bitmap: column block at %d outside [0, %d)", x0, end))
	}
	hw := (b.h + 63) >> 6
	n := 64 * hw
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	// Mask each row's 64 pixels to the valid columns, so neither a row
	// word's padding bits nor the pixels past end leak into the block's
	// phantom columns.
	mask := ^uint64(0)
	if rem := end - x0; rem < 64 {
		mask = 1<<uint(rem) - 1
	}
	idx, shift := x0>>6, uint(x0&63)
	var tile [64]uint64
	for yc := 0; yc < hw; yc++ {
		y0 := yc << 6
		rows := min(b.h-y0, 64)
		for i := 0; i < rows; i++ {
			base := (y0 + i) * b.stride
			tile[i] = shiftedWord(b.words[base:base+b.stride], idx, shift) & mask
		}
		for i := rows; i < 64; i++ {
			tile[i] = 0
		}
		transpose64(&tile)
		for c := 0; c < 64; c++ {
			dst[c*hw+yc] = tile[c]
		}
	}
	return dst
}

// transpose64 transposes a 64×64 bit matrix in place (row i's bit j
// becomes row j's bit i) by recursive block swaps — the classic
// Hacker's Delight 7-3 network widened to 64 bits: lg 64 stages, each
// exchanging complementary sub-blocks under a shrinking mask.
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & mask
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		j >>= 1
		mask ^= mask << uint(j)
	}
}

// Pos returns the column-major position x·H + y of a pixel, the initial
// label assigned by the paper's Algorithm CC.
func (b *Bitmap) Pos(x, y int) int { return x*b.h + y }

// String renders the bitmap as ASCII art with '#' for 1-pixels and '.'
// for 0-pixels, one row per line.
func (b *Bitmap) String() string {
	var sb strings.Builder
	sb.Grow((b.w + 1) * b.h)
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			if b.Get(x, y) {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
