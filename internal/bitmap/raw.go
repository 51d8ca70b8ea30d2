package bitmap

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The SLR1 raw wire format: the densest self-describing serialization of
// a Bitmap, built for the labeling service's hot ingest path (no pixel
// re-parsing, no compression round-trip — a 1024×1024 frame is a 128 KiB
// body decoded with byte moves). The normative specification, decoder
// obligations, and a worked hex example live in docs/SLR1.md; this
// implementation is its reference.
//
//	offset  size          field
//	0       4             magic "SLR1"
//	4       4             width,  little-endian uint32
//	8       4             height, little-endian uint32
//	12      h·⌈w/8⌉       raster: rows top to bottom, each padded to a
//	                      whole byte; bit x&7 of byte x>>3 is pixel (x, y),
//	                      1 = foreground. Padding bits above w are zero.
const (
	rawMagic      = "SLR1"
	rawHeaderSize = 12
)

// RawSize returns the encoded SLR1 size in bytes of a w×h image.
func RawSize(w, h int) int { return rawHeaderSize + h*((w+7)/8) }

// WriteRaw writes the image in the SLR1 raw packed-bitset format.
func (b *Bitmap) WriteRaw(w io.Writer) error {
	rowBytes := (b.w + 7) / 8
	buf := make([]byte, rawHeaderSize+rowBytes)
	copy(buf, rawMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(b.w))
	binary.LittleEndian.PutUint32(buf[8:], uint32(b.h))
	if _, err := w.Write(buf[:rawHeaderSize]); err != nil {
		return err
	}
	row := buf[rawHeaderSize:]
	for y := 0; y < b.h; y++ {
		words := b.words[y*b.stride : (y+1)*b.stride]
		for k := 0; k < rowBytes; k++ {
			row[k] = byte(words[k>>3] >> (8 * uint(k&7)))
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// AppendRaw appends the SLR1 encoding of the image to dst and returns
// the extended slice; the allocation-free form of WriteRaw for callers
// assembling request bodies.
func (b *Bitmap) AppendRaw(dst []byte) []byte {
	return b.StripView(0, b.w).AppendRaw(dst)
}

// AppendRaw appends the SLR1 encoding of the strip — a w×h image of
// its own — to dst and returns the extended slice. Each raster row is
// cut from the parent's row words by shifting and masking whole words,
// eight bytes at a time, so encoding a strip costs a pass over its
// bytes, not over its pixels.
func (s *Strip) AppendRaw(dst []byte) []byte {
	w, h := s.w, s.src.h
	dst = slices.Grow(dst, RawSize(w, h))
	dst = append(dst, rawMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h))
	full, tail := w/64, w%64
	first, shift := s.x0/64, uint(s.x0%64)
	for y := 0; y < h; y++ {
		row := s.src.words[y*s.src.stride : (y+1)*s.src.stride]
		for k := 0; k < full; k++ {
			dst = binary.LittleEndian.AppendUint64(dst, shiftedWord(row, first+k, shift))
		}
		if tail != 0 {
			v := shiftedWord(row, first+full, shift) & (1<<uint(tail) - 1)
			for b := 0; b < (tail+7)/8; b++ {
				dst = append(dst, byte(v>>(8*uint(b))))
			}
		}
	}
	return dst
}

// shiftedWord returns the 64 pixels of row starting at bit shift of
// word i; bits past the row's last word read as 0.
func shiftedWord(row []uint64, i int, shift uint) uint64 {
	v := row[i] >> shift
	if shift != 0 && i+1 < len(row) {
		v |= row[i+1] << (64 - shift)
	}
	return v
}

// RawDims reads the dimensions out of an SLR1 header without touching
// the raster, so admission layers can enforce size limits before any
// pixel storage is allocated. ok is false when data is not SLR1.
func RawDims(data []byte) (w, h int, ok bool) {
	if len(data) < rawHeaderSize || string(data[:4]) != rawMagic {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(data[4:])), int(binary.LittleEndian.Uint32(data[8:])), true
}

// ReadRaw reads an SLR1 raw packed-bitset image. Dimensions are
// validated against the same bound as ReadPBM before the raster is
// touched; padding bits in the raster are masked off, so a sloppy
// encoder cannot smuggle out-of-width pixels into the bitmap.
func ReadRaw(r io.Reader) (*Bitmap, error) {
	var hdr [rawHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("bitmap: reading SLR1 header: %w", err)
	}
	if string(hdr[:4]) != rawMagic {
		return nil, fmt.Errorf("bitmap: bad SLR1 magic %q", hdr[:4])
	}
	w := int(binary.LittleEndian.Uint32(hdr[4:]))
	h := int(binary.LittleEndian.Uint32(hdr[8:]))
	if w < 0 || h < 0 || w > 1<<20 || h > 1<<20 {
		return nil, fmt.Errorf("bitmap: unreasonable SLR1 dimensions %dx%d", w, h)
	}
	b := New(w, h)
	rowBytes := (w + 7) / 8
	row := make([]byte, rowBytes)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(r, row); err != nil {
			return nil, fmt.Errorf("bitmap: SLR1 raster truncated at row %d: %w", y, err)
		}
		words := b.words[y*b.stride : (y+1)*b.stride]
		for k := 0; k < rowBytes; k++ {
			words[k>>3] |= uint64(row[k]) << (8 * uint(k&7))
		}
	}
	b.clearPadding()
	return b, nil
}
