package bitmap

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Parse builds a bitmap from ASCII art: one row per line, with '#', '1',
// 'X' and 'x' read as 1-pixels and '.', '0', ' ' and '_' as 0-pixels.
// Lines may end with "\r\n" (the trailing '\r' is stripped, so art
// pasted from CRLF files parses and the '\r' never inflates the computed
// width). Lines may have differing lengths; the image width is the
// longest line and short lines are padded with 0s. Leading/trailing
// blank lines are ignored.
func Parse(art string) (*Bitmap, error) {
	lines := strings.Split(art, "\n")
	for i, ln := range lines {
		lines[i] = strings.TrimSuffix(ln, "\r")
	}
	for len(lines) > 0 && strings.TrimSpace(lines[0]) == "" {
		lines = lines[1:]
	}
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	w := 0
	for _, ln := range lines {
		if len(ln) > w {
			w = len(ln)
		}
	}
	b := New(w, len(lines))
	for y, ln := range lines {
		for x := 0; x < len(ln); x++ {
			switch ln[x] {
			case '#', '1', 'X', 'x':
				b.Set(x, y, true)
			case '.', '0', ' ', '_':
				// zero pixel
			default:
				return nil, fmt.Errorf("bitmap: unrecognized pixel %q at (%d, %d)", ln[x], x, y)
			}
		}
	}
	return b, nil
}

// ArtDims returns the dimensions Parse gives art — the longest line and
// the line count, under the same trimming of '\r' and of leading and
// trailing blank lines — without allocating, so a decoder can check
// them against its limits before Parse allocates the raster.
func ArtDims(art []byte) (w, h int) {
	blank, blankW := 0, 0 // blank lines since the last non-blank one, and the widest
	for {
		ln, rest, more := art, []byte(nil), false
		if i := bytes.IndexByte(art, '\n'); i >= 0 {
			ln, rest, more = art[:i], art[i+1:], true
		}
		ln = bytes.TrimSuffix(ln, []byte{'\r'})
		switch {
		case len(bytes.TrimSpace(ln)) != 0:
			if h > 0 {
				h += blank // interior blank lines are rows too
				w = max(w, blankW)
			}
			h++
			w = max(w, len(ln))
			blank, blankW = 0, 0
		case h > 0:
			blank++
			blankW = max(blankW, len(ln))
		}
		if !more {
			return w, h
		}
		art = rest
	}
}

// MustParse is Parse that panics on error, for test fixtures.
func MustParse(art string) *Bitmap {
	b, err := Parse(art)
	if err != nil {
		panic(err)
	}
	return b
}

// WritePBM writes the image in plain PBM (P1) format. PBM's convention of
// 1 = black matches our 1 = foreground.
func (b *Bitmap) WritePBM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P1\n%d %d\n", b.w, b.h); err != nil {
		return err
	}
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			c := byte('0')
			if b.Get(x, y) {
				c = '1'
			}
			if err := bw.WriteByte(c); err != nil {
				return err
			}
			if x != b.w-1 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PBMDims returns the dimensions a plain PBM (P1) header declares. It
// reads only the magic and the two dimension tokens, so a decoder can
// check its limits against the header before ReadPBM allocates the
// raster — the P1 counterpart of RawDims. ok is false when data does not
// start with a well-formed header; ReadPBM then reports why.
func PBMDims(data []byte) (w, h int, ok bool) {
	w, h, err := readPBMHeader(newPBMScanner(bytes.NewReader(data)))
	return w, h, err == nil
}

// ReadPBM reads a plain PBM (P1) image, tolerating arbitrary whitespace
// between tokens and '#' comment lines as the format allows.
func ReadPBM(r io.Reader) (*Bitmap, error) {
	sc := newPBMScanner(r)
	w, h, err := readPBMHeader(sc)
	if err != nil {
		return nil, err
	}
	b := New(w, h)
	// P1 allows raster digits to be packed without separators; consume
	// the raster digit by digit from whitespace-separated tokens.
	var cur string
	pos := 0
	nextDigit := func() (byte, error) {
		for pos >= len(cur) {
			tok, err := pbmToken(sc)
			if err != nil {
				return 0, err
			}
			cur, pos = tok, 0
		}
		c := cur[pos]
		pos++
		return c, nil
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c, err := nextDigit()
			if err != nil {
				return nil, fmt.Errorf("bitmap: PBM truncated at pixel (%d, %d): %w", x, y, err)
			}
			switch c {
			case '1':
				b.Set(x, y, true)
			case '0':
				// zero pixel
			default:
				return nil, fmt.Errorf("bitmap: bad PBM pixel %q at (%d, %d)", c, x, y)
			}
		}
	}
	return b, nil
}

// newPBMScanner returns a scanner over r yielding PBM tokens. Its
// buffer starts small and grows on demand, so reading a header costs
// a few KiB whatever the header declares; packed raster rows may
// still run to 16 MiB.
func newPBMScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	sc.Split(scanPBMTokens)
	return sc
}

// pbmToken returns the scanner's next token, io.ErrUnexpectedEOF at
// the end of the input.
func pbmToken(sc *bufio.Scanner) (string, error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	return sc.Text(), nil
}

// readPBMHeader reads the P1 magic and the dimensions, bounded by the
// parser's own 1<<20 sanity limit.
func readPBMHeader(sc *bufio.Scanner) (w, h int, err error) {
	magic, err := pbmToken(sc)
	if err != nil {
		return 0, 0, fmt.Errorf("bitmap: reading PBM magic: %w", err)
	}
	if magic != "P1" {
		return 0, 0, fmt.Errorf("bitmap: unsupported PBM magic %q (want P1)", magic)
	}
	tok, err := pbmToken(sc)
	if err != nil {
		return 0, 0, fmt.Errorf("bitmap: reading PBM width: %w", err)
	}
	if _, err := fmt.Sscanf(tok, "%d", &w); err != nil {
		return 0, 0, fmt.Errorf("bitmap: bad PBM width %q", tok)
	}
	tok, err = pbmToken(sc)
	if err != nil {
		return 0, 0, fmt.Errorf("bitmap: reading PBM height: %w", err)
	}
	if _, err := fmt.Sscanf(tok, "%d", &h); err != nil {
		return 0, 0, fmt.Errorf("bitmap: bad PBM height %q", tok)
	}
	if w < 0 || h < 0 || w > 1<<20 || h > 1<<20 {
		return 0, 0, fmt.Errorf("bitmap: unreasonable PBM dimensions %dx%d", w, h)
	}
	return w, h, nil
}

// scanPBMTokens is a bufio.SplitFunc yielding whitespace-separated tokens
// with '#'-to-end-of-line comments removed. Packed raster digits are NOT
// split here — the header tokens "10" or "11" would be indistinguishable
// from packed pixels; ReadPBM consumes raster tokens digit by digit
// instead.
func scanPBMTokens(data []byte, atEOF bool) (advance int, token []byte, err error) {
	i := 0
	// Skip whitespace and comments.
	for i < len(data) {
		c := data[i]
		if c == '#' {
			j := i
			for j < len(data) && data[j] != '\n' {
				j++
			}
			if j == len(data) && !atEOF {
				return 0, nil, nil // need more data to finish the comment
			}
			i = j
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		break
	}
	if i == len(data) {
		if atEOF {
			return i, nil, nil
		}
		return i, nil, nil
	}
	start := i
	for i < len(data) {
		c := data[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '#' {
			break
		}
		i++
	}
	if i == len(data) && !atEOF {
		return start, nil, nil // token may continue; wait for more data
	}
	return i, data[start:i], nil
}
