package bitmap

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	b := New(65, 3)
	if b.W() != 65 || b.H() != 3 {
		t.Fatalf("want 65x3, got %dx%d", b.W(), b.H())
	}
	if b.CountOnes() != 0 {
		t.Fatal("fresh bitmap should be empty")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for negative dimensions")
		}
	}()
	New(-1, 4)
}

func TestSetGetRoundTrip(t *testing.T) {
	b := New(130, 7) // width crosses two word boundaries
	coords := [][2]int{{0, 0}, {63, 0}, {64, 0}, {127, 6}, {128, 3}, {129, 6}}
	for _, c := range coords {
		b.Set(c[0], c[1], true)
	}
	for _, c := range coords {
		if !b.Get(c[0], c[1]) {
			t.Errorf("pixel (%d,%d) should be set", c[0], c[1])
		}
	}
	if got := b.CountOnes(); got != len(coords) {
		t.Fatalf("CountOnes: want %d, got %d", len(coords), got)
	}
	b.Set(64, 0, false)
	if b.Get(64, 0) {
		t.Fatal("pixel (64,0) should be cleared")
	}
}

func TestGetOutOfBoundsIsZero(t *testing.T) {
	b := Full(4)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}, {100, 100}} {
		if b.Get(c[0], c[1]) {
			t.Errorf("out-of-bounds Get(%d,%d) should be false", c[0], c[1])
		}
	}
}

func TestSetOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-bounds Set")
		}
	}()
	New(4, 4).Set(4, 0, true)
}

func TestFillAndDensity(t *testing.T) {
	b := New(70, 3) // 70 is not a multiple of 64: exercises padding mask
	b.Fill(true)
	if got := b.CountOnes(); got != 210 {
		t.Fatalf("full 70x3 should have 210 ones, got %d", got)
	}
	if b.Density() != 1 {
		t.Fatalf("density of full image should be 1, got %g", b.Density())
	}
	b.Fill(false)
	if b.CountOnes() != 0 || b.Density() != 0 {
		t.Fatal("cleared image should be empty")
	}
	if Empty(0).Density() != 0 {
		t.Fatal("0x0 image density should be 0")
	}
}

func TestCloneEqual(t *testing.T) {
	b := Random(33, 0.5, 1)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.Set(0, 0, !c.Get(0, 0))
	if b.Equal(c) {
		t.Fatal("mutated clone should differ")
	}
	if b.Equal(New(33, 32)) || b.Equal(New(32, 33)) {
		t.Fatal("different dimensions should not be equal")
	}
}

func TestPos(t *testing.T) {
	b := New(5, 7)
	if b.Pos(0, 0) != 0 || b.Pos(1, 0) != 7 || b.Pos(2, 3) != 17 {
		t.Fatal("column-major position formula x*H+y violated")
	}
}

func TestStringRendering(t *testing.T) {
	b := New(3, 2)
	b.Set(0, 0, true)
	b.Set(2, 1, true)
	want := "#..\n..#\n"
	if got := b.String(); got != want {
		t.Fatalf("want %q, got %q", want, got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	art := `
##.#
....
#..#
`
	b := MustParse(art)
	if b.W() != 4 || b.H() != 3 {
		t.Fatalf("want 4x3, got %dx%d", b.W(), b.H())
	}
	reparsed := MustParse(b.String())
	if !b.Equal(reparsed) {
		t.Fatal("String/Parse round trip failed")
	}
}

func TestParseRaggedAndAliases(t *testing.T) {
	b, err := Parse("1X#\n0. \n_x1")
	if err != nil {
		t.Fatal(err)
	}
	if b.W() != 3 || b.H() != 3 {
		t.Fatalf("want 3x3, got %dx%d", b.W(), b.H())
	}
	if b.CountOnes() != 5 {
		t.Fatalf("want 5 ones, got %d", b.CountOnes())
	}
}

// ArtDims must give exactly the dimensions Parse does, trimming and all.
func TestArtDimsMatchParse(t *testing.T) {
	for _, art := range []string{
		"", "\n", " \n\t\n", "#", "#\n", "\n\n.#\n\n", "1X#\n0. \n_x1", "#\r\n##\r\n",
		"#\n     \n#", "#\n\n\n##\n   \n\n", "  \n#.\n \v \n", "\r\n#\r\n\r\n",
	} {
		b, err := Parse(art)
		if err != nil {
			t.Fatalf("%q: %v", art, err)
		}
		if w, h := ArtDims([]byte(art)); w != b.W() || h != b.H() {
			t.Fatalf("%q: ArtDims %dx%d, Parse %dx%d", art, w, h, b.W(), b.H())
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse("#?#"); err == nil {
		t.Fatal("want error for unrecognized pixel character")
	}
}

func TestPBMRoundTrip(t *testing.T) {
	for _, gen := range []*Bitmap{Empty(5), Full(5), Random(17, 0.4, 7), Checker(8)} {
		var sb strings.Builder
		if err := gen.WritePBM(&sb); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPBM(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("ReadPBM: %v\ninput:\n%s", err, sb.String())
		}
		if !gen.Equal(back) {
			t.Fatal("PBM round trip changed the image")
		}
	}
}

func TestReadPBMWithCommentsAndPacking(t *testing.T) {
	in := "P1\n# a comment\n3 2\n110\n# another\n0 1 1\n"
	b, err := ReadPBM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := MustParse("##.\n.##")
	if !b.Equal(want) {
		t.Fatalf("want\n%s\ngot\n%s", want, b)
	}
}

func TestReadPBMErrors(t *testing.T) {
	cases := []string{
		"P4\n2 2\n",        // wrong magic
		"P1\n2\n",          // missing height
		"P1\n2 2\n1 0 1\n", // truncated raster
		"P1\nx 2\n1 1 1 1", // bad width token
		"P1\n2 2\n1 0 2 0", // bad pixel
	}
	for _, in := range cases {
		if _, err := ReadPBM(strings.NewReader(in)); err == nil {
			t.Errorf("want error for %q", in)
		}
	}
}

// TestPBMDims: the header peek reads the declared dimensions past
// comments and without a raster, and refuses what ReadPBM would refuse
// in the header.
func TestPBMDims(t *testing.T) {
	for _, tc := range []struct {
		in   string
		w, h int
		ok   bool
	}{
		{"P1\n# a comment\n3 2\n110\n011\n", 3, 2, true},
		{"P1 1048576 128 ", 1 << 20, 128, true}, // header only
		{"P4\n2 2\n", 0, 0, false},
		{"P1\n2\n", 0, 0, false},
		{"P1\nx 2\n", 0, 0, false},
		{"P1 2097152 1 ", 0, 0, false}, // over the parser's 1<<20 bound
		{"SLR1", 0, 0, false},
	} {
		w, h, ok := PBMDims([]byte(tc.in))
		if ok != tc.ok || (ok && (w != tc.w || h != tc.h)) {
			t.Errorf("PBMDims(%q) = %d, %d, %v; want %d, %d, %v", tc.in, w, h, ok, tc.w, tc.h, tc.ok)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	b := Random(19, 0.5, 3)
	if !b.Transpose().Transpose().Equal(b) {
		t.Fatal("transpose twice should be identity")
	}
	tr := b.Transpose()
	for y := 0; y < b.H(); y++ {
		for x := 0; x < b.W(); x++ {
			if b.Get(x, y) != tr.Get(y, x) {
				t.Fatalf("transpose mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestMirrorInvolutions(t *testing.T) {
	b := Random(21, 0.5, 9)
	if !b.MirrorH().MirrorH().Equal(b) {
		t.Fatal("MirrorH twice should be identity")
	}
	if !b.MirrorV().MirrorV().Equal(b) {
		t.Fatal("MirrorV twice should be identity")
	}
	m := b.MirrorH()
	if b.Get(0, 5) != m.Get(b.W()-1, 5) {
		t.Fatal("MirrorH should swap ends of rows")
	}
}

func TestSubImageOverlay(t *testing.T) {
	b := Full(6)
	s := b.SubImage(1, 2, 3, 4)
	if s.W() != 3 || s.H() != 4 || s.CountOnes() != 12 {
		t.Fatalf("unexpected subimage %dx%d ones=%d", s.W(), s.H(), s.CountOnes())
	}
	dst := Empty(10)
	dst.Overlay(s, 8, 8) // clips: only (8,8),(9,8),(8,9),(9,9),(8,10)x... inside
	if dst.CountOnes() != 4 {
		t.Fatalf("clipped overlay should set 4 pixels, got %d", dst.CountOnes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-bounds SubImage")
		}
	}()
	b.SubImage(4, 4, 3, 3)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGIntnBoundsQuick(t *testing.T) {
	rng := NewRNG(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := rng.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: PBM write/read round-trips arbitrary images exactly.
func TestPBMRoundTripQuick(t *testing.T) {
	f := func(seed uint32, wp, hp uint8) bool {
		w := int(wp%40) + 1
		h := int(hp%40) + 1
		img := New(w, h)
		rng := NewRNG(uint64(seed))
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				if rng.Float64() < 0.5 {
					img.Set(x, y, true)
				}
			}
		}
		var sb strings.Builder
		if err := img.WritePBM(&sb); err != nil {
			return false
		}
		back, err := ReadPBM(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return img.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Set/Get agree with a naive map-based shadow implementation.
func TestBitmapShadowQuick(t *testing.T) {
	f := func(ops []uint32) bool {
		const w, h = 37, 23
		b := New(w, h)
		shadow := map[[2]int]bool{}
		for _, op := range ops {
			x := int(op % w)
			y := int((op / w) % h)
			v := (op>>16)&1 == 1
			b.Set(x, y, v)
			shadow[[2]int{x, y}] = v
		}
		count := 0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				want := shadow[[2]int{x, y}]
				if b.Get(x, y) != want {
					return false
				}
				if want {
					count++
				}
			}
		}
		return b.CountOnes() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestColumnWords reads one column at a time — the first column of a
// block started at x, as the host labeler's column walk reads it — and
// holds it to Get: (H+63)/64 words, zero padding bits above H, and a
// dst reused across reads overwritten in full.
func TestColumnWords(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {3, 7}, {5, 64}, {9, 65}, {65, 130}, {70, 200}} {
		w, h := dim[0], dim[1]
		b := Random(max(w, h), 0.5, uint64(w*h)).SubImage(0, 0, w, h)
		hw := (h + 63) / 64
		full := New(w, h)
		full.Fill(true)
		var dst []uint64
		for x := 0; x < w; x++ {
			dst = full.ColumnWordsBlock(x, dst) // dirty the words the read must overwrite
			dst = b.ColumnWordsBlock(x, dst)
			col := dst[:hw]
			for y := 0; y < h; y++ {
				if got := col[y>>6]&(1<<(uint(y)&63)) != 0; got != b.Get(x, y) {
					t.Fatalf("%dx%d: column %d bit %d = %v, Get = %v", w, h, x, y, got, b.Get(x, y))
				}
			}
			if rem := h % 64; rem != 0 {
				if hi := col[hw-1] >> uint(rem); hi != 0 {
					t.Fatalf("%dx%d column %d: dirty padding bits %x", w, h, x, hi)
				}
			}
		}
	}
}

// TestColumnWordsBlock holds the block extractor to Get for every
// column of a block at every start column, aligned or not, across
// widths and heights that exercise partial last blocks and partial last
// row words on both axes: the length, zero columns past W, zero
// padding bits above H (so word-wise walks are exact), and a reused dst
// overwritten in full.
func TestColumnWordsBlock(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {3, 7}, {5, 64}, {64, 64}, {65, 130}, {70, 200}, {128, 63}, {200, 70}} {
		w, h := dim[0], dim[1]
		b := Random(max(w, h), 0.5, uint64(7*w+h)).SubImage(0, 0, w, h)
		hw := (h + 63) / 64
		full := New(w, h)
		full.Fill(true)
		var block []uint64
		for x0 := 0; x0 < w; x0++ {
			block = full.ColumnWordsBlock(0, block) // dirty every word before the reuse
			block = b.ColumnWordsBlock(x0, block)
			if len(block) != 64*hw {
				t.Fatalf("%dx%d block at %d: got %d words, want %d", w, h, x0, len(block), 64*hw)
			}
			for c := 0; c < 64; c++ {
				col := block[c*hw : (c+1)*hw]
				for y := 0; y < h; y++ {
					if got := col[y>>6]>>(uint(y)&63)&1 != 0; got != b.Get(x0+c, y) {
						t.Fatalf("%dx%d: block at %d, column %d row %d = %v, Get = %v", w, h, x0, c, y, got, b.Get(x0+c, y))
					}
				}
				if rem := h % 64; rem != 0 {
					if hi := col[hw-1] >> uint(rem); hi != 0 {
						t.Fatalf("%dx%d: block at %d, column %d: dirty padding bits %x", w, h, x0, c, hi)
					}
				}
			}
		}
		for _, x0 := range []int{-1, w} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%dx%d: ColumnWordsBlock(%d) did not panic", w, h, x0)
					}
				}()
				b.ColumnWordsBlock(x0, nil)
			}()
		}
	}
}

// TestParseCRLF: art with Windows line endings must parse identically to
// its LF form — the trailing '\r' is stripped per line, never treated as
// a pixel, and never inflates the computed width.
func TestParseCRLF(t *testing.T) {
	crlf, err := Parse("##.\r\n.#.\r\n..#")
	if err != nil {
		t.Fatalf("CRLF art rejected: %v", err)
	}
	lf := MustParse("##.\n.#.\n..#")
	if !crlf.Equal(lf) {
		t.Fatalf("CRLF parse diverged from LF parse:\n%s\nvs\n%s", crlf, lf)
	}
	if crlf.W() != 3 || crlf.H() != 3 {
		t.Fatalf("CRLF parse got %dx%d, want 3x3 (stray \\r inflated the width?)", crlf.W(), crlf.H())
	}
	// A lone trailing CRLF line is a blank line, same as LF.
	b, err := Parse("#\r\n\r\n")
	if err != nil || b.W() != 1 || b.H() != 1 {
		t.Fatalf("trailing CRLF blank line: got %v, %dx%d", err, b.W(), b.H())
	}
}

// TestParseAlphabet pins the full accepted pixel alphabet, one rune per
// case: '#', '1', 'X', 'x' are 1-pixels; '.', '0', ' ', '_' are
// 0-pixels; everything else is rejected with a position.
func TestParseAlphabet(t *testing.T) {
	cases := []struct {
		rune byte
		want bool // foreground?
		ok   bool
	}{
		{'#', true, true},
		{'1', true, true},
		{'X', true, true},
		{'x', true, true},
		{'.', false, true},
		{'0', false, true},
		{' ', false, true},
		{'_', false, true},
		{'?', false, false},
		{'2', false, false},
		{'\t', false, false},
	}
	for _, tc := range cases {
		// Anchor with a known foreground pixel so width is stable.
		b, err := Parse("#" + string(tc.rune))
		if !tc.ok {
			if err == nil {
				t.Errorf("rune %q accepted, want rejection", tc.rune)
			}
			continue
		}
		if err != nil {
			t.Errorf("rune %q rejected: %v", tc.rune, err)
			continue
		}
		if got := b.Get(1, 0); got != tc.want {
			t.Errorf("rune %q parsed as %v, want %v", tc.rune, got, tc.want)
		}
	}
}
