package bitmap

import "testing"

// TestStripViewMatchesSubImage: a Strip must read exactly like the
// copied SubImage of the same window, through both Get and
// ColumnWordsBlock at every start column, without copying any pixels —
// including windows whose offset and right edge fall inside a word.
func TestStripViewMatchesSubImage(t *testing.T) {
	img := RandomRect(131, 70, 0.5, 31337)
	for _, win := range [][2]int{{0, 131}, {0, 17}, {64, 64}, {63, 5}, {100, 31}, {130, 1}, {40, 0}} {
		x0, w := win[0], win[1]
		s := img.StripView(x0, w)
		sub := img.SubImage(x0, 0, w, img.H())
		if s.W() != w || s.H() != img.H() {
			t.Fatalf("strip [%d,%d): dims %dx%d, want %dx%d", x0, x0+w, s.W(), s.H(), w, img.H())
		}
		var got, want []uint64
		for x := 0; x < w; x++ {
			got = s.ColumnWordsBlock(x, got)
			want = sub.ColumnWordsBlock(x, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("strip [%d,%d): block at %d word %d: %x, want %x", x0, x0+w, x, i, got[i], want[i])
				}
			}
		}
		for x := -1; x <= w; x++ {
			for y := 0; y < img.H(); y++ {
				if s.Get(x, y) != sub.Get(x, y) {
					t.Fatalf("strip [%d,%d): Get(%d,%d) diverges from SubImage", x0, x0+w, x, y)
				}
			}
		}
		for _, x := range []int{-1, w} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("strip [%d,%d): ColumnWordsBlock(%d) did not panic", x0, x0+w, x)
					}
				}()
				s.ColumnWordsBlock(x, nil)
			}()
		}
	}
}

// TestStripViewSharesStorage: the view is zero-copy — writes to the
// parent are visible through it.
func TestStripViewSharesStorage(t *testing.T) {
	img := New(10, 4)
	s := img.StripView(3, 4)
	if s.Get(1, 2) {
		t.Fatal("fresh image has a set pixel")
	}
	img.Set(4, 2, true)
	if !s.Get(1, 2) {
		t.Fatal("write to the parent not visible through the strip view")
	}
	if s.Get(-1, 2) || s.Get(4, 2) {
		t.Fatal("out-of-strip columns must read as 0")
	}
}

// TestStripViewBounds: windows outside the image are programming errors.
func TestStripViewBounds(t *testing.T) {
	img := New(8, 8)
	for _, win := range [][2]int{{-1, 4}, {5, 4}, {0, 9}, {8, 1}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StripView(%d, %d) did not panic", win[0], win[1])
				}
			}()
			img.StripView(win[0], win[1])
		}()
	}
}
