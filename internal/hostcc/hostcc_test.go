package hostcc

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"slapcc/internal/bitmap"
	"slapcc/internal/seqcc"
)

var conns = []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8}

func checkLabels(t *testing.T, name string, img *bitmap.Bitmap, conn bitmap.Connectivity, got *bitmap.LabelMap) {
	t.Helper()
	want := seqcc.BFSConn(img, conn)
	if !got.Equal(want) {
		t.Fatalf("%s conn%d: host labels diverge from BFS ground truth", name, conn)
	}
}

func TestLabelFamilies(t *testing.T) {
	lb := NewLabeler()
	for _, fam := range bitmap.Families() {
		for _, n := range []int{1, 7, 33, 64, 65, 96} {
			img := fam.Generate(n)
			for _, conn := range conns {
				got, st := lb.Label(img, conn)
				checkLabels(t, fmt.Sprintf("%s n=%d", fam.Name, n), img, conn, got)
				if st.Runs < 0 || st.Finds < 0 {
					t.Fatalf("%s n=%d: negative stats %+v", fam.Name, n, st)
				}
			}
		}
	}
}

func TestLabelNonSquare(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 130}, {130, 1}, {3, 64}, {64, 3}, {17, 129}, {128, 63}, {63, 128}}
	seed := uint64(0xD00D)
	for _, sh := range shapes {
		for _, density := range []float64{0.1, 0.5, 0.9} {
			img := bitmap.RandomRect(sh[0], sh[1], density, seed)
			seed++
			for _, conn := range conns {
				got, _ := Label(img, conn)
				checkLabels(t, fmt.Sprintf("%dx%d d=%.1f", sh[0], sh[1], density), img, conn, got)
			}
		}
	}
}

// Runs that cross 64-bit word boundaries exercise the carry/lookahead
// bits of the start/end masks; pin them explicitly.
func TestLabelWordBoundaryRuns(t *testing.T) {
	img := bitmap.New(3, 200)
	for y := 10; y <= 130; y++ { // one run spanning words 0..2
		img.Set(0, y, true)
	}
	img.Set(0, 63, true) // already inside the run
	img.Set(1, 63, true)
	img.Set(1, 64, true) // run exactly on the boundary
	img.Set(2, 199, true)
	for _, conn := range conns {
		got, st := Label(img, conn)
		checkLabels(t, "word-boundary", img, conn, got)
		if st.Runs != 3 {
			t.Fatalf("conn%d: got %d runs, want 3", conn, st.Runs)
		}
	}
}

func TestAggregateMatchesReference(t *testing.T) {
	type mono struct {
		name     string
		identity int32
		combine  func(a, b int32) int32
	}
	monoids := []mono{
		{"sum", 0, func(a, b int32) int32 { return a + b }},
		{"min", math.MaxInt32, func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		}},
		{"max", math.MinInt32, func(a, b int32) int32 {
			if a > b {
				return a
			}
			return b
		}},
		{"or", 0, func(a, b int32) int32 { return a | b }},
	}
	lb := NewLabeler()
	seed := uint64(0xA66)
	for _, sh := range [][2]int{{40, 25}, {25, 40}, {64, 64}, {130, 7}} {
		img := bitmap.RandomRect(sh[0], sh[1], 0.55, seed)
		seed++
		initial := make([]int32, sh[0]*sh[1])
		for i := range initial {
			initial[i] = int32(i%17) - 4
		}
		for _, m := range monoids {
			// The sequential reference is 4-connected; host conn4 must match.
			labels, per, _ := lb.Aggregate(img, initial, m.identity, m.combine, bitmap.Conn4)
			checkLabels(t, "agg-"+m.name, img, bitmap.Conn4, labels)
			want := seqcc.AggregateRef(img, initial, m.combine, m.identity)
			for i := range want {
				if per[i] != want[i] {
					t.Fatalf("%s %dx%d: per-pixel[%d] = %d, want %d", m.name, sh[0], sh[1], i, per[i], want[i])
				}
			}
		}
	}
}

// Summary must return exactly the Stats a Label call would — it is the
// summary-only service fast path, and the wire response built from it
// has to match a labeled run's field for field.
func TestSummaryMatchesLabel(t *testing.T) {
	lb := NewLabeler()
	for _, fam := range bitmap.Families() {
		for _, n := range []int{1, 7, 64, 65, 96} {
			img := fam.Generate(n)
			for _, conn := range conns {
				_, want := lb.Label(img, conn)
				got := lb.Summary(img, conn)
				if got != want {
					t.Fatalf("%s n=%d conn%d: Summary stats %+v != Label stats %+v", fam.Name, n, conn, got, want)
				}
			}
		}
	}
	for _, sh := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 130}, {130, 1}, {128, 63}} {
		img := bitmap.RandomRect(sh[0], sh[1], 0.5, uint64(sh[0])*131+uint64(sh[1]))
		_, want := lb.Label(img, bitmap.Conn8)
		if got := lb.Summary(img, bitmap.Conn8); got != want {
			t.Fatalf("%dx%d: Summary stats %+v != Label stats %+v", sh[0], sh[1], got, want)
		}
	}
}

func TestArenaReuseIsIdentical(t *testing.T) {
	lb := NewLabeler()
	img1 := bitmap.Random(80, 0.5, 1)
	img2 := bitmap.Random(50, 0.7, 2)
	first, st1 := lb.Label(img1, bitmap.Conn4)
	lb.Label(img2, bitmap.Conn8) // dirty the arenas with a different shape
	again, st2 := lb.Label(img1, bitmap.Conn4)
	if !first.Equal(again) {
		t.Fatal("warm rerun diverged from fresh run")
	}
	if st1 != st2 {
		t.Fatalf("warm rerun stats %+v != fresh %+v", st2, st1)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	for _, sh := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		img := bitmap.New(sh[0], sh[1])
		got, st := Label(img, bitmap.Conn4)
		if got.W() != sh[0] || got.H() != sh[1] || st.Runs != 0 {
			t.Fatalf("%dx%d: got %dx%d, %d runs", sh[0], sh[1], got.W(), got.H(), st.Runs)
		}
	}
}

// bandCases are the frames the band tests split: every family at
// widths that are not multiples of 64, non-square random frames, frames
// with fewer 64-column blocks than bands, and the empty and full
// frames, whose one component (full) spans every seam.
func bandCases() map[string]*bitmap.Bitmap {
	cases := map[string]*bitmap.Bitmap{}
	for _, fam := range bitmap.Families() {
		for _, n := range []int{100, 200, 257} {
			cases[fmt.Sprintf("%s n=%d", fam.Name, n)] = fam.Generate(n)
		}
	}
	seed := uint64(0xBA4D)
	for _, sh := range [][2]int{{1, 9}, {63, 40}, {64, 64}, {65, 33}, {130, 5}, {300, 70}, {513, 37}} {
		for _, d := range []float64{0.3, 0.6} {
			cases[fmt.Sprintf("random %dx%d d=%.1f", sh[0], sh[1], d)] = bitmap.RandomRect(sh[0], sh[1], d, seed)
			seed++
		}
	}
	for _, sh := range [][2]int{{0, 0}, {0, 5}, {130, 0}} {
		cases[fmt.Sprintf("empty %dx%d", sh[0], sh[1])] = bitmap.New(sh[0], sh[1])
	}
	return cases
}

// banded returns a labeler forced to the given band count.
func banded(bands int) *Labeler {
	lb := NewLabeler()
	lb.forceBands = bands
	return lb
}

// TestBandsMatchOneBand: at every band count 1..8, Label, Summary and
// Aggregate (sum and min) return the one-band labels, folds and Stats
// exactly, under both connectivities. One labeler per band count is
// reused across every frame, so arenas left by a different shape or
// band split are exercised too.
func TestBandsMatchOneBand(t *testing.T) {
	minimum := func(a, b int32) int32 { return min(a, b) }
	sum := func(a, b int32) int32 { return a + b }
	one := banded(1)
	labelers := make([]*Labeler, 9)
	for k := 2; k <= 8; k++ {
		labelers[k] = banded(k)
	}
	for name, img := range bandCases() {
		initial := make([]int32, img.W()*img.H())
		for i := range initial {
			initial[i] = int32(i%23) - 7
		}
		for _, conn := range conns {
			wantLab, wantSt := one.Label(img, conn)
			sumLab, sumPer, sumSt := one.Aggregate(img, initial, 0, sum, conn)
			minLab, minPer, minSt := one.Aggregate(img, initial, math.MaxInt32, minimum, conn)
			if sumSt != wantSt || minSt != wantSt || one.Summary(img, conn) != wantSt {
				t.Fatalf("%s conn%d: one-band stats disagree across Label, Summary and Aggregate", name, conn)
			}
			for k := 2; k <= 8; k++ {
				lb := labelers[k]
				where := fmt.Sprintf("%s conn%d bands=%d", name, conn, k)
				if got, st := lb.Label(img, conn); !got.Equal(wantLab) || st != wantSt {
					t.Fatalf("%s: Label differs from one band (stats %+v, want %+v)", where, st, wantSt)
				}
				if st := lb.Summary(img, conn); st != wantSt {
					t.Fatalf("%s: Summary %+v, want %+v", where, st, wantSt)
				}
				for _, m := range []struct {
					name     string
					identity int32
					combine  func(a, b int32) int32
					lab      *bitmap.LabelMap
					per      []int32
				}{{"sum", 0, sum, sumLab, sumPer}, {"min", math.MaxInt32, minimum, minLab, minPer}} {
					lab, per, st := lb.Aggregate(img, initial, m.identity, m.combine, conn)
					if !lab.Equal(m.lab) || st != wantSt {
						t.Fatalf("%s: Aggregate(%s) labels or stats differ from one band", where, m.name)
					}
					for i := range per {
						if per[i] != m.per[i] {
							t.Fatalf("%s: Aggregate(%s) per-pixel[%d] = %d, one band %d", where, m.name, i, per[i], m.per[i])
						}
					}
				}
			}
		}
	}
}

// TestStripViewMatchesCopy: labeling a zero-copy strip view, whose
// columns start and end inside the parent's words, returns exactly the
// labels, folds and Stats of labeling the same window copied out, in
// one band and in several.
func TestStripViewMatchesCopy(t *testing.T) {
	sum := func(a, b int32) int32 { return a + b }
	img := bitmap.RandomRect(300, 70, 0.5, 0x5717)
	for _, win := range [][2]int{{0, 300}, {63, 5}, {100, 31}, {37, 200}, {64, 128}} {
		x0, w := win[0], win[1]
		view, sub := img.StripView(x0, w), img.SubImage(x0, 0, w, img.H())
		initial := make([]int32, w*img.H())
		for i := range initial {
			initial[i] = int32(i%13) - 3
		}
		for _, bands := range []int{1, 3} {
			lb := banded(bands)
			for _, conn := range conns {
				where := fmt.Sprintf("[%d,%d) conn%d bands=%d", x0, x0+w, conn, bands)
				wantLab, wantSt := lb.Label(sub, conn)
				if got, st := lb.Label(view, conn); !got.Equal(wantLab) || st != wantSt {
					t.Fatalf("%s: Label over the view differs from the copy (stats %+v, want %+v)", where, st, wantSt)
				}
				if st := lb.Summary(view, conn); st != wantSt {
					t.Fatalf("%s: Summary %+v, want %+v", where, st, wantSt)
				}
				_, wantPer, _ := lb.Aggregate(sub, initial, 0, sum, conn)
				if _, per, st := lb.Aggregate(view, initial, 0, sum, conn); !slices.Equal(per, wantPer) || st != wantSt {
					t.Fatalf("%s: Aggregate over the view differs from the copy", where)
				}
			}
		}
	}
}

// TestBandSplit pins how frames are cut: whole 64-column blocks,
// never more bands than blocks, and one band below the area threshold.
func TestBandSplit(t *testing.T) {
	for _, c := range []struct{ force, w, h, want int }{
		{8, 100, 10, 2}, {8, 64, 10, 1}, {8, 0, 0, 1}, {3, 257, 4, 3}, {2, 2048, 1, 2},
		{0, 256, 256, 1}, {0, 128, 512, 1}, // under 2·minBandPixels: one band at any core count
	} {
		lb := banded(c.force)
		lb.split(c.w, c.h)
		if len(lb.bands) != c.want {
			t.Fatalf("%+v: %d bands, want %d", c, len(lb.bands), c.want)
		}
		x := 0
		for i, b := range lb.bands {
			if b.x0 != x || b.x1 <= b.x0 && c.w > 0 || b.x0&63 != 0 {
				t.Fatalf("%+v: band %d covers [%d, %d) after %d", c, i, b.x0, b.x1, x)
			}
			x = b.x1
		}
		if x != c.w {
			t.Fatalf("%+v: bands end at column %d", c, x)
		}
	}
}

// A panic in a band goroutine reaches the caller's goroutine, where a
// recover (slapd's per-request one) can catch it, and the labeler
// still works afterwards.
func TestBandPanicReachesCaller(t *testing.T) {
	img := bitmap.RandomRect(256, 16, 0.5, 3)
	initial := make([]int32, 256*16)
	for i := 192 * 16; i < len(initial); i++ {
		initial[i] = -1 // every pixel of the last band's columns
	}
	lb := banded(4)
	boom := func(a, b int32) int32 {
		if b < 0 {
			panic("boom")
		}
		return a + b
	}
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the band's panic", p)
			}
		}()
		lb.Aggregate(img, initial, 0, boom, bitmap.Conn4)
		t.Fatal("Aggregate returned; the band's panic was lost")
	}()
	got, _ := lb.Label(img, bitmap.Conn4)
	checkLabels(t, "after panic", img, bitmap.Conn4, got)
}

// BenchmarkSummaryBands times Summary on random 0.5-density frames at
// one band and at two, the measurement behind minBandPixels:
//
//	go test -run '^$' -bench SummaryBands -cpu 2 ./internal/hostcc
func BenchmarkSummaryBands(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		img := bitmap.Random(n, 0.5, 1)
		for _, bands := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/bands=%d", n, bands), func(b *testing.B) {
				lb := banded(bands)
				b.SetBytes(int64(n * n))
				for i := 0; i < b.N; i++ {
					lb.Summary(img, bitmap.Conn4)
				}
			})
		}
	}
}
