package seqcc

import (
	"testing"
	"testing/quick"

	"slapcc/internal/bitmap"
	"slapcc/internal/hostcc"
)

// hostLabel labels b with the run-based host labeler: an independent
// implementation to hold the BFS oracle against.
func hostLabel(b *bitmap.Bitmap) *bitmap.LabelMap {
	lm, _ := hostcc.NewLabeler().Label(b, bitmap.Conn4)
	return lm
}

// labelers under test, all of which must produce identical canonical maps.
var labelers = map[string]func(*bitmap.Bitmap) *bitmap.LabelMap{
	"bfs":    BFS,
	"hostcc": hostLabel,
}

func TestEmptyImage(t *testing.T) {
	for name, fn := range labelers {
		lm := fn(bitmap.Empty(5))
		if lm.ComponentCount() != 0 {
			t.Errorf("%s: empty image should have 0 components", name)
		}
	}
}

func TestZeroSizeImage(t *testing.T) {
	for name, fn := range labelers {
		lm := fn(bitmap.New(0, 0))
		if lm.W() != 0 || lm.H() != 0 {
			t.Errorf("%s: 0x0 image mishandled", name)
		}
	}
}

func TestFullImage(t *testing.T) {
	for name, fn := range labelers {
		lm := fn(bitmap.Full(6))
		if lm.ComponentCount() != 1 {
			t.Errorf("%s: full image should be one component", name)
		}
		if lm.Get(5, 5) != 0 {
			t.Errorf("%s: canonical label should be position 0, got %d", name, lm.Get(5, 5))
		}
	}
}

func TestKnownLabeling(t *testing.T) {
	//   col: 0123
	b := bitmap.MustParse(`
#.##
#..#
.##.
`)
	// Components: {(0,0),(0,1)} seed pos 0; {(2,0),(3,0),(3,1),(1,2),(2,2)}:
	// (3,0)-(3,1) joined to (2,0); (2,2)-(1,2) joined via (2,?)... (2,2) and
	// (3,1) are not 4-adjacent, so {(1,2),(2,2)} is separate with seed 1*3+2=5.
	want := map[[2]int]int32{
		{0, 0}: 0, {0, 1}: 0,
		{2, 0}: 6, {3, 0}: 6, {3, 1}: 6,
		{1, 2}: 5, {2, 2}: 5,
	}
	for name, fn := range labelers {
		lm := fn(b)
		for c, w := range want {
			if got := lm.Get(c[0], c[1]); got != w {
				t.Errorf("%s: pixel %v: want %d, got %d\n%s", name, c, w, got, lm)
			}
		}
		if lm.ComponentCount() != 3 {
			t.Errorf("%s: want 3 components, got %d", name, lm.ComponentCount())
		}
	}
}

func TestUShapeMergesAcrossColumns(t *testing.T) {
	// The two-prong pattern that breaks naive left-to-right labelers:
	// prongs connect only at the bottom.
	b := bitmap.MustParse(`
#.#
#.#
###
`)
	for name, fn := range labelers {
		lm := fn(b)
		if lm.ComponentCount() != 1 {
			t.Errorf("%s: U shape should be a single component, got %d\n%s", name, lm.ComponentCount(), lm)
		}
		if lm.Get(2, 0) != 0 {
			t.Errorf("%s: label should be min position 0, got %d", name, lm.Get(2, 0))
		}
	}
}

func TestGeneratorsAgreement(t *testing.T) {
	for _, fam := range bitmap.Families() {
		for _, n := range []int{1, 2, 3, 7, 16, 33} {
			b := fam.Generate(n)
			ref := BFS(b)
			for name, fn := range labelers {
				if name == "bfs" {
					continue
				}
				if got := fn(b); !got.Equal(ref) {
					t.Fatalf("family %s n=%d: %s disagrees with BFS", fam.Name, n, name)
				}
			}
		}
	}
}

func TestCheckerComponentCounts(t *testing.T) {
	lm := BFS(bitmap.Checker(9))
	if got, want := lm.ComponentCount(), 41; got != want {
		t.Fatalf("Checker(9): want %d components, got %d", want, got)
	}
}

func TestCheckAcceptsAndRejects(t *testing.T) {
	b := bitmap.Random(20, 0.5, 77)
	lm := hostLabel(b)
	if err := Check(b, lm); err != nil {
		t.Fatalf("Check rejected a correct labeling: %v", err)
	}
	// Corrupt one foreground pixel's label.
	var cx, cy = -1, -1
	for x := 0; x < 20 && cx < 0; x++ {
		for y := 0; y < 20; y++ {
			if b.Get(x, y) {
				cx, cy = x, y
				break
			}
		}
	}
	lm.Set(cx, cy, lm.Get(cx, cy)+1)
	if err := Check(b, lm); err == nil {
		t.Fatal("Check accepted a corrupted labeling")
	}
	if err := Check(b, bitmap.NewLabelMap(3, 3)); err == nil {
		t.Fatal("Check accepted wrong dimensions")
	}
}

func TestSummarize(t *testing.T) {
	b := bitmap.MustParse(`
##..
....
...#
`)
	st := Summarize(BFS(b))
	if st.Components != 2 || st.Foreground != 3 || st.Largest != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestAggregateRefMin(t *testing.T) {
	b := bitmap.MustParse(`
##.
.#.
..#
`)
	w, h := b.W(), b.H()
	initial := make([]int32, w*h)
	for i := range initial {
		initial[i] = int32(100 - i) // decreasing, so min is at the largest position
	}
	minOp := func(a, c int32) int32 {
		if a < c {
			return a
		}
		return c
	}
	out := AggregateRef(b, initial, minOp, int32(1<<30))
	// Component A: (0,0),(1,0),(1,1): positions 0,3,4 -> min initial = 100-4 = 96.
	// Component B: (2,2): position 8 -> 92.
	if out[0] != 96 || out[3] != 96 || out[4] != 96 {
		t.Fatalf("component A aggregate wrong: %v", out)
	}
	if out[8] != 92 {
		t.Fatalf("component B aggregate wrong: %v", out)
	}
	if out[1] != 1<<30 {
		t.Fatal("background should hold the identity")
	}
}

func TestAggregateRefSumIsArea(t *testing.T) {
	b := bitmap.HStripes(8, 2)
	initial := make([]int32, 64)
	for i := range initial {
		initial[i] = 1
	}
	out := AggregateRef(b, initial, func(a, c int32) int32 { return a + c }, 0)
	// Each stripe spans a full row: area 8.
	for x := 0; x < 8; x++ {
		if out[x*8+0] != 8 {
			t.Fatalf("stripe area: want 8, got %d", out[x*8+0])
		}
	}
}

func TestAggregateRefValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for wrong initial length")
		}
	}()
	AggregateRef(bitmap.Empty(4), make([]int32, 3), func(a, c int32) int32 { return a }, 0)
}

// Property: the labelers agree on random images, and the labeling
// satisfies the canonical-label property (label equals least position).
func TestLabelersAgreeQuick(t *testing.T) {
	f := func(seed uint32, np, dp uint8) bool {
		n := int(np%24) + 1
		density := float64(dp%11) / 10
		b := bitmap.Random(n, density, uint64(seed))
		ref := BFS(b)
		if !hostLabel(b).Equal(ref) {
			return false
		}
		// Canonical property: every label is the least position in its class.
		min := map[int32]int32{}
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				l := ref.Get(x, y)
				if l == bitmap.Background {
					continue
				}
				pos := int32(x*n + y)
				if m, ok := min[l]; !ok || pos < m {
					min[l] = pos
				}
			}
		}
		for l, m := range min {
			if l != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: rectangular (non-square) images work too.
func TestRectangularQuick(t *testing.T) {
	f := func(seed uint32, wp, hp uint8) bool {
		w := int(wp%20) + 1
		h := int(hp%20) + 1
		b := bitmap.New(w, h)
		rng := bitmap.NewRNG(uint64(seed))
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				if rng.Float64() < 0.5 {
					b.Set(x, y, true)
				}
			}
		}
		ref := BFS(b)
		return hostLabel(b).Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
