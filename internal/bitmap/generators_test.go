package bitmap

import (
	"testing"
	"testing/quick"
)

// floodCount labels 4-connected components with a simple BFS; the bitmap
// package keeps its own tiny copy so generator tests do not depend on
// internal/seqcc (which itself depends on bitmap).
func floodCount(b *Bitmap) int {
	n, m := b.W(), b.H()
	seen := make([]bool, n*m)
	count := 0
	var queue [][2]int
	for x := 0; x < n; x++ {
		for y := 0; y < m; y++ {
			if !b.Get(x, y) || seen[x*m+y] {
				continue
			}
			count++
			seen[x*m+y] = true
			queue = append(queue[:0], [2]int{x, y})
			for len(queue) > 0 {
				p := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := p[0]+d[0], p[1]+d[1]
					if b.Get(nx, ny) && !seen[nx*m+ny] {
						seen[nx*m+ny] = true
						queue = append(queue, [2]int{nx, ny})
					}
				}
			}
		}
	}
	return count
}

func TestEmptyFullSingle(t *testing.T) {
	if Empty(8).CountOnes() != 0 {
		t.Fatal("Empty should have no ones")
	}
	if Full(8).CountOnes() != 64 {
		t.Fatal("Full(8) should have 64 ones")
	}
	if floodCount(Full(8)) != 1 {
		t.Fatal("Full should be one component")
	}
	sp := SinglePixel(8, 3, 5)
	if sp.CountOnes() != 1 || !sp.Get(3, 5) {
		t.Fatal("SinglePixel misplaced")
	}
}

func TestCheckerComponents(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		b := Checker(n)
		want := (n*n + 1) / 2
		if got := b.CountOnes(); got != want {
			t.Errorf("Checker(%d): want %d ones, got %d", n, want, got)
		}
		if got := floodCount(b); got != want {
			t.Errorf("Checker(%d): want %d isolated components, got %d", n, want, got)
		}
	}
}

func TestStripes(t *testing.T) {
	h := HStripes(9, 3)
	if got := floodCount(h); got != 3 {
		t.Fatalf("HStripes(9,3): want 3 components, got %d", got)
	}
	v := VStripes(9, 3)
	if got := floodCount(v); got != 3 {
		t.Fatalf("VStripes(9,3): want 3 components, got %d", got)
	}
	if !h.Transpose().Equal(v) {
		t.Fatal("HStripes transposed should equal VStripes")
	}
}

func TestSerpentinesAreOneComponent(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 32} {
		if got := floodCount(HSerpentine(n)); got != 1 {
			t.Errorf("HSerpentine(%d): want 1 component, got %d", n, got)
		}
		if got := floodCount(VSerpentine(n)); got != 1 {
			t.Errorf("VSerpentine(%d): want 1 component, got %d", n, got)
		}
	}
}

func TestSpiralOneComponent(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33, 64} {
		b := Spiral(n)
		if got := floodCount(b); got != 1 {
			t.Errorf("Spiral(%d): want 1 component, got %d\n%s", n, got, b)
		}
		// The spiral must reach every column so every PE participates.
		for x := 0; x < n; x++ {
			found := false
			for y := 0; y < n; y++ {
				if b.Get(x, y) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Spiral(%d): column %d empty", n, x)
			}
		}
	}
}

func TestMazeOneComponent(t *testing.T) {
	for _, n := range []int{3, 5, 9, 17, 33} {
		b := Maze(n, 99)
		if got := floodCount(b); got != 1 {
			t.Errorf("Maze(%d): want 1 component, got %d", n, got)
		}
	}
}

func TestBinaryMergeOneComponentAndLanes(t *testing.T) {
	for _, n := range []int{4, 8, 16, 31, 64} {
		b := BinaryMerge(n)
		if got := floodCount(b); got != 1 {
			t.Errorf("BinaryMerge(%d): want 1 merged component, got %d", n, got)
		}
		// Every even row must be a full lane.
		for lane := 0; lane < n/2; lane++ {
			for x := 0; x < n; x++ {
				if !b.Get(x, 2*lane) {
					t.Fatalf("BinaryMerge(%d): lane %d broken at x=%d", n, lane, x)
				}
			}
		}
	}
}

func TestNestedShapes(t *testing.T) {
	// NestedFrames(16, 4): rings at d=0, 4; d=8 is 2*8=16 !< 15 stops — so 2 rings.
	b := NestedFrames(16, 4)
	if got := floodCount(b); got != 2 {
		t.Fatalf("NestedFrames(16,4): want 2 rings, got %d\n%s", got, b)
	}
	c := NestedC(20, 2)
	got := floodCount(c)
	if got < 2 {
		t.Fatalf("NestedC(20,2): want several separate Cs, got %d\n%s", got, c)
	}
}

func TestFig3aTwoInterleavedCombs(t *testing.T) {
	for _, n := range []int{8, 12, 16, 32} {
		b := Fig3a(n)
		if got := floodCount(b); got != 2 {
			t.Errorf("Fig3a(%d): want exactly 2 interleaved combs, got %d\n%s", n, got, b)
		}
	}
}

func TestFig3bChains(t *testing.T) {
	b := Fig3b(32)
	got := floodCount(b)
	// One zigzag chain per 8-column tile stripe.
	want := (32 + 7) / 8
	if got != want {
		t.Errorf("Fig3b(32): want %d chains, got %d\n%s", want, got, b)
	}
}

func TestEvenRowRunsStructure(t *testing.T) {
	starts := []int{0, 3, 7, 7}
	b := EvenRowRuns(8, starts)
	for i, s := range starts {
		y := 2 * i
		for x := 0; x < 8; x++ {
			want := x >= s
			if b.Get(x, y) != want {
				t.Fatalf("row %d x=%d: want %v", y, x, want)
			}
		}
		if y+1 < 8 && b.Get(0, y+1) {
			t.Fatalf("odd row %d should be empty", y+1)
		}
	}
	// Components: one per even row (runs never touch vertically).
	if got := floodCount(b); got != len(starts) {
		t.Fatalf("want %d run components, got %d", len(starts), got)
	}
}

func TestEvenRowRunsValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { EvenRowRuns(8, []int{0}) },          // wrong length
		func() { EvenRowRuns(8, []int{0, 1, 2, 9}) }, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestDiagonalAndCross(t *testing.T) {
	if got := floodCount(Diagonal(16)); got != 1 {
		t.Fatalf("Diagonal: want 1 component, got %d", got)
	}
	if got := floodCount(Cross(15)); got != 1 {
		t.Fatalf("Cross: want 1 component, got %d", got)
	}
}

func TestBlobsWithinBounds(t *testing.T) {
	b := Blobs(20, 5, 50, 11)
	if b.CountOnes() == 0 {
		t.Fatal("blobs should set some pixels")
	}
}

func TestRandomDensity(t *testing.T) {
	b := Random(128, 0.3, 5)
	d := b.Density()
	if d < 0.25 || d > 0.35 {
		t.Fatalf("density 0.3 sample out of tolerance: %g", d)
	}
	// Determinism.
	if !Random(128, 0.3, 5).Equal(b) {
		t.Fatal("Random with same seed must be identical")
	}
}

func TestFamiliesRegistry(t *testing.T) {
	fams := Families()
	if len(fams) < 10 {
		t.Fatalf("expected a rich family suite, got %d", len(fams))
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if f.Name == "" || f.Description == "" || f.Generate == nil {
			t.Fatalf("family %+v incomplete", f.Name)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate family name %q", f.Name)
		}
		seen[f.Name] = true
		// Every family must generate valid images at small sizes,
		// including degenerate ones.
		for _, n := range []int{0, 1, 2, 3, 8, 16} {
			b := f.Generate(n)
			if b.W() != n || b.H() != n {
				t.Fatalf("family %q: Generate(%d) returned %dx%d", f.Name, n, b.W(), b.H())
			}
		}
	}
	if _, ok := FamilyByName("checker"); !ok {
		t.Fatal("FamilyByName should find checker")
	}
	if _, ok := FamilyByName("no-such-family"); ok {
		t.Fatal("FamilyByName should reject unknown names")
	}
}

// Property: generated images are deterministic functions of (family, n).
func TestFamilyDeterminismQuick(t *testing.T) {
	fams := Families()
	f := func(fi uint8, np uint8) bool {
		fam := fams[int(fi)%len(fams)]
		n := int(np%32) + 1
		return fam.Generate(n).Equal(fam.Generate(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
