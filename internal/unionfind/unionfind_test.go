package unionfind

import (
	"fmt"
	"testing"
	"testing/quick"
)

// allKinds builds one instance of every implementation for n elements.
func allKinds(t *testing.T, n int) map[Kind]UnionFind {
	t.Helper()
	out := map[Kind]UnionFind{}
	for _, k := range Kinds() {
		u, ok := Make(k, n)
		if !ok {
			t.Fatalf("Make(%q) failed", k)
		}
		out[k] = u
	}
	return out
}

func TestMakeUnknownKind(t *testing.T) {
	if _, ok := Make("bogus", 4); ok {
		t.Fatal("Make should reject unknown kinds")
	}
}

func TestSingletonsInitially(t *testing.T) {
	for kind, u := range allKinds(t, 5) {
		if u.Len() != 5 || u.Sets() != 5 {
			t.Fatalf("%s: want 5 singletons, got Len=%d Sets=%d", kind, u.Len(), u.Sets())
		}
		seen := map[int]bool{}
		for i := 0; i < 5; i++ {
			r := u.Find(i)
			if r < 0 || r >= u.CapBound() {
				t.Fatalf("%s: Find(%d)=%d outside CapBound %d", kind, i, r, u.CapBound())
			}
			if seen[r] {
				t.Fatalf("%s: two singletons share id %d", kind, r)
			}
			seen[r] = true
		}
	}
}

func TestBasicUnionSemantics(t *testing.T) {
	for kind, u := range allKinds(t, 6) {
		root, a, b, united := u.Union(0, 1)
		if !united {
			t.Fatalf("%s: first union should unite", kind)
		}
		if a == b {
			t.Fatalf("%s: pre-union ids should differ", kind)
		}
		if root >= u.CapBound() {
			t.Fatalf("%s: root %d outside CapBound", kind, root)
		}
		if u.Find(0) != u.Find(1) {
			t.Fatalf("%s: 0 and 1 should share a set", kind)
		}
		if u.Find(0) != root {
			t.Fatalf("%s: Find should return the union's root", kind)
		}
		if u.Sets() != 5 {
			t.Fatalf("%s: want 5 sets after one union, got %d", kind, u.Sets())
		}
		_, a2, b2, united2 := u.Union(1, 0)
		if united2 {
			t.Fatalf("%s: re-union should be a no-op", kind)
		}
		if a2 != b2 {
			t.Fatalf("%s: no-op union should report equal ids", kind)
		}
		if u.Find(2) == u.Find(0) {
			t.Fatalf("%s: 2 should remain separate", kind)
		}
	}
}

func TestStepsMonotone(t *testing.T) {
	for kind, u := range allKinds(t, 32) {
		prev := u.Steps()
		for i := 0; i < 31; i++ {
			u.Union(i, i+1)
			if u.Steps() <= prev {
				t.Fatalf("%s: Steps must strictly increase across a union", kind)
			}
			prev = u.Steps()
		}
		u.Find(0)
		if u.Steps() <= prev {
			t.Fatalf("%s: Steps must increase across a find", kind)
		}
	}
}

// opSeq drives an implementation and the QuickFind oracle through the same
// operations, checking partition equivalence after every step.
func checkAgainstOracle(t *testing.T, kind Kind, n int, ops []uint32) {
	t.Helper()
	u, _ := Make(kind, n)
	oracle := NewQuickFind(n)
	for i, op := range ops {
		x := int(op>>8) % n
		y := int(op>>20) % n
		if op&1 == 0 {
			_, _, _, got := u.Union(x, y)
			_, _, _, want := oracle.Union(x, y)
			if got != want {
				t.Fatalf("%s: op %d Union(%d,%d) united=%v want %v", kind, i, x, y, got, want)
			}
		} else {
			same := u.Find(x) == u.Find(y)
			wantSame := oracle.Find(x) == oracle.Find(y)
			if same != wantSame {
				t.Fatalf("%s: op %d Find(%d)/Find(%d) same=%v want %v", kind, i, x, y, same, wantSame)
			}
		}
		if u.Sets() != oracle.Sets() {
			t.Fatalf("%s: op %d Sets=%d want %d", kind, i, u.Sets(), oracle.Sets())
		}
	}
	// Final partition must match exactly: same-set relation on all pairs.
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if (u.Find(x) == u.Find(y)) != (oracle.Find(x) == oracle.Find(y)) {
				t.Fatalf("%s: final partition differs at (%d,%d)", kind, x, y)
			}
		}
	}
}

func TestConformanceQuick(t *testing.T) {
	for _, kind := range Kinds() {
		if kind == KindQuickFind {
			continue
		}
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(ops []uint32, szSeed uint8) bool {
				n := int(szSeed%60) + 2
				checkAgainstOracle(t, kind, n, ops)
				return !t.Failed()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestForestDepthBoundWeighted(t *testing.T) {
	// With union by size and no compression, depth ≤ ⌊lg n⌋ — the fact
	// behind the paper's O(n lg n) bound. Drive a balanced merge pattern,
	// the worst case.
	for _, n := range []int{16, 64, 256, 1024} {
		f := NewForest(n, LinkBySize, CompressNone)
		for span := 1; span < n; span *= 2 {
			for base := 0; base+span < n; base += 2 * span {
				f.Union(base, base+span)
			}
		}
		maxDepth := 0
		for i := 0; i < n; i++ {
			if d := f.Depth(i); d > maxDepth {
				maxDepth = d
			}
		}
		lg := 0
		for v := n; v > 1; v >>= 1 {
			lg++
		}
		if maxDepth > lg {
			t.Errorf("n=%d: weighted-union depth %d exceeds lg n = %d", n, maxDepth, lg)
		}
		if maxDepth < lg {
			t.Logf("n=%d: depth %d (bound %d)", n, maxDepth, lg)
		}
	}
}

func TestForestNaiveLinkDegenerates(t *testing.T) {
	// Naive linking must produce a deep path for the chain pattern —
	// this is the pathology weighted union exists to avoid.
	n := 128
	f := NewForest(n, LinkNaive, CompressNone)
	for i := n - 1; i > 0; i-- {
		// Union(chain head, next element): naive keeps the first root,
		// repeatedly hanging the old tree under a fresh element.
		f.Union(i-1, i)
	}
	deep := 0
	for i := 0; i < n; i++ {
		if d := f.Depth(i); d > deep {
			deep = d
		}
	}
	if deep < n/2 {
		t.Fatalf("naive linking should degenerate (depth ≥ %d), got %d", n/2, deep)
	}
}

func TestForestCompressionFlattens(t *testing.T) {
	for _, comp := range []CompressRule{CompressFull, CompressHalve, CompressSplit} {
		f := NewForest(256, LinkNaive, comp)
		for i := 0; i < 255; i++ {
			f.Union(i, i+1)
		}
		// Repeated finds must drive every element's depth to a small
		// constant (full: 1; halving/splitting: halves each pass).
		for pass := 0; pass < 10; pass++ {
			for i := 0; i < 256; i++ {
				f.Find(i)
			}
		}
		for i := 0; i < 256; i++ {
			if d := f.Depth(i); d > 2 {
				t.Fatalf("%v: element %d still at depth %d after repeated finds", comp, i, d)
			}
		}
	}
}

func TestForestCompressOne(t *testing.T) {
	f := NewForest(8, LinkNaive, CompressNone)
	for i := 0; i < 7; i++ {
		f.Union(i, i+1)
	}
	deepest := 0
	for i := 0; i < 8; i++ {
		if f.Depth(i) > f.Depth(deepest) {
			deepest = i
		}
	}
	d0 := f.Depth(deepest)
	if d0 < 2 {
		t.Skip("pattern did not produce depth ≥ 2")
	}
	if !f.CompressOne(deepest) {
		t.Fatal("CompressOne should make progress on a deep node")
	}
	if f.Depth(deepest) != d0-1 {
		t.Fatalf("CompressOne should reduce depth by 1: %d -> %d", d0, f.Depth(deepest))
	}
	root := f.Find(deepest)
	if f.CompressOne(root) {
		t.Fatal("CompressOne on a root should report no progress")
	}
}

func TestKUFInvariantsUnderRandomOpsQuick(t *testing.T) {
	f := func(ops []uint32, szSeed, kSeed uint8) bool {
		n := int(szSeed%50) + 2
		k := int(kSeed%5) + 2
		u := NewKUFArity(n, k)
		for _, op := range ops {
			x := int(op>>4) % n
			y := int(op>>18) % n
			u.Union(x, y)
			if err := u.Validate(); err != nil {
				t.Logf("after Union(%d,%d) on n=%d k=%d: %v", x, y, n, k, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKUFHeightBound(t *testing.T) {
	// Height must satisfy h ≤ 1 + log_k(n/2) whatever the union order.
	for _, n := range []int{10, 100, 1000, 4096} {
		for _, k := range []int{2, 3, 5, DefaultArity(n)} {
			u := NewKUFArity(n, k)
			// Balanced merges maximize height.
			for span := 1; span < n; span *= 2 {
				for base := 0; base+span < n; base += 2 * span {
					u.Union(base, base+span)
				}
			}
			root := u.Find(0)
			h := u.Height(root)
			bound := 1
			for size := 2; size < n; size *= k {
				bound++
			}
			if h > bound {
				t.Errorf("n=%d k=%d: height %d exceeds bound %d", n, k, h, bound)
			}
			if err := u.Validate(); err != nil {
				t.Errorf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

func TestKUFWorstOpBeatsLgN(t *testing.T) {
	// The point of Theorem 3: with k = ⌈lg n/lg lg n⌉ the worst single
	// operation costs O(lg n / lg lg n), asymptotically less than the
	// ⌊lg n⌋ the weighted forest can hit. Verify the *measured* worst op
	// respects c·(lg n / lg lg n + k).
	n := 1 << 14
	u := NewKUF(n)
	m := NewMeter(u)
	for span := 1; span < n; span *= 2 {
		for base := 0; base+span < n; base += 2 * span {
			m.Union(base, base+span)
		}
	}
	for i := 0; i < n; i += 7 {
		m.Find(i)
	}
	k := u.Arity()
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	lglg := 0
	for v := lg; v > 1; v >>= 1 {
		lglg++
	}
	budget := int64(6 * (lg/lglg + k + 2))
	if got := m.MaxOpCost(); got > budget {
		t.Fatalf("worst single op cost %d exceeds O(lg n/lg lg n) budget %d (k=%d)", got, budget, k)
	}
}

func TestKUFDefaultArityGrows(t *testing.T) {
	if DefaultArity(4) < 2 || DefaultArity(16) < 2 {
		t.Fatal("arity must be at least 2")
	}
	if DefaultArity(1<<20) <= DefaultArity(1<<6) {
		t.Fatal("arity should grow with n")
	}
}

func TestMeterRecords(t *testing.T) {
	m := NewMeter(New(64))
	for i := 0; i < 63; i++ {
		m.Union(i, i+1)
	}
	for i := 0; i < 64; i++ {
		m.Find(i)
	}
	st := m.Stats()
	if st.Unions != 63 || st.Finds != 64 {
		t.Fatalf("op counts wrong: %+v", st)
	}
	if st.MaxFind <= 0 || st.MaxUnion <= 0 {
		t.Fatalf("max costs should be positive: %+v", st)
	}
	if m.MaxOpCost() < st.MaxFind || m.MaxOpCost() < st.MaxUnion {
		t.Fatal("MaxOpCost must dominate both maxima")
	}
	if m.MeanOpCost() <= 0 {
		t.Fatal("mean cost should be positive")
	}
	if m.Unwrap() == nil || m.Len() != 64 || m.CapBound() < 64 || m.Sets() != 1 {
		t.Fatal("forwarding accessors broken")
	}
	if m.Steps() != m.Unwrap().Steps() {
		t.Fatal("Steps must forward")
	}
}

func TestMeterMeanEmptyIsZero(t *testing.T) {
	if NewMeter(New(4)).MeanOpCost() != 0 {
		t.Fatal("empty meter mean should be 0")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"quickfind": func() { NewQuickFind(-1) },
		"forest":    func() { NewForest(-1, LinkBySize, CompressFull) },
		"kuf":       func() { NewKUFArity(-1, 2) },
		"kuf-arity": func() { NewKUFArity(4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRuleStrings(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{LinkBySize.String(), "size"},
		{LinkByRank.String(), "rank"},
		{LinkNaive.String(), "naive"},
		{CompressFull.String(), "full"},
		{CompressHalve.String(), "halving"},
		{CompressSplit.String(), "splitting"},
		{CompressNone.String(), "none"},
		{LinkRule(9).String(), "LinkRule(9)"},
		{CompressRule(9).String(), "CompressRule(9)"},
	} {
		if tc.got != tc.want {
			t.Errorf("want %q, got %q", tc.want, tc.got)
		}
	}
}

func ExampleNew() {
	u := New(4)
	u.Union(0, 1)
	u.Union(2, 3)
	fmt.Println(u.Sets(), u.Find(0) == u.Find(1), u.Find(0) == u.Find(2))
	// Output: 2 true false
}
