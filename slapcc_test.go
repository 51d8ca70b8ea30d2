package slapcc

import (
	"fmt"
	"testing"
)

func TestPublicLabel(t *testing.T) {
	img := MustParseImage(`
#.#
#.#
###
`)
	res, err := Label(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels.ComponentCount() != 1 {
		t.Fatalf("U shape should be one component, got %d", res.Labels.ComponentCount())
	}
	if res.Labels.Get(2, 0) != 0 {
		t.Fatalf("canonical label should be 0, got %d", res.Labels.Get(2, 0))
	}
	if res.Metrics.Time <= 0 {
		t.Fatal("metrics must be populated")
	}
}

func TestPublicLabelWithOptions(t *testing.T) {
	img := RandomImage(24, 0.5, 42)
	base, err := Label(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []UFKind{UFBlum, UFRank, UFHalving, UFSplitting, UFNoCompress, UFQuickFind, UFNaiveLink} {
		res, err := LabelWithOptions(img, Options{UF: kind, IdleCompression: true})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.Labels.Equal(base.Labels) {
			t.Fatalf("%s: labels differ from default run", kind)
		}
	}
}

func TestPublicLabeler(t *testing.T) {
	lab := NewLabeler(Options{})
	var first *Result
	for i := 0; i < 3; i++ {
		img := RandomImage(32+8*i, 0.5, uint64(i))
		res, err := lab.Label(img)
		if err != nil {
			t.Fatal(err)
		}
		oneshot, err := Label(img)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Labels.Equal(oneshot.Labels) {
			t.Fatalf("frame %d: reused labeler disagrees with one-shot Label", i)
		}
		if res.Metrics.Time != oneshot.Metrics.Time || res.Metrics.Sends != oneshot.Metrics.Sends {
			t.Fatalf("frame %d: reused labeler's metrics differ", i)
		}
		if i == 0 {
			first = res
		}
	}
	// Results stay valid after the labeler moved on to other frames.
	if first.Labels.W() != 32 || first.Metrics.Time <= 0 {
		t.Fatal("earlier result corrupted by labeler reuse")
	}
	// Aggregate runs on the same reusable arenas.
	img := MustParseImage("###\n..#\n###")
	agg, err := lab.Aggregate(img, OnesOf(img), SumOf())
	if err != nil {
		t.Fatal(err)
	}
	if agg.PerPixel[0] != 7 {
		t.Fatalf("labeler aggregate area: want 7, got %d", agg.PerPixel[0])
	}
}

func TestPublicBitSerial(t *testing.T) {
	img := RandomImage(16, 0.5, 7)
	res, err := LabelWithOptions(img, Options{Cost: BitSerialCost(WordBits(16))})
	if err != nil {
		t.Fatal(err)
	}
	word, err := Label(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Time <= word.Metrics.Time {
		t.Fatal("bit-serial links must cost more")
	}
}

func TestPublicAggregate(t *testing.T) {
	img := MustParseImage(`
###
..#
###
`)
	res, err := Aggregate(img, OnesOf(img), SumOf(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Single S-shaped component of 7 pixels.
	if res.PerPixel[0] != 7 {
		t.Fatalf("component area should be 7, got %d", res.PerPixel[0])
	}
	for _, op := range []Monoid{MinOf(), MaxOf(), OrOf()} {
		if op.Combine == nil || op.Name == "" {
			t.Fatalf("monoid %+v incomplete", op)
		}
	}
}

func TestPublicConnectivity(t *testing.T) {
	img := MustParseImage("#.\n.#")
	four, err := Label(img)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := LabelWithOptions(img, Options{Connectivity: Conn8})
	if err != nil {
		t.Fatal(err)
	}
	if four.Labels.ComponentCount() != 2 || eight.Labels.ComponentCount() != 1 {
		t.Fatalf("connectivity semantics wrong: conn4=%d conn8=%d",
			four.Labels.ComponentCount(), eight.Labels.ComponentCount())
	}
}

func TestPublicFamilies(t *testing.T) {
	names := FamilyNames()
	if len(names) < 10 {
		t.Fatalf("expected a rich family list, got %d", len(names))
	}
	img, ok := GenerateFamily("checker", 8)
	if !ok || img.CountOnes() != 32 {
		t.Fatal("GenerateFamily(checker, 8) wrong")
	}
	if _, ok := GenerateFamily("nope", 8); ok {
		t.Fatal("unknown family should report false")
	}
}

func TestPublicImageHelpers(t *testing.T) {
	img := NewImage(3, 2)
	img.Set(1, 1, true)
	if !img.Get(1, 1) || img.CountOnes() != 1 {
		t.Fatal("NewImage/Set/Get broken")
	}
	if _, err := ParseImage("#?"); err == nil {
		t.Fatal("ParseImage should reject garbage")
	}
	if UnitCost().Validate() != nil {
		t.Fatal("UnitCost must be valid")
	}
}

func ExampleLabel() {
	img := MustParseImage(`
##..
...#
##.#
`)
	res, _ := Label(img)
	fmt.Println("components:", res.Labels.ComponentCount())
	fmt.Print(res.Labels)
	// Output:
	// components: 3
	// aa..
	// ...b
	// cc.b
}

func TestPublicLabelLarge(t *testing.T) {
	img := RandomImage(96, 0.5, 11)
	whole, err := Label(img)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LabelWithOptions(img, Options{ArrayWidth: 24, StripWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Labels.Equal(whole.Labels) {
		t.Fatal("strip-mined labeling differs from the whole-image run")
	}
	if res.Metrics.N != 24 {
		t.Fatalf("composed metrics N = %d, want the array width 24", res.Metrics.N)
	}
	if p, ok := res.Metrics.Phase("seam-merge"); !ok || p.Makespan <= 0 {
		t.Fatalf("seam-merge phase missing or empty: %+v ok=%v", p, ok)
	}
	// ArrayWidth 0 stays the whole-image path, bit for bit.
	zero, err := LabelWithOptions(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !zero.Labels.Equal(whole.Labels) || zero.Metrics.Time != whole.Metrics.Time {
		t.Fatal("ArrayWidth 0 diverged from Label")
	}
}

func TestPublicWordBitsDims(t *testing.T) {
	if got := WordBitsDims(1024, 16); got != 15 {
		t.Fatalf("WordBitsDims(1024, 16) = %d, want 15", got)
	}
	if WordBitsDims(64, 64) != WordBits(64) {
		t.Fatal("WordBitsDims must agree with WordBits on squares")
	}
}
