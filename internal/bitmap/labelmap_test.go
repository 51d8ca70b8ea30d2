package bitmap

import (
	"strings"
	"testing"
)

func TestLabelMapBasics(t *testing.T) {
	lm := NewLabelMap(3, 2)
	if lm.W() != 3 || lm.H() != 2 {
		t.Fatalf("want 3x2, got %dx%d", lm.W(), lm.H())
	}
	for x := 0; x < 3; x++ {
		for y := 0; y < 2; y++ {
			if lm.Get(x, y) != Background {
				t.Fatal("fresh map should be background")
			}
		}
	}
	lm.Set(2, 1, 7)
	if lm.Get(2, 1) != 7 {
		t.Fatal("Set/Get broken")
	}
}

func TestLabelMapBoundsPanic(t *testing.T) {
	lm := NewLabelMap(2, 2)
	for name, fn := range map[string]func(){
		"get": func() { lm.Get(2, 0) },
		"set": func() { lm.Set(0, -1, 1) },
		"new": func() { NewLabelMap(-1, 2) },
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

func TestLabelMapEqualAndCounts(t *testing.T) {
	a := NewLabelMap(2, 2)
	b := NewLabelMap(2, 2)
	if !a.Equal(b) {
		t.Fatal("fresh maps should be equal")
	}
	a.Set(0, 0, 5)
	a.Set(1, 1, 5)
	a.Set(0, 1, 9)
	if a.Equal(b) {
		t.Fatal("maps should differ")
	}
	if a.Equal(NewLabelMap(2, 3)) {
		t.Fatal("different dimensions should not be equal")
	}
	if a.ComponentCount() != 2 {
		t.Fatalf("want 2 labels, got %d", a.ComponentCount())
	}
	sizes := a.ComponentSizes()
	if sizes[5] != 2 || sizes[9] != 1 {
		t.Fatalf("unexpected sizes %v", sizes)
	}
}

func TestLabelMapForeground(t *testing.T) {
	lm := NewLabelMap(2, 2)
	lm.Set(1, 0, 3)
	fg := lm.Foreground()
	if fg.CountOnes() != 1 || !fg.Get(1, 0) {
		t.Fatalf("foreground wrong:\n%s", fg)
	}
}

func TestLabelMapString(t *testing.T) {
	lm := NewLabelMap(3, 1)
	lm.Set(0, 0, 10)
	lm.Set(2, 0, 10)
	s := lm.String()
	if s != "a.a\n" {
		t.Fatalf("want %q, got %q", "a.a\n", s)
	}
	// Distinct labels get distinct letters.
	lm.Set(1, 0, 4)
	if got := lm.String(); got != "aba\n" {
		t.Fatalf("want %q, got %q", "aba\n", got)
	}
}

func TestConnectivity(t *testing.T) {
	if !Conn4.Valid() || !Conn8.Valid() || Connectivity(5).Valid() {
		t.Fatal("Valid broken")
	}
	if len(Conn4.Neighbors()) != 4 || len(Conn8.Neighbors()) != 8 {
		t.Fatal("neighbor counts wrong")
	}
	if !strings.Contains(Conn4.String(), "4") || !strings.Contains(Conn8.String(), "8") {
		t.Fatal("String broken")
	}
	if Connectivity(0).String() != "invalid-connectivity" {
		t.Fatal("invalid String broken")
	}
	// Conn8's neighbors must be a superset of Conn4's.
	has := map[[2]int]bool{}
	for _, d := range Conn8.Neighbors() {
		has[d] = true
	}
	for _, d := range Conn4.Neighbors() {
		if !has[d] {
			t.Fatalf("Conn8 missing %v", d)
		}
	}
}

// TestLabelMapOf: the wrapped map reads and writes the caller's slice
// in place, and a slice of the wrong length is refused.
func TestLabelMapOf(t *testing.T) {
	lab := []int32{0, Background, Background, 3}
	lm := LabelMapOf(2, 2, lab)
	if lm.Get(1, 1) != 3 || lm.Get(0, 1) != Background {
		t.Fatalf("LabelMapOf reads %v", lm.Labels())
	}
	lm.Set(1, 0, 9)
	if lab[2] != 9 || &lm.Labels()[0] != &lab[0] {
		t.Fatal("LabelMapOf copied its slice")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LabelMapOf accepted 4 labels for a 3x1 map")
		}
	}()
	LabelMapOf(3, 1, lab)
}
