package unionfind

import (
	"math/rand"
	"testing"
)

// driveOps applies a deterministic mixed workload and returns a trace of
// every observable output, so a reset structure can be compared
// op-for-op against a fresh one.
func driveOps(u UnionFind, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var trace []int64
	for i := 0; i < 4*n; i++ {
		if rng.Intn(3) == 0 {
			r := u.Find(rng.Intn(n))
			trace = append(trace, int64(r))
		} else {
			root, a, b, united := u.Union(rng.Intn(n), rng.Intn(n))
			v := int64(root)<<32 | int64(a)<<16 | int64(b)
			if united {
				v = -v - 1
			}
			trace = append(trace, v)
		}
		trace = append(trace, u.Steps(), int64(u.Sets()))
	}
	return trace
}

func equalTrace(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResetMatchesFresh: after any workload, Reset(n') must leave every
// structure observationally identical to a freshly made one — including
// step charges, which the SLAP simulation converts into machine time.
func TestResetMatchesFresh(t *testing.T) {
	sizes := []int{1, 7, 64, 200}
	for _, kind := range Kinds() {
		for _, n0 := range sizes {
			for _, n1 := range sizes {
				reused, _ := Make(kind, n0)
				driveOps(reused, n0, 1) // dirty it
				reused.Reset(n1)
				fresh, _ := Make(kind, n1)
				if reused.Len() != fresh.Len() || reused.Sets() != fresh.Sets() ||
					reused.CapBound() != fresh.CapBound() || reused.Steps() != 0 {
					t.Fatalf("%s: Reset(%d) after run at %d: Len/Sets/CapBound/Steps mismatch", kind, n1, n0)
				}
				got := driveOps(reused, n1, 2)
				want := driveOps(fresh, n1, 2)
				if !equalTrace(got, want) {
					t.Errorf("%s: Reset(%d) after run at %d diverges from fresh structure", kind, n1, n0)
				}
			}
		}
	}
}

// TestResetKUFInvariants: a reused KUF must still satisfy (I1)–(I3).
func TestResetKUFInvariants(t *testing.T) {
	u := NewKUF(50)
	driveOps(u, 50, 3)
	u.Reset(80)
	driveOps(u, 80, 4)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	// Explicit arity survives Reset; automatic arity re-derives.
	ua := NewKUFArity(256, 3)
	ua.Reset(1024)
	if ua.Arity() != 3 {
		t.Fatalf("explicit arity changed on Reset: %d", ua.Arity())
	}
	ud := NewKUF(16)
	ud.Reset(1 << 16)
	if ud.Arity() != DefaultArity(1<<16) {
		t.Fatalf("automatic arity not re-derived: got %d want %d", ud.Arity(), DefaultArity(1<<16))
	}
}

// TestMeterReset: Reset clears statistics, ResetStats keeps the inner
// structure's state.
func TestMeterReset(t *testing.T) {
	m := NewMeter(New(32))
	driveOps(m, 32, 5)
	if m.Stats().Finds == 0 {
		t.Fatal("workload should record finds")
	}
	m.Reset(32)
	st := m.Stats()
	if st != (Stats{}) || m.MaxOpCost() != 0 {
		t.Fatalf("Reset left stats behind: %+v", st)
	}
	m.Union(0, 1)
	m.ResetStats()
	if m.Sets() != 31 {
		t.Fatal("ResetStats must not touch the inner structure")
	}
	if m.Stats().Unions != 0 {
		t.Fatal("ResetStats must clear statistics")
	}
}

// TestQuickFindNoAllocUnions: the member lists are intrusive, so a full
// union workload on a reset structure performs zero allocations.
func TestQuickFindNoAllocUnions(t *testing.T) {
	const n = 1 << 10
	q := NewQuickFind(n)
	allocs := testing.AllocsPerRun(10, func() {
		q.Reset(n)
		for span := 1; span < n; span *= 2 {
			for base := 0; base+span < n; base += 2 * span {
				q.Union(base, base+span)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("QuickFind union workload allocates %.1f times per run, want 0", allocs)
	}
}
