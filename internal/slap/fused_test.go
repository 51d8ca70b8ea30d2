package slap

import (
	"reflect"
	"testing"
)

// fusedProgram is a three-subphase program with the dependency shape of
// Algorithm CC's passes: a sweep that streams records forward, a local
// phase reading per-PE state, and a second sweep over the state the
// first two produced.
func fusedProgram(n int) (state []int64, subs []SubPhase) {
	state = make([]int64, n)
	subs = []SubPhase{
		{Name: "sweep1", Body: func(pe *PE) {
			pe.Tick(int64(pe.Index) + 1)
			if pe.HasIn() {
				for {
					m, ok := pe.RecvWait()
					if !ok || m.Kind == 0 {
						break
					}
					state[pe.Index] += int64(m.A)
				}
			}
			if pe.HasOut() {
				pe.Send(Msg{Kind: 1, A: int32(pe.Index), Words: 2})
				pe.Send(Msg{Kind: 0})
			}
		}},
		{Name: "local", Local: true, Body: func(pe *PE) {
			pe.Tick(state[pe.Index] + 3)
			pe.DeclareMemory(state[pe.Index])
		}},
		{Name: "sweep2", Body: func(pe *PE) {
			if pe.HasIn() {
				for {
					m, ok := pe.RecvWait()
					if !ok || m.Kind == 0 {
						break
					}
					state[pe.Index] += int64(m.B)
				}
			}
			pe.Tick(2)
			if pe.HasOut() {
				pe.Send(Msg{Kind: 2, B: int32(state[pe.Index])})
				pe.Send(Msg{Kind: 0})
			}
		}},
	}
	return state, subs
}

// TestRunFusedMatchesUnfused: the fused walk must produce bit-identical
// Metrics and per-PE state to the per-phase reference executor, in both
// directions, including the degenerate sizes.
func TestRunFusedMatchesUnfused(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 32} {
		for _, dir := range []Direction{LeftToRight, RightToLeft} {
			ref := NewMachine(n, Unit())
			ref.DisableFusion()
			refState, refSubs := fusedProgram(n)
			ref.RunFused(dir, nil, refSubs)

			fused := NewMachine(n, Unit())
			fusedState, fusedSubs := fusedProgram(n)
			fused.RunFused(dir, nil, fusedSubs)

			if !reflect.DeepEqual(refState, fusedState) {
				t.Fatalf("n=%d dir=%v: program state diverged: %v vs %v", n, dir, refState, fusedState)
			}
			if !reflect.DeepEqual(ref.Metrics(), fused.Metrics()) {
				t.Fatalf("n=%d dir=%v: metrics diverged:\nref   %+v\nfused %+v", n, dir, ref.Metrics(), fused.Metrics())
			}
		}
	}
}

// TestRunFusedPrep: prep runs once per position, in walk order, before
// the position's bodies; the unfused delegate runs every prep up front.
func TestRunFusedPrep(t *testing.T) {
	const n = 5
	for _, fuseOff := range []bool{false, true} {
		mc := NewMachine(n, Unit())
		if fuseOff {
			mc.DisableFusion()
		}
		var prepped []int
		var seen []int
		mc.RunFused(RightToLeft, func(idx int) { prepped = append(prepped, idx) }, []SubPhase{
			{Name: "check", Local: true, Body: func(pe *PE) {
				seen = append(seen, pe.Index)
				for _, p := range prepped {
					if p == pe.Index {
						return
					}
				}
				t.Fatalf("fuseOff=%v: PE %d ran before its prep (prepped %v)", fuseOff, pe.Index, prepped)
			}},
		})
		if len(prepped) != n {
			t.Fatalf("fuseOff=%v: %d preps, want %d", fuseOff, len(prepped), n)
		}
		want := []int{4, 3, 2, 1, 0}
		if !reflect.DeepEqual(prepped, want) {
			t.Fatalf("fuseOff=%v: prep order %v, want %v", fuseOff, prepped, want)
		}
		// Local subphases always execute ascending (RunLocal's order) in
		// the unfused delegate; the fused walk visits in dir order.
		if fuseOff && !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("delegate body order %v", seen)
		}
	}
}
