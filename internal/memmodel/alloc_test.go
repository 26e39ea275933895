package memmodel

import (
	"testing"

	"lasagne/internal/race"
)

// allocProbePrograms are the shapes the steady-state allocation contract is
// checked on: multi-location, fence-bearing and RMW-bearing programs.
func allocProbePrograms() []*Program {
	return []*Program{
		{Name: "SB", Threads: [][]Op{
			{St("X", 1), Ld("Y")},
			{St("Y", 1), Ld("X")},
		}},
		{Name: "IRIW+f", Threads: [][]Op{
			{St("X", 1)},
			{St("Y", 1)},
			{Ld("X"), Fn(Fsc), Ld("Y")},
			{Ld("Y"), Fn(Fsc), Ld("X")},
		}},
		{Name: "RMW-MP", Threads: [][]Op{
			{St("X", 1), RMW("Y", 1)},
			{Ld("Y"), Ld("X")},
		}},
	}
}

// TestSteadyStateVisitAllocationFree pins the walker/evaluator arena
// contract: once a program's fold has run once (growing the behavior set's
// map), re-walking the whole space — every enumeration node checked, every
// consistent execution folded into the emptied set — performs zero heap
// allocations, under every model.
func TestSteadyStateVisitAllocationFree(t *testing.T) {
	for _, p := range allocProbePrograms() {
		for _, m := range []Model{SC, X86, Arm, LIMM} {
			s := newEnumSpace(p)
			f := &folder{w: s.newAliasWalker(), ev: newEvaluator(s, m), acc: newBehaviorSet(s.stat, true)}
			f.foldCo(0) // warm: grow the set's map
			allocs := testing.AllocsPerRun(5, func() {
				clear(f.acc.interned)
				f.foldCo(0)
			})
			if allocs != 0 {
				t.Errorf("%s under %s: %.1f allocs per steady-state enumeration pass, want 0",
					p.Name, m.Name, allocs)
			}
		}
	}
}

// TestSteadyStateCheckAllocationFree pins the CheckScratch arena contract
// behind the bounded sweeps: once a scratch is warm, a full inclusion check
// — building both enumeration spaces, hoisting statics, enumerating,
// folding and comparing two behavior sets — performs zero heap allocations.
func TestSteadyStateCheckAllocationFree(t *testing.T) {
	sc := NewCheckScratch()
	for _, p := range allocProbePrograms() {
		src := p
		tgt := &Program{Name: p.Name + "-tgt", Threads: p.Threads}
		for _, m := range []Model{SC, X86, Arm, LIMM} {
			inclusionScratch(src, tgt, m, sc) // warm: grow slabs, intern keys
			allocs := testing.AllocsPerRun(5, func() { inclusionScratch(src, tgt, m, sc) })
			if allocs != 0 {
				t.Errorf("%s under %s: %.1f allocs per steady-state inclusion check, want 0",
					p.Name, m.Name, allocs)
			}
		}
	}
}

// TestReorderCellAllocBudget pins the whole-cell allocation budget: one
// Fig. 11a cell sweeps ~1400 context programs, and with the scratch pools
// warm the per-cell total must stay within a small constant budget (the
// pool round-trips and the error-free fan-out, nothing proportional to the
// number of contexts checked). The pre-arena implementation spent ~17k
// allocations per cell.
func TestReorderCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps full reorder cells repeatedly")
	}
	if race.Enabled {
		// The race runtime drops sync.Pool items at random, so the scratch
		// pool never stays warm and the count measures the detector.
		t.Skip("allocation counts are meaningless under -race")
	}
	checkReorder(CatRna, CatWna, 1) // warm the pools
	allocs := testing.AllocsPerRun(2, func() { checkReorder(CatRna, CatWna, 1) })
	// 42 allocs for the full 49-cell table when warm; one cell gets
	// generous headroom over the measured ~1-2.
	const budget = 50
	if allocs > budget {
		t.Errorf("checkReorder(Rna, Wna): %.0f allocs per warm cell, budget %d", allocs, budget)
	}
}
