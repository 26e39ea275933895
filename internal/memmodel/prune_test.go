package memmodel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lasagne/internal/diag"
)

// prunedFoldPrograms is the corpus the pruned fold is held to the
// leaf-only reference on: both generated bound-2 families, the classics, the
// randomized fence/RMW/SC programs of the bitset oracle, and three shapes
// the incremental check must get right.
func prunedFoldPrograms() []*Program {
	progs := append(GenerateX86Programs(2), GenerateIRPrograms(2)...)
	progs = append(progs, ClassicTests()...)
	progs = append(progs,
		// Internal rf stays out of the x86, Arm and LIMM orders: x86
		// allows this outcome with both loads of the own store.
		&Program{Name: "SB+rfis", Threads: [][]Op{
			{St("X", 1), Ld("X"), Ld("Y")},
			{St("Y", 1), Ld("Y"), Ld("X")},
		}},
		// The last read's new rf edge and new fr edge close a cycle only
		// together: its fr target reaches its rf source (w →rfe r1 →bob
		// Wz →rfe Rz →release src) while nothing yet reaches it.
		&Program{Name: "rf+fr-cycle", Threads: [][]Op{
			{Ld("Z"), StR("X", 1), St("X", 2)},
			{Ld("X"), Fn(DMBFF), St("Z", 1)},
			{Ld("X")},
		}},
		// Values over 255 do not pack: these behaviors take the slow
		// path, next to packed ones whose key is all zeros.
		&Program{Name: "wide-values", Threads: [][]Op{
			{St("X", 300)},
			{St("X", 0), Ld("X")},
		}},
		&Program{Name: "wide-values-2", Threads: [][]Op{
			{St("X", 0)},
			{St("X", 300), Ld("X")},
		}},
	)
	rng := rand.New(rand.NewSource(0x1a5a97e))
	for i := 0; i < 80; i++ {
		progs = append(progs, genRandomProgram(rng, i, fmt.Sprintf("rand_%d", i)))
	}
	return progs
}

func sameKeys(got map[string]Behavior, want map[string]bool) string {
	for k := range got {
		if !want[k] {
			return "pruned-only behavior " + k
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			return "reference-only behavior " + k
		}
	}
	return ""
}

// TestPrunedFoldMatchesFullWalk pins the exactness of the pruned fold: on
// every program of the corpus, under every model, in both observation modes
// and both serially and across four workers, it folds exactly the behavior
// set of the unpruned leaf-only reference.
func TestPrunedFoldMatchesFullWalk(t *testing.T) {
	progs := prunedFoldPrograms()
	if testing.Short() {
		var sample []*Program
		for i := 0; i < len(progs); i += 17 {
			sample = append(sample, progs[i])
		}
		progs = sample
	}
	for _, p := range progs {
		for _, m := range []Model{X86, Arm, LIMM, SC} {
			wantReads, wantFinals := referenceKeys(p, m)
			for _, withReads := range []bool{true, false} {
				want := wantFinals
				if withReads {
					want = wantReads
				}
				for _, workers := range []int{1, 4} {
					acc, err := foldBehaviorsBudget(p, m, withReads, workers, Budget{})
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameKeys(acc.result(), want); diff != "" {
						t.Fatalf("%s under %s (withReads=%v, workers=%d): %s\nprogram: %s",
							p.Name, m.Name, withReads, workers, diff, p)
					}
				}
			}
		}
	}
}

// TestPartialCheckMonotone is the property the pruning rests on: every
// rf-prefix of a consistent execution passes the partial check. Each prefix
// is checked both from scratch (check) and by the incremental chain the
// fold walks (check at depth 0, then extend read by read).
func TestPartialCheckMonotone(t *testing.T) {
	progs := ClassicTests()
	rng := rand.New(rand.NewSource(0xd1ff))
	for i := 0; i < 40; i++ {
		progs = append(progs, genRandomProgram(rng, i, fmt.Sprintf("randmono_%d", i)))
	}
	for _, p := range progs {
		for _, m := range []Model{X86, Arm, LIMM, SC} {
			var buf *rels
			VisitExecutions(p, func(x *Execution) {
				r := x.relationsInto(buf)
				buf = r
				if !refScPerLoc(x, r) || !refAtomicity(x, r) || !referenceConsistent(m, x, r) {
					return
				}
				c := x.Clone()
				ev := newEvaluator(c.sp, m)
				reads := c.sp.reads
				for d := len(reads); d >= 0; d-- {
					if d < len(reads) {
						c.rfOf[reads[d].ID] = -1
					}
					if !ev.check(c, d) {
						t.Fatalf("%s under %s: the rf-prefix of depth %d of a consistent execution fails the check\nprogram: %s",
							p.Name, m.Name, d, p)
					}
				}
				for d := 1; d <= len(reads); d++ {
					c.rfOf[reads[d-1].ID] = x.rfOf[reads[d-1].ID]
					if !ev.extend(c, d) {
						t.Fatalf("%s under %s: the incremental check rejects the rf-prefix of depth %d of a consistent execution\nprogram: %s",
							p.Name, m.Name, d, p)
					}
				}
			})
		}
	}
}

// prunedWalkChecks counts the consistency checks the pruned walk makes on
// p under m, written out independently of folder: every co-only root, every
// child of a passing node, and every complete execution whose behavior is
// not yet folded — all checked from scratch.
func prunedWalkChecks(p *Program, m Model) int64 {
	s := newEnumSpace(p)
	w := s.newAliasWalker()
	ev := newEvaluator(s, m)
	acc := newBehaviorSet(s.stat, true)
	var checks int64
	var walk func(ri int)
	walk = func(ri int) {
		x := w.x
		if ri == len(s.reads) {
			key, packed := acc.pack(x)
			if packed && acc.hasKey(key) {
				return
			}
			checks++
			if ev.check(x, ri) {
				acc.insert(x, key, packed)
			}
			return
		}
		checks++
		if !ev.check(x, ri) {
			return
		}
		for _, src := range s.rfChoices[ri] {
			w.assign(ri, src)
			walk(ri + 1)
		}
		x.rfOf[s.reads[ri].ID] = -1
	}
	var co func(ci int)
	co = func(ci int) {
		if ci == len(s.locs) {
			walk(0)
			return
		}
		for _, order := range s.coChoices[ci] {
			w.setCo(ci, order)
			co(ci + 1)
		}
	}
	co(0)
	return checks
}

// TestFoldBudgetCountsChecks pins the fold's budget semantics: MaxVisits
// counts enumeration nodes checked, partial or complete, so a fold needing
// T checks completes with exactly the unbounded behavior set under
// MaxVisits T and is cut off with ErrBudgetExceeded under any smaller
// budget.
func TestFoldBudgetCountsChecks(t *testing.T) {
	p := iriw()
	checks := prunedWalkChecks(p, Arm)
	var leaves int
	VisitExecutions(p, func(*Execution) { leaves++ })
	if checks <= int64(leaves) {
		t.Fatalf("IRIW under arm: %d checks for %d candidates; the walk must check partial executions", checks, leaves)
	}
	want := BehaviorsOf(p, Arm, true)
	got, err := BehaviorsOfBudget(p, Arm, true, Budget{MaxVisits: checks})
	if err != nil {
		t.Fatalf("MaxVisits = %d checks: %v", checks, err)
	}
	if diff := behaviorKeysEqual(got, want); diff != "" {
		t.Fatalf("MaxVisits = %d checks: %s", checks, diff)
	}
	for n := int64(1); n < checks; n++ {
		part, err := BehaviorsOfBudget(p, Arm, true, Budget{MaxVisits: n})
		if !errors.Is(err, diag.ErrBudgetExceeded) {
			t.Fatalf("MaxVisits = %d of %d checks: err = %v, want ErrBudgetExceeded", n, checks, err)
		}
		for k := range part {
			if _, ok := want[k]; !ok {
				t.Fatalf("MaxVisits = %d: partial behavior %s not in the full set", n, k)
			}
		}
	}
}

// TestBrokenRMWMappingReported checks that the pruned engine still sees a
// broken mapping: an IR→Arm mapping that drops the trailing DMBFF after
// each RMW (Fig. 10) must be reported unsound on exactly the programs, and
// with exactly the messages, that the unpruned reference engine gives.
func TestBrokenRMWMappingReported(t *testing.T) {
	dropTrailing := func(q *Program) *Program {
		out := MapIRToArm(MapX86ToIR(q))
		for ti, th := range out.Threads {
			var tt []Op
			for i, o := range th {
				if o.Kind == OpFence && o.Fence == DMBFF && i > 0 && th[i-1].Kind == OpRMW {
					continue
				}
				tt = append(tt, o)
			}
			out.Threads[ti] = tt
		}
		return out
	}
	asBehaviors := func(keys map[string]bool) map[string]Behavior {
		out := make(map[string]Behavior, len(keys))
		for k := range keys {
			out[k] = Behavior{}
		}
		return out
	}
	progs := GenerateX86Programs(2)
	if testing.Short() {
		progs = append(progs[:0:0], ClassicTests()...)
	}
	unsound := 0
	for _, p := range progs {
		got := CheckMapping(p, X86, dropTrailing, Arm)
		srcKeys, _ := referenceKeys(p, X86)
		tgtKeys, _ := referenceKeys(dropTrailing(p), Arm)
		want := compareBehaviors(p, X86, Arm, asBehaviors(srcKeys), asBehaviors(tgtKeys))
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("%s: pruned engine says %v\nreference says %v", p.Name, got, want)
		}
		if got != nil {
			unsound++
			if !strings.Contains(got.Error(), "unsound") {
				t.Fatalf("%s: unexpected error %v", p.Name, got)
			}
		}
	}
	if unsound == 0 {
		t.Fatal("dropping the trailing DMBFF after RMWs went unnoticed")
	}
	t.Logf("%d of %d programs expose the broken mapping", unsound, len(progs))
}
