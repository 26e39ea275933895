package memmodel

import (
	"fmt"
	"math/rand"
	"testing"
)

// referenceBehaviors folds behaviors the pre-bitset way: enumerate with the
// public (map-maintaining) walker, materialize the map/[]bool relations,
// evaluate the retained reference consistency predicates, and extract
// behaviors with the reference extraction. It shares no code with the bitset
// evaluator, the interned behavior sets, or the hoisted statics.
func referenceBehaviors(p *Program, m Model, withReads bool) map[string]bool {
	reads, finals := referenceKeys(p, m)
	if withReads {
		return reads
	}
	return finals
}

// referenceKeys is referenceBehaviors in both observation modes at once.
func referenceKeys(p *Program, m Model) (withReads, finals map[string]bool) {
	withReads, finals = map[string]bool{}, map[string]bool{}
	var buf *rels
	VisitExecutions(p, func(x *Execution) {
		r := x.relationsInto(buf)
		buf = r
		if refScPerLoc(x, r) && refAtomicity(x, r) && referenceConsistent(m, x, r) {
			b := x.referenceBehavior()
			withReads[b.Key(true)] = true
			finals[b.Key(false)] = true
		}
	})
	return withReads, finals
}

// genRandomProgram draws a random litmus program from one of four op-pool
// variants: plain accesses, accesses+fences, accesses+RMWs, or the full mix
// (SC accesses, half-fence accesses, expected-value RMWs, fences of every
// architecture level). Deterministic in rng.
func genRandomProgram(rng *rand.Rand, variant int, name string) *Program {
	locs := []string{"X", "Y"}
	loc := func() string { return locs[rng.Intn(len(locs))] }
	val := func() int { return 1 + rng.Intn(3) }
	plain := []func() Op{
		func() Op { return Ld(loc()) },
		func() Op { return St(loc(), val()) },
	}
	fences := []func() Op{
		func() Op { return Fn(MFENCE) },
		func() Op { return Fn(Frm) },
		func() Op { return Fn(Fww) },
		func() Op { return Fn(Fsc) },
		func() Op { return Fn(DMBFF) },
		func() Op { return Fn(DMBLD) },
		func() Op { return Fn(DMBST) },
	}
	rmws := []func() Op{
		func() Op { return RMW(loc(), val()) },
		func() Op { return RMWE(loc(), rng.Intn(2), val()) },
	}
	full := []func() Op{
		func() Op { return LdSC(loc()) },
		func() Op { return StSC(loc(), val()) },
		func() Op { return LdA(loc()) },
		func() Op { return StR(loc(), val()) },
	}
	var pool []func() Op
	switch variant % 4 {
	case 0:
		pool = plain
	case 1:
		pool = append(append([]func() Op{}, plain...), fences...)
	case 2:
		pool = append(append([]func() Op{}, plain...), rmws...)
	default:
		pool = append(append(append(append([]func() Op{}, plain...), fences...), rmws...), full...)
	}
	p := &Program{Name: name}
	nThreads := 2 + rng.Intn(2)
	for t := 0; t < nThreads; t++ {
		var th []Op
		for len(th) == 0 { // no empty threads
			nOps := 1 + rng.Intn(3)
			for i := 0; i < nOps; i++ {
				th = append(th, pool[rng.Intn(len(pool))]())
			}
		}
		p.Threads = append(p.Threads, th)
	}
	return p
}

// TestBitsetEngineMatchesReference is the differential oracle for the bitset
// checking core: over a seeded stream of randomized litmus programs — with
// and without fences, RMWs and SC/half-fence accesses — the production
// BehaviorsOf (hoisted statics, packed relations, interned keys) must
// produce exactly the behavior sets of the retained reference engine, under
// all four models and both observation modes.
func TestBitsetEngineMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(0x1a5a97e))
	models := []Model{SC, X86, Arm, LIMM}
	const programs = 80
	progs := make([]*Program, programs)
	for i := range progs {
		progs[i] = genRandomProgram(rng, i, fmt.Sprintf("rand_%d", i))
	}
	checkInParallel(t, progs, func(t *testing.T, p *Program) {
		for _, m := range models {
			for _, withReads := range []bool{true, false} {
				want := referenceBehaviors(p, m, withReads)
				got := BehaviorsOf(p, m, withReads)
				if len(got) != len(want) {
					t.Fatalf("%s under %s (withReads=%v): bitset engine found %d behaviors, reference %d\nprogram: %s",
						p.Name, m.Name, withReads, len(got), len(want), p)
				}
				for k := range got {
					if !want[k] {
						t.Fatalf("%s under %s (withReads=%v): bitset-only behavior %s\nprogram: %s",
							p.Name, m.Name, withReads, k, p)
					}
				}
			}
		}
	})
}

// checkInParallel runs check on every program, spread over parallelParts
// parallel subtests. Callers generate the programs before calling it, so
// the split never changes which inputs are checked. These oracles compute
// without shared state; running them side by side is what keeps the
// package inside the race detector's time on a small machine.
func checkInParallel(t *testing.T, progs []*Program, check func(*testing.T, *Program)) {
	for k := 0; k < parallelParts; k++ {
		lo, hi := k*len(progs)/parallelParts, (k+1)*len(progs)/parallelParts
		if lo == hi {
			continue
		}
		t.Run(fmt.Sprintf("%d-%d", lo, hi-1), func(t *testing.T) {
			t.Parallel()
			for _, p := range progs[lo:hi] {
				check(t, p)
			}
		})
	}
}

// parallelParts is how many parallel subtests checkInParallel makes.
const parallelParts = 8

// TestBitsetEngineMatchesReferenceParallel spot-checks the parallel fold
// against the reference on a smaller seeded stream.
func TestBitsetEngineMatchesReferenceParallel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(0xd1ff))
	progs := make([]*Program, 12)
	for i := range progs {
		progs[i] = genRandomProgram(rng, i, fmt.Sprintf("randpar_%d", i))
	}
	checkInParallel(t, progs, func(t *testing.T, p *Program) {
		for _, m := range []Model{SC, X86, Arm, LIMM} {
			want := referenceBehaviors(p, m, true)
			got := parallelBehaviors(p, m, 4)
			if len(got) != len(want) {
				t.Fatalf("%s under %s: parallel fold found %d behaviors, reference %d\nprogram: %s",
					p.Name, m.Name, len(got), len(want), p)
			}
			for k := range got {
				if !want[k] {
					t.Fatalf("%s under %s: parallel-only behavior %s\nprogram: %s", p.Name, m.Name, k, p)
				}
			}
		}
	})
}
