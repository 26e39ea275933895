package memmodel

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// weakMap is the full weak lowering pipeline: Fig. 8a placement, then the
// strengthening rewrite on the way to Arm.
func weakMap(q *Program) *Program {
	return MapIRToArmWeak(MapX86ToIR(q))
}

// elideMap additionally drops fences around accesses the litmus-level
// "escape analysis" (PrivateLocs) proves thread-local.
func elideMap(q *Program) *Program {
	return MapIRToArmWeak(MapX86ToIRElide(q, PrivateLocs(q)))
}

// The classic litmus suite through the weak lowering: behaviors on Arm
// must stay within the x86 behaviors.
func TestWeakMappingClassic(t *testing.T) {
	for _, p := range ClassicTests() {
		if err := CheckMapping(p, X86, weakMap, Arm); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if err := CheckMapping(p, X86, elideMap, Arm); err != nil {
			t.Errorf("%s (elide): %v", p.Name, err)
		}
	}
}

// On the image of the x86 mapping every fence sits adjacent to its access,
// so strengthening should convert everything: MP lowers to a fence-free
// program of acquire loads and release stores, and stays sound.
func TestStrengthenConvertsMP(t *testing.T) {
	arm := weakMap(mp())
	acq, rel, fences := 0, 0, 0
	for _, th := range arm.Threads {
		for _, o := range th {
			switch {
			case o.Kind == OpFence:
				fences++
			case o.Acq:
				acq++
			case o.Rel:
				rel++
			}
		}
	}
	if fences != 0 || acq != 2 || rel != 2 {
		t.Fatalf("MP weak lowering: want 0 fences, 2 acquires, 2 releases; got %d/%d/%d",
			fences, acq, rel)
	}
	if err := CheckMapping(mp(), X86, weakMap, Arm); err != nil {
		t.Fatalf("fence-free MP lowering unsound: %v", err)
	}
}

// Exhaustive x86-source proof of the strengthened mapping (the analogue of
// TestMappingExhaustive for MapIRToArmWeak).
func TestWeakMappingExhaustive(t *testing.T) {
	max := 2
	if testing.Short() {
		max = 1
	}
	progs := GenerateX86Programs(max)
	t.Logf("checking %d generated programs", len(progs))
	for _, p := range progs {
		if err := CheckMapping(p, X86, weakMap, Arm); err != nil {
			t.Fatalf("%v", err)
		}
	}
}

// Exhaustive IR-source proof: MapIRToArmWeak must be sound for *arbitrary*
// LIMM programs, not just images of the x86 mapping, because the §7.2
// fence merger rewrites Frm/Fww into Fsc before lowering runs. This
// enumeration includes every fence kind and RMWs.
func TestWeakMappingIRExhaustive(t *testing.T) {
	t.Parallel()
	max := 3
	if testing.Short() {
		max = 2
	}
	progs := GenerateIRPrograms(max)
	t.Logf("checking %d generated IR programs", len(progs))
	checkInParallel(t, progs, func(t *testing.T, p *Program) {
		if err := CheckMapping(p, LIMM, MapIRToArmWeak, Arm); err != nil {
			t.Fatalf("%v", err)
		}
	})
}

// Exhaustive proof of the escape-elimination rule: fences for locations
// accessed by a single thread may be dropped entirely.
func TestElisionExhaustive(t *testing.T) {
	max := 2
	if testing.Short() {
		max = 1
	}
	progs := GenerateX86Programs(max)
	elided := 0
	for _, p := range progs {
		if len(PrivateLocs(p)) > 0 {
			elided++
		}
		if err := CheckMapping(p, X86, elideMap, Arm); err != nil {
			t.Fatalf("%v", err)
		}
	}
	if elided == 0 {
		t.Fatal("enumeration produced no programs with private locations")
	}
	t.Logf("%d/%d programs had at least one private location", elided, len(progs))
}

// Deep-window sweep: the scan's abort/skip cases only become observable in
// threads of four or more ops (candidate + second access + fence +
// downstream access), beyond the symmetric enumeration's affordable depth.
// Pair every 4-op thread with a small set of canonical observers.
func TestWeakScanDeepWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-window sweep skipped in -short mode")
	}
	ops := []Op{
		Ld("X"), Ld("Y"),
		St("X", 1), St("Y", 1),
		RMW("X", 2),
		Fn(Frm), Fn(Fww), Fn(Fsc),
	}
	var deep [][]Op
	var gen func(cur []Op)
	gen = func(cur []Op) {
		if len(cur) == 4 {
			deep = append(deep, append([]Op(nil), cur...))
			return
		}
		for _, o := range ops {
			gen(append(cur, o))
		}
	}
	gen(nil)
	observers := [][]Op{
		{Ld("X"), Fn(Frm), Ld("Y")},
		{Ld("Y"), Fn(Frm), Ld("X")},
		{St("X", 3), Fn(Fww), St("Y", 3)},
		{Ld("Y"), Fn(Frm), St("X", 3)},
	}
	n := 0
	for i, t0 := range deep {
		for j, obs := range observers {
			p := &Program{
				Name:    fmt.Sprintf("deep_%d_%d", i, j),
				Threads: [][]Op{t0, obs},
			}
			if err := CheckMapping(p, LIMM, MapIRToArmWeak, Arm); err != nil {
				t.Fatalf("%v", err)
			}
			n++
		}
	}
	t.Logf("checked %d deep-window programs", n)
}

// The window condition is load-bearing: a naive peephole that converts any
// adjacent ld;Frm pair loses the fence's ordering for *other* uncovered
// reads in the window. StrengthenIR must decline here, and CheckMapping
// must catch the naive version.
func TestStrengthenWindowAbort(t *testing.T) {
	// T0's Frm orders BOTH Ld A and Ld X before St Z. Converting only
	// Ld X to acquire leaves Ld A free to reorder past St Z, completing
	// an LB-style cycle with T1.
	p := &Program{Name: "two-reads-one-frm", Threads: [][]Op{
		{Ld("A"), Ld("X"), Fn(Frm), St("Z", 1)},
		{Ld("Z"), Fn(Frm), St("A", 1)},
	}}

	s := StrengthenIR(p)
	frm := 0
	for _, o := range s.Threads[0] {
		if o.Kind == OpFence && o.Fence == Frm {
			frm++
		}
	}
	if frm != 1 {
		t.Fatalf("T0's Frm must survive (two uncovered reads in window); got %d Frm", frm)
	}
	if err := CheckMapping(p, LIMM, MapIRToArmWeak, Arm); err != nil {
		t.Fatalf("scan-based lowering should be sound: %v", err)
	}

	naive := func(q *Program) *Program {
		out := &Program{Name: q.Name + "→Arm(naive)", Init: q.Init}
		for _, th := range q.Threads {
			var tt []Op
			for i := 0; i < len(th); i++ {
				o := th[i]
				if o.Kind == OpLoad && !o.SC && !o.Acq && i+1 < len(th) &&
					th[i+1].Kind == OpFence && th[i+1].Fence == Frm {
					tt = append(tt, LdA(o.Loc))
					i++
					continue
				}
				switch o.Kind {
				case OpRMW:
					tt = append(tt, Fn(DMBFF), o, Fn(DMBFF))
				case OpFence:
					switch o.Fence {
					case Frm:
						tt = append(tt, Fn(DMBLD))
					case Fww:
						tt = append(tt, Fn(DMBST))
					default:
						tt = append(tt, Fn(DMBFF))
					}
				default:
					tt = append(tt, o)
				}
			}
			out.Threads = append(out.Threads, tt)
		}
		return out
	}
	if err := CheckMapping(p, LIMM, naive, Arm); err == nil {
		t.Error("adjacency-only peephole should be unsound with a second uncovered read")
	}
}

// Precision (negative) tests: each weakening beyond what the rules allow
// must be observable, demonstrating the checker has teeth.
func TestWeakMappingPrecision(t *testing.T) {
	// Deleting the Frm without upgrading the load to acquire is unsound
	// (MP: the two loads may reorder).
	dropFrmNoAcq := func(q *Program) *Program {
		ir := MapX86ToIR(q)
		for ti, th := range ir.Threads {
			var tt []Op
			for i := 0; i < len(th); i++ {
				o := th[i]
				if o.Kind == OpLoad && !o.SC && i+1 < len(th) &&
					th[i+1].Kind == OpFence && th[i+1].Fence == Frm {
					tt = append(tt, Ld(o.Loc)) // plain load, fence gone
					i++
					continue
				}
				tt = append(tt, o)
			}
			ir.Threads[ti] = tt
		}
		return MapIRToArm(ir)
	}
	if err := CheckMapping(mp(), X86, dropFrmNoAcq, Arm); err == nil {
		t.Error("deleting Frm without an acquire load should be unsound on MP")
	}

	// Deleting the Fww without upgrading the store to release is unsound.
	dropFwwNoRel := func(q *Program) *Program {
		ir := MapX86ToIR(q)
		for ti, th := range ir.Threads {
			var tt []Op
			for i := 0; i < len(th); i++ {
				o := th[i]
				if o.Kind == OpFence && o.Fence == Fww && i+1 < len(th) &&
					th[i+1].Kind == OpStore && !th[i+1].SC {
					tt = append(tt, St(th[i+1].Loc, th[i+1].Val))
					i++
					continue
				}
				tt = append(tt, o)
			}
			ir.Threads[ti] = tt
		}
		return MapIRToArm(ir)
	}
	if err := CheckMapping(mp(), X86, dropFwwNoRel, Arm); err == nil {
		t.Error("deleting Fww without a release store should be unsound on MP")
	}

	// Eliding fences for a location that is actually shared is unsound —
	// the litmus analogue of a wrong escape-analysis verdict.
	elideShared := func(q *Program) *Program {
		return MapIRToArmWeak(MapX86ToIRElide(q, map[string]bool{"X": true, "Y": true}))
	}
	if err := CheckMapping(mp(), X86, elideShared, Arm); err == nil {
		t.Error("eliding fences on shared locations should be unsound on MP")
	}
}

// Correctly-classified MP has no private locations: the elide map must
// degrade to the plain mapping and keep every fence.
func TestElisionLeavesSharedAlone(t *testing.T) {
	p := mp()
	if locs := PrivateLocs(p); len(locs) != 0 {
		t.Fatalf("MP has no private locations, got %v", locs)
	}
	got := MapX86ToIRElide(p, PrivateLocs(p))
	want := MapX86ToIR(p)
	for ti := range want.Threads {
		if len(got.Threads[ti]) != len(want.Threads[ti]) {
			t.Fatalf("thread %d: elide map dropped fences on shared program", ti)
		}
	}
}

// Bounded smoke variant for CI: the classic suite plus a shallow generated
// sweep under an explicit visit budget and deadline. Must finish well
// under a minute.
func TestWeakMappingSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	b := Budget{Ctx: ctx, MaxVisits: 2_000_000}
	for _, p := range ClassicTests() {
		if err := CheckMappingBudget(p, X86, weakMap, Arm, b); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	for _, p := range GenerateIRPrograms(1) {
		if err := CheckMappingBudget(p, LIMM, MapIRToArmWeak, Arm, b); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}
