package memmodel

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// StSC is a LIMM seq_cst store.
func StSC(loc string, v int) Op { return Op{Kind: OpStore, Loc: loc, Val: v, SC: true} }

// RMWE is an RMW that must read exp (the paper's RMW(x, vr, vw) notation).
func RMWE(loc string, exp, v int) Op {
	return Op{Kind: OpRMW, Loc: loc, Val: v, SC: true, HasExp: true, Exp: exp}
}

// behaviorsContain reports whether the behavior set has an entry whose read
// observations include all the given key=value pairs.
func behaviorsContain(bs map[string]Behavior, want map[string]int) bool {
	for _, b := range bs {
		all := true
		for k, v := range want {
			if b.Reads[k] != v {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func sb() *Program {
	return &Program{Name: "SB", Threads: [][]Op{
		{St("X", 1), Ld("Y")},
		{St("Y", 1), Ld("X")},
	}}
}

func mp() *Program {
	return &Program{Name: "MP", Threads: [][]Op{
		{St("X", 1), St("Y", 1)},
		{Ld("Y"), Ld("X")},
	}}
}

// Fig. 1: the non-SC outcome a=b=0 of SB is allowed on x86 and Arm (and
// disallowed under SC).
func TestFig1SB(t *testing.T) {
	weak := map[string]int{"t0.Y.0": 0, "t1.X.0": 0}
	if !behaviorsContain(BehaviorsOf(sb(), X86, true), weak) {
		t.Error("x86 must allow SB's a=b=0")
	}
	if !behaviorsContain(BehaviorsOf(sb(), Arm, true), weak) {
		t.Error("Arm must allow SB's a=b=0")
	}
	if behaviorsContain(BehaviorsOf(sb(), SC, true), weak) {
		t.Error("SC must forbid SB's a=b=0")
	}
}

// Fig. 1: MP's a=1,b=0 is disallowed on x86 but allowed on Arm.
func TestFig1MP(t *testing.T) {
	weak := map[string]int{"t1.Y.0": 1, "t1.X.0": 0}
	if behaviorsContain(BehaviorsOf(mp(), X86, true), weak) {
		t.Error("x86 must forbid MP's a=1,b=0")
	}
	if !behaviorsContain(BehaviorsOf(mp(), Arm, true), weak) {
		t.Error("Arm must allow MP's a=1,b=0")
	}
}

// Fig. 9: the fence-mapped MP program forbids a=1,b=0 at the IR and Arm
// levels, matching x86.
func TestFig9MappedMP(t *testing.T) {
	weak := map[string]int{"t1.Y.0": 1, "t1.X.0": 0}
	irMP := MapX86ToIR(mp())
	if behaviorsContain(BehaviorsOf(irMP, LIMM, true), weak) {
		t.Error("LIMM must forbid the mapped MP's a=1,b=0")
	}
	armMP := MapIRToArm(irMP)
	if behaviorsContain(BehaviorsOf(armMP, Arm, true), weak) {
		t.Error("Arm must forbid the fully mapped MP's a=1,b=0")
	}
	// Dropping the fences (Fig. 2's broken translation) re-admits it.
	naked := &Program{Name: "MP-naked", Threads: [][]Op{
		{St("X", 1), St("Y", 1)},
		{Ld("Y"), Ld("X")},
	}}
	if !behaviorsContain(BehaviorsOf(naked, Arm, true), weak) {
		t.Error("unfenced Arm translation must exhibit the Fig. 2 bug")
	}
}

// Fig. 10: the DMBFF fences around RMWs forbid the listed outcomes on Arm,
// matching LIMM; removing them would re-allow the outcomes.
func TestFig10RMWFences(t *testing.T) {
	fig10a := &Program{Name: "Fig10a", Threads: [][]Op{
		{St("X", 1), RMWE("Y", 0, 2)},
		{St("Y", 1), RMWE("X", 0, 2)},
	}}
	// Disallowed outcome: X=Y=2. With expected-read RMWs the atomicity
	// axiom (common to every model, §6.2) forbids it at all three levels.
	for _, m := range []Model{LIMM, X86} {
		if _, bad := BehaviorsOf(fig10a, m, false)["X=2;Y=2"]; bad {
			t.Errorf("%s must forbid X=Y=2 in Fig10a", m.Name)
		}
	}
	if _, bad := BehaviorsOf(MapIRToArm(fig10a), Arm, false)["X=2;Y=2"]; bad {
		t.Error("mapped Arm must forbid X=Y=2 in Fig10a")
	}

	// Fig10b (SB with RMWs): a=b=0 is disallowed in LIMM and in the mapped
	// Arm program, but re-appears if the mapping omits the DMBFF fences —
	// the necessity half of Thm 7.4's precision claim.
	fig10b := &Program{Name: "Fig10b", Threads: [][]Op{
		{RMWE("X", 0, 2), Ld("Y")},
		{RMWE("Y", 0, 2), Ld("X")},
	}}
	weak := map[string]int{"t0.Y.0": 0, "t1.X.0": 0}
	if behaviorsContain(BehaviorsOf(fig10b, LIMM, true), weak) {
		t.Error("LIMM must forbid a=b=0 in Fig10b")
	}
	if behaviorsContain(BehaviorsOf(MapIRToArm(fig10b), Arm, true), weak) {
		t.Error("mapped Arm must forbid a=b=0 in Fig10b")
	}
	if !behaviorsContain(BehaviorsOf(fig10b, Arm, true), weak) {
		t.Error("Arm without the DMBFF fences must allow a=b=0 in Fig10b")
	}
}

// Theorem 7.3/7.4: the mapping schemes are correct on the named litmus
// programs at every stage (x86 -> IR -> Arm) and composed.
func TestMappingClassicTests(t *testing.T) {
	for _, p := range ClassicTests() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := CheckMapping(p, X86, MapX86ToIR, LIMM); err != nil {
				t.Errorf("x86->IR: %v", err)
			}
			ir := MapX86ToIR(p)
			if err := CheckMapping(ir, LIMM, MapIRToArm, Arm); err != nil {
				t.Errorf("IR->Arm: %v", err)
			}
			if err := CheckMapping(p, X86, func(q *Program) *Program {
				return MapIRToArm(MapX86ToIR(q))
			}, Arm); err != nil {
				t.Errorf("x86->Arm composed: %v", err)
			}
		})
	}
}

// Appendix B direction: Arm -> IR -> x86.
func TestMappingArmToX86(t *testing.T) {
	armTests := []*Program{
		{Name: "arm-mp-dmb", Threads: [][]Op{
			{St("X", 1), Fn(DMBST), St("Y", 1)},
			{Ld("Y"), Fn(DMBLD), Ld("X")},
		}},
		{Name: "arm-sb-dmbff", Threads: [][]Op{
			{St("X", 1), Fn(DMBFF), Ld("Y")},
			{St("Y", 1), Fn(DMBFF), Ld("X")},
		}},
		{Name: "arm-rmw", Threads: [][]Op{
			{RMW("X", 1), Ld("Y")},
			{RMW("Y", 1), Ld("X")},
		}},
	}
	for _, p := range armTests {
		if err := CheckMapping(p, Arm, func(q *Program) *Program {
			return MapIRToX86(MapArmToIR(q))
		}, X86); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// The precision argument of Thm 7.3: dropping either fence from the x86->IR
// mapping breaks it (MP distinguishes both).
func TestMappingPrecision(t *testing.T) {
	noFrm := func(p *Program) *Program {
		out := MapX86ToIR(p)
		for ti, th := range out.Threads {
			var nt []Op
			for _, o := range th {
				if o.Kind == OpFence && o.Fence == Frm {
					continue
				}
				nt = append(nt, o)
			}
			out.Threads[ti] = nt
		}
		return out
	}
	noFww := func(p *Program) *Program {
		out := MapX86ToIR(p)
		for ti, th := range out.Threads {
			var nt []Op
			for _, o := range th {
				if o.Kind == OpFence && o.Fence == Fww {
					continue
				}
				nt = append(nt, o)
			}
			out.Threads[ti] = nt
		}
		return out
	}
	if err := CheckMapping(mp(), X86, noFrm, LIMM); err == nil {
		t.Error("mapping without Frm should be unsound on MP")
	}
	if err := CheckMapping(mp(), X86, noFww, LIMM); err == nil {
		t.Error("mapping without Fww should be unsound on MP")
	}
}

// Exhaustive bounded mapping verification over all generated two-thread
// programs (the Agda-proof substitute).
func TestMappingExhaustive(t *testing.T) {
	max := 2
	if testing.Short() {
		max = 1
	}
	progs := GenerateX86Programs(max)
	t.Logf("checking %d generated programs", len(progs))
	for _, p := range progs {
		if err := CheckMapping(p, X86, func(q *Program) *Program {
			return MapIRToArm(MapX86ToIR(q))
		}, Arm); err != nil {
			t.Fatalf("%v", err)
		}
	}
}

// Fig. 11a: recompute the reordering table and compare with the paper.
func TestFig11aTable(t *testing.T) {
	if testing.Short() {
		t.Skip("table computation is exhaustive; skipped in -short mode")
	}
	got := ReorderTable()
	want := PaperReorderTable()
	if got != want {
		t.Errorf("computed table differs from the paper:\ncomputed:\n%s\npaper:\n%s",
			FormatTable(got), FormatTable(want))
	}
}

// Spot-check a few table cells cheaply (runs in -short mode too).
func TestFig11aSpotChecks(t *testing.T) {
	cases := []struct {
		a, b Cat
		want Verdict
	}{
		{CatRna, CatWna, Safe},
		{CatRna, CatRMW, Unsafe},
		{CatRna, CatFrm, Unsafe},
		{CatRna, CatFww, Safe},
		{CatWna, CatFrm, Safe},
		{CatWna, CatFww, Unsafe},
		{CatFww, CatRna, Safe},
		{CatFsc, CatRna, Unsafe},
		{CatFrm, CatFrm, Equal},
	}
	for _, c := range cases {
		got, witness := CheckReorder(c.a, c.b)
		if got != c.want {
			t.Errorf("reorder %s·%s: got %s, want %s (%s)", c.a, c.b, got, c.want, witness)
		}
	}
}

// Fig. 11b: the six elimination rules are sound with their listed fences
// under the paper's behavior definition (final memory values, Thm 7.5).
func TestFig11bEliminations(t *testing.T) {
	sound := []struct {
		rule  Elim
		fence Fence
	}{
		{ElimRAR, FenceNone},
		{ElimRAW, FenceNone},
		{ElimWAW, FenceNone},
		{ElimFRAR, Frm},
		{ElimFRAR, Fww},
		{ElimFRAW, Fsc},
		{ElimFRAW, Fww},
		{ElimFWAW, Frm},
		{ElimFWAW, Fww},
	}
	for _, c := range sound {
		if err := CheckElimination(c.rule, c.fence, false); err != nil {
			t.Errorf("rule %d fence %d should be sound: %v", c.rule, c.fence, err)
		}
	}
}

// The adjacent eliminations remain sound even when every load's value is
// observable (the stronger criterion our pipeline's GVN/DSE rely on).
func TestFig11bAdjacentStrong(t *testing.T) {
	for _, rule := range []Elim{ElimRAR, ElimRAW, ElimWAW} {
		if err := CheckElimination(rule, FenceNone, true); err != nil {
			t.Errorf("adjacent rule %d should be sound with observable reads: %v", rule, err)
		}
	}
}

// Under the stronger observation model (read values observable — i.e. read
// results may flow into final memory), eliminating a write *across* a Fww
// is distinguishable: the eliminated write anchored a store-store ordering
// that a message-passing reader can detect. This documents why the
// pipeline's DSE only crosses fences for accesses it can pair exactly and
// why Thm 7.5's Behav is final-values-only.
func TestFig11bStrongObservation(t *testing.T) {
	if err := CheckElimination(ElimFWAW, Fww, true); err == nil {
		t.Error("expected a counterexample for F-WAW across Fww with observable reads")
	} else {
		t.Logf("counterexample (as expected): %v", err)
	}
}

// §7.2: fence merging and strengthening.
func TestFenceMerging(t *testing.T) {
	cases := []struct{ f1, f2, merged Fence }{
		{Frm, Frm, Frm},
		{Fww, Fww, Fww},
		{Fsc, Fsc, Fsc},
		{Frm, Fww, Fsc},
		{Fww, Frm, Fsc},
		{Frm, Fsc, Fsc},
		{Fsc, Fww, Fsc},
	}
	for _, c := range cases {
		if err := CheckFenceMerge(c.f1, c.f2, c.merged); err != nil {
			t.Errorf("%v", err)
		}
	}
	// Weakening is not merging: replacing Fsc;Fsc by Frm must fail.
	if err := CheckFenceMerge(Fsc, Fsc, Frm); err == nil {
		t.Error("weakening Fsc;Fsc to Frm should be unsound")
	}
}

// §7.2: speculative load introduction is sound on LIMM.
func TestSpeculativeLoadIntroduction(t *testing.T) {
	if err := CheckLoadIntroduction(); err != nil {
		t.Error(err)
	}
}

// LIMM allows MP's weak outcome without fences (non-atomics are unordered)
// — this is what licenses LLVM's reorderings (§6.3).
func TestLIMMNonAtomicsUnordered(t *testing.T) {
	weak := map[string]int{"t1.Y.0": 1, "t1.X.0": 0}
	if !behaviorsContain(BehaviorsOf(mp(), LIMM, true), weak) {
		t.Error("LIMM must allow MP's a=1,b=0 for plain na accesses")
	}
}

func TestProgramPrinting(t *testing.T) {
	p := MapX86ToIR(mp())
	s := p.String()
	for _, want := range []string{"Fww", "W(X,1)", "Frm", "R(Y)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

// Property tests on the relation algebra underpinning every model.

// transitiveClosure computes r+ in place: the Floyd–Warshall recurrence with
// whole-row ORs (row i absorbs row k whenever i reaches k). The checker
// runs the same closure fused into relation.acyclic.
func (r *relation) transitiveClosure() {
	for k := 0; k < r.n; k++ {
		kw, kb := k>>6, uint64(1)<<(uint(k)&63)
		krow := r.bits[k*r.w : (k+1)*r.w]
		for i := 0; i < r.n; i++ {
			if i == k || r.bits[i*r.w+kw]&kb == 0 {
				continue
			}
			irow := r.bits[i*r.w : (i+1)*r.w]
			for j, x := range krow {
				irow[j] |= x
			}
		}
	}
}

func TestRelationClosureProperties(t *testing.T) {
	prop := func(edges []uint16, nRaw uint8) bool {
		// n crosses the 64-bit word boundary often enough (via the %70) to
		// exercise multi-word rows in the packed representation.
		n := int(nRaw%70) + 2
		r := newRel(n)
		ref := newBoolRel(n)
		for _, e := range edges {
			a := int(e>>8) % n
			b := int(e&0xFF) % n
			if a != b {
				r.set(a, b)
				ref.set(a, b)
			}
		}
		// acyclic() must agree with the reference closure+irreflexivity
		// (run on a copy, since acyclic is destructive).
		probe := newRel(n)
		probe.copyFrom(r)
		refClosed := newBoolRel(n)
		refClosed.union(ref)
		refClosed.transitiveClosure()
		if probe.acyclic() != refClosed.irreflexive() {
			return false
		}
		r.transitiveClosure()
		ref.transitiveClosure()
		// The packed closure equals the reference closure.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if r.has(a, b) != ref.has(a, b) {
					return false
				}
			}
		}
		// Idempotence.
		snapshot := append([]uint64(nil), r.bits...)
		r.transitiveClosure()
		for i := range r.bits {
			if r.bits[i] != snapshot[i] {
				return false
			}
		}
		// Transitivity: has(a,b) && has(b,c) => has(a,c).
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if !r.has(a, b) {
					continue
				}
				for c := 0; c < n; c++ {
					if r.has(b, c) && !r.has(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every SC behavior is allowed by x86, Arm and LIMM (the weak
// models only ever ADD behaviors), on random small programs.
func TestWeakModelsContainSC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []Op{Ld("X"), Ld("Y"), St("X", 1), St("Y", 1), St("X", 2), RMW("Y", 3), Fn(Fsc)}
	for trial := 0; trial < 40; trial++ {
		var threads [][]Op
		for t := 0; t < 2; t++ {
			var th []Op
			for i := 0; i < 1+rng.Intn(2); i++ {
				th = append(th, ops[rng.Intn(len(ops))])
			}
			threads = append(threads, th)
		}
		p := &Program{Name: "rand", Threads: threads}
		scB := BehaviorsOf(p, SC, true)
		for _, m := range []Model{X86, Arm, LIMM} {
			mb := BehaviorsOf(p, m, true)
			for k := range scB {
				if _, ok := mb[k]; !ok {
					t.Fatalf("%s drops an SC behavior of %s: %s", m.Name, p, k)
				}
			}
		}
	}
}

// Property: x86 behaviors are a subset of Arm behaviors for fence-free
// programs (TSO is stronger than the Arm model).
func TestX86StrongerThanArm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []Op{Ld("X"), Ld("Y"), St("X", 1), St("Y", 1)}
	for trial := 0; trial < 40; trial++ {
		var threads [][]Op
		for t := 0; t < 2; t++ {
			var th []Op
			for i := 0; i < 1+rng.Intn(2); i++ {
				th = append(th, ops[rng.Intn(len(ops))])
			}
			threads = append(threads, th)
		}
		p := &Program{Name: "rand", Threads: threads}
		xb := BehaviorsOf(p, X86, true)
		ab := BehaviorsOf(p, Arm, true)
		for k := range xb {
			if _, ok := ab[k]; !ok {
				t.Fatalf("x86 behavior not in Arm for %s: %s", p, k)
			}
		}
	}
}

// Appendix A: Arm release/acquire half-fences restore message passing.
func TestAppendixAReleaseAcquire(t *testing.T) {
	weak := map[string]int{"t1.Y.0": 1, "t1.X.0": 0}
	relAcq := &Program{Name: "MP+rel+acq", Threads: [][]Op{
		{St("X", 1), StR("Y", 1)},
		{LdA("Y"), Ld("X")},
	}}
	if behaviorsContain(BehaviorsOf(relAcq, Arm, true), weak) {
		t.Error("Arm must forbid MP's weak outcome with release store + acquire load")
	}
	// Release alone is not enough: the reader can still reorder its loads.
	relOnly := &Program{Name: "MP+rel", Threads: [][]Op{
		{St("X", 1), StR("Y", 1)},
		{Ld("Y"), Ld("X")},
	}}
	if !behaviorsContain(BehaviorsOf(relOnly, Arm, true), weak) {
		t.Error("Arm must still allow the weak outcome with only a release store")
	}
	// Acquire alone is likewise insufficient.
	acqOnly := &Program{Name: "MP+acq", Threads: [][]Op{
		{St("X", 1), St("Y", 1)},
		{LdA("Y"), Ld("X")},
	}}
	if !behaviorsContain(BehaviorsOf(acqOnly, Arm, true), weak) {
		t.Error("Arm must still allow the weak outcome with only an acquire load")
	}
}
