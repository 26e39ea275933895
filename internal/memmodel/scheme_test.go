package memmodel

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"lasagne/internal/diag"
)

// TestSchemeRules pins each rule on every op it can meet against Fig. 8 and
// Appendix B written out by hand, so a rule that drops or changes a fence
// fails here even though its allocating wrapper shares it.
func TestSchemeRules(t *testing.T) {
	rmw := RMW("X", 2)
	rmw.HasExp, rmw.Exp = true, 1
	cases := []struct {
		s    Scheme
		in   Op
		want []Op
	}{
		{X86ToIR, Ld("X"), []Op{Ld("X"), Fn(Frm)}},
		{X86ToIR, St("X", 1), []Op{Fn(Fww), St("X", 1)}},
		{X86ToIR, rmw, []Op{rmw}},
		{X86ToIR, Fn(MFENCE), []Op{Fn(Fsc)}},
		{IRToArm, Ld("X"), []Op{Ld("X")}},
		{IRToArm, St("X", 1), []Op{St("X", 1)}},
		{IRToArm, rmw, []Op{Fn(DMBFF), rmw, Fn(DMBFF)}},
		{IRToArm, Fn(Frm), []Op{Fn(DMBLD)}},
		{IRToArm, Fn(Fww), []Op{Fn(DMBST)}},
		{IRToArm, Fn(Fsc), []Op{Fn(DMBFF)}},
		{IRToX86, Ld("X"), []Op{Ld("X")}},
		{IRToX86, St("X", 1), []Op{St("X", 1)}},
		{IRToX86, rmw, []Op{rmw}},
		{IRToX86, Fn(Frm), nil},
		{IRToX86, Fn(Fww), nil},
		{IRToX86, Fn(Fsc), []Op{Fn(MFENCE)}},
		{ArmToIR, Ld("X"), []Op{Ld("X")}},
		{ArmToIR, St("X", 1), []Op{St("X", 1)}},
		{ArmToIR, rmw, []Op{rmw}},
		{ArmToIR, Fn(DMBLD), []Op{Fn(Frm)}},
		{ArmToIR, Fn(DMBST), []Op{Fn(Fww)}},
		{ArmToIR, Fn(DMBFF), []Op{Fn(Fsc)}},
		{X86ToIR.Then(IRToArm), Ld("X"), []Op{Ld("X"), Fn(DMBLD)}},
		{X86ToIR.Then(IRToArm), St("X", 1), []Op{Fn(DMBST), St("X", 1)}},
		{X86ToIR.Then(IRToArm), rmw, []Op{Fn(DMBFF), rmw, Fn(DMBFF)}},
		{X86ToIR.Then(IRToArm), Fn(MFENCE), []Op{Fn(DMBFF)}},
		{ArmToIR.Then(IRToX86), Fn(DMBLD), nil},
		{ArmToIR.Then(IRToX86), Fn(DMBFF), []Op{Fn(MFENCE)}},
	}
	prefix := []Op{St("Z", 9)}
	for _, c := range cases {
		got := c.s.Rule(slices.Clone(prefix), c.in)
		if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], c.want) {
			t.Errorf("%s rule on %v: got %v after the prefix, want %v", c.s.Suffix, c.in, got[1:], c.want)
		}
	}
	if got := X86ToIR.Then(IRToArm).Suffix; got != "→IR→Arm" {
		t.Errorf("composed suffix %q, want →IR→Arm", got)
	}
}

// sameMapped fails t unless the scratch target got has the threads, Init and
// locations of want (names aside: the scratch target keeps its source's
// name). It then appends to each of got's threads in turn and checks that no
// other thread changed: a thread window that is not capacity-capped would
// let thread i's append overwrite thread i+1.
func sameMapped(t *testing.T, what string, got, want *Program) {
	t.Helper()
	if len(got.Threads) != len(want.Threads) {
		t.Fatalf("%s: %d threads, want %d", what, len(got.Threads), len(want.Threads))
	}
	for i := range want.Threads {
		if !slices.Equal(got.Threads[i], want.Threads[i]) {
			t.Fatalf("%s: thread %d = %v, want %v", what, i, got.Threads[i], want.Threads[i])
		}
	}
	if !maps.Equal(got.Init, want.Init) {
		t.Fatalf("%s: Init %v, want %v", what, got.Init, want.Init)
	}
	if g, w := got.Locs(), want.Locs(); !slices.Equal(g, w) {
		t.Fatalf("%s: Locs %v, want %v", what, g, w)
	}
	for i := range got.Threads {
		_ = append(got.Threads[i], St("W", 7))
		for j := range want.Threads {
			if !slices.Equal(got.Threads[j], want.Threads[j]) {
				t.Fatalf("%s: appending to thread %d changed thread %d to %v", what, i, j, got.Threads[j])
			}
		}
	}
}

// TestScratchMappingMatchesWrappers maps every bound-3 program, in campaign
// order, into one reused scratch with the composed x86→IR→Arm rule and
// compares each target with MapIRToArm(MapX86ToIR(p)). Other shapes are
// interleaved so the reuse sees thread counts, Init maps and thread lengths
// change under it: a 4-thread IRIW, a program with Init, a source whose
// location cache was filled first, and a longer-then-shorter thread pair.
// sameMapped also fills the target's own location cache every time, so a
// cache surviving into the next program would show as wrong Locs. Every
// 64th program is also checked end to end against CheckMapping.
func TestScratchMappingMatchesWrappers(t *testing.T) {
	withInit := &Program{Name: "init", Init: map[string]int{"Z": 3}, Threads: [][]Op{
		{Ld("Z"), St("X", 1)},
		{Ld("X"), Fn(MFENCE), St("Z", 4)},
	}}
	cached := &Program{Name: "cached", Threads: [][]Op{{St("Y", 1), Ld("X")}, {RMW("X", 2)}}}
	cached.Locs()
	longShort := &Program{Name: "long-short", Threads: [][]Op{
		{Ld("X"), St("Y", 1), RMW("X", 2), Fn(MFENCE), Ld("Y")},
		{St("X", 1)},
	}}
	extras := []*Program{iriw(), withInit, cached, longShort}

	x86ToArm := X86ToIR.Then(IRToArm)
	sc := NewCheckScratch()
	check := func(p *Program, verdict bool) {
		want := MapIRToArm(MapX86ToIR(p))
		sameMapped(t, p.Name, sc.mapped(p, x86ToArm), want)
		if !verdict {
			return
		}
		got := CheckSchemeScratch(p, X86, x86ToArm, Arm, Budget{}, sc)
		ref := CheckMapping(p, X86, func(q *Program) *Program { return MapIRToArm(MapX86ToIR(q)) }, Arm)
		if !sameErr(got, ref) {
			t.Fatalf("%s: CheckSchemeScratch says %v, CheckMapping says %v", p.Name, got, ref)
		}
	}
	for i, p := range GenerateX86Programs(3) {
		check(p, i%64 == 0)
		if i%997 == 0 {
			for _, e := range extras {
				check(e, true)
				check(p, false)
			}
		}
	}
}

// TestReverseSchemesMatchWrappers covers the Appendix B rules the same way
// on the classic tests, through one reused scratch: IR→x86 on their IR
// images, Arm→IR on their Arm images, and the Arm→IR→x86 chain composed
// per op.
func TestReverseSchemesMatchWrappers(t *testing.T) {
	sc := NewCheckScratch()
	armToX86 := ArmToIR.Then(IRToX86)
	for _, p := range ClassicTests() {
		ir := MapX86ToIR(p)
		arm := MapIRToArm(ir)
		sameMapped(t, p.Name+" IR→x86", sc.mapped(ir, IRToX86), MapIRToX86(ir))
		sameMapped(t, p.Name+" Arm→IR", sc.mapped(arm, ArmToIR), MapArmToIR(arm))
		sameMapped(t, p.Name+" Arm→IR→x86", sc.mapped(arm, armToX86), MapIRToX86(MapArmToIR(arm)))
	}
}

// sameErr reports whether two check results agree, error text included.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestSchemeScratchBudget checks the scratch limiter across checks. Budgets
// growing from one visit cut the source fold, then the target fold (the
// scheme doubles every load, so the target has more enumeration nodes). Each
// cut-off check must report CheckMappingScratch's error, target name
// included, and leave nothing behind that changes the next, roomier check
// on the same scratch.
func TestSchemeScratchBudget(t *testing.T) {
	sc := NewCheckScratch()
	dupLoads := Scheme{"→dup", func(dst []Op, o Op) []Op {
		if o.Kind == OpLoad {
			dst = append(dst, o)
		}
		return append(dst, o)
	}}
	p := iriw()
	roomy := Budget{Ctx: context.Background()}
	wantRoomy := CheckMappingScratch(p, X86, dupLoads.Map, X86, roomy, nil)
	if errors.Is(wantRoomy, diag.ErrBudgetExceeded) {
		t.Fatalf("context-only budget cut the check off: %v", wantRoomy)
	}
	targetCut := false
	for n := int64(1); ; n++ {
		b := Budget{Ctx: roomy.Ctx, MaxVisits: n}
		got := CheckSchemeScratch(p, X86, dupLoads, X86, b, sc)
		if want := CheckMappingScratch(p, X86, dupLoads.Map, X86, b, nil); !sameErr(got, want) {
			t.Fatalf("MaxVisits %d: got %v, want %v", n, got, want)
		}
		if !errors.Is(got, diag.ErrBudgetExceeded) {
			break
		}
		targetCut = targetCut || strings.HasPrefix(got.Error(), "checking IRIW→dup under x86")
		if err := CheckSchemeScratch(p, X86, dupLoads, X86, roomy, sc); !sameErr(err, wantRoomy) {
			t.Fatalf("after a check cut off at %d visits: %v, want %v", n, err, wantRoomy)
		}
	}
	if !targetCut {
		t.Fatal("no budget cut off the target fold")
	}
}
