package refine

import (
	"fmt"
	"slices"
	"testing"

	"lasagne/internal/armlifter"
	"lasagne/internal/backend"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/minic"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/validate"
)

// referenceCleanup is cleanupFunc as a fixpoint of full rescans, kept as the
// reference for the worklist.
func referenceCleanup(f *ir.Func) int {
	removed := 0
	for {
		uses := referenceUses(f)
		n := 0
		for _, b := range f.Blocks {
			for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
				if in.HasSideEffects() || ir.IsVoid(in.Ty) || in.Op == ir.OpPhi {
					continue
				}
				if len(uses[in]) == 0 {
					b.Remove(in)
					n++
				}
			}
		}
		removed += n
		if n == 0 {
			return removed
		}
	}
}

// referenceUses records every operand, constants and globals included.
func referenceUses(f *ir.Func) map[ir.Value][]*ir.Instr {
	u := make(map[ir.Value][]*ir.Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				u[a] = append(u[a], in)
			}
		}
	}
	return u
}

// checkCleanup runs cleanupFunc and referenceCleanup on two copies of f's
// body and requires the same result; f itself is left as it was.
func checkCleanup(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	orig := f.Blocks
	work, ref := f.CloneBody(), f.CloneBody()
	workAt, refAt := positions(work), positions(ref)
	f.RestoreBody(work)
	got := cleanupFunc(f)
	f.RestoreBody(ref)
	want := referenceCleanup(f)
	f.RestoreBody(orig)
	if got != want || !slices.Equal(kept(work, workAt), kept(ref, refAt)) {
		f.RestoreBody(work)
		gotText := f.String()
		f.RestoreBody(ref)
		wantText := f.String()
		f.RestoreBody(orig)
		t.Fatalf("%s: cleanup of %s removed %d, the fixpoint reference %d:\n--- worklist ---\n%s--- reference ---\n%s",
			where, f.Name, got, want, gotText, wantText)
	}
}

// positions numbers the instructions of a body in layout order.
func positions(blocks []*ir.Block) map[*ir.Instr]int {
	at := map[*ir.Instr]int{}
	for _, b := range blocks {
		for _, in := range b.Instrs {
			at[in] = len(at)
		}
	}
	return at
}

// kept lists, by their positions before a removal pass, the instructions
// still in the body.
func kept(blocks []*ir.Block, at map[*ir.Instr]int) []int {
	var out []int
	for _, b := range blocks {
		for _, in := range b.Instrs {
			out = append(out, at[in])
		}
	}
	return out
}

// checkParamUses requires paramUses to list exactly the uses a full use map
// records for each parameter, in the same order.
func checkParamUses(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	got, full := paramUses(f), referenceUses(f)
	for i, p := range f.Params {
		want := full[p]
		if len(got[i]) != len(want) {
			t.Fatalf("%s: %s param %d: %d uses, want %d", where, f.Name, i, len(got[i]), len(want))
		}
		for k := range want {
			if got[i][k] != want[k] {
				t.Fatalf("%s: %s param %d: use %d differs", where, f.Name, i, k)
			}
		}
	}
}

// walkRefine runs Run's rounds over m, checking cleanup and parameter uses
// against their references at every stage. twin is a second, independent
// lift of the same object: it runs the rounds with the previous,
// rewrite-at-a-time peephole and promotion, and must print identically to
// m after every step.
func walkRefine(t *testing.T, where string, m, twin *ir.Module) {
	t.Helper()
	check := func(stage string) {
		for _, f := range m.Funcs {
			if !f.External && len(f.Blocks) > 0 {
				checkCleanup(t, where+", "+stage, f)
				checkParamUses(t, where+", "+stage, f)
			}
		}
	}
	same := func(stage string, n, want int) {
		if got, ref := m.String(), twin.String(); n != want || got != ref {
			t.Fatalf("%s, %s: batched rewrites (%d) differ from the reference (%d):\n--- batched ---\n%s--- reference ---\n%s",
				where, stage, n, want, got, ref)
		}
	}
	for round := 0; ; round++ {
		check(fmt.Sprintf("round %d before peephole", round))
		n := Peephole(m)
		want := 0
		for _, f := range twin.Funcs {
			want += referencePeepholeFunc(f)
		}
		same(fmt.Sprintf("round %d peephole", round), n, want)
		check(fmt.Sprintf("round %d after peephole", round))
		cleanupDeadCasts(m)
		cleanupDeadCasts(twin)
		p := PromoteParams(m)
		same(fmt.Sprintf("round %d promotion", round), p, referencePromoteParams(twin, nil))
		if n+p == 0 {
			break
		}
	}
	check("before the final cleanup")
}

// TestCleanupMatchesReference checks the worklist cleanup, the
// parameter-only use lists and the batched peephole and promotion against
// their straightforward forms on every
// suite kernel and GenProgram seeds 0..199, lifted from both x86-64 and
// Arm64, at every stage of refinement.
func TestCleanupMatchesReference(t *testing.T) {
	walk := func(name, src string) {
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := opt.Optimize(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x86, err := backend.Compile(m.Clone(), "x86-64")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arm, err := backend.Compile(m, "arm64")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var lx, la [2]*ir.Module
		for i := range lx {
			if lx[i], err = lifter.Lift(x86); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if la[i], err = armlifter.Lift(arm); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		walkRefine(t, name+" (x86-64)", lx[0], lx[1])
		walkRefine(t, name+" (arm64)", la[0], la[1])
	}
	var suite []phoenix.Benchmark
	suite = append(suite, phoenix.All()...)
	suite = append(suite, phoenix.LockFree()...)
	for _, b := range suite {
		walk(b.Name, b.Source)
	}
	for seed := int64(0); seed < 200; seed++ {
		walk(fmt.Sprintf("GenProgram(%d)", seed), validate.GenProgram(seed))
	}
}

// TestCleanupRemovesDeadChains pins the worklist's reach: removing a dead
// inttoptr frees the add feeding it, which frees the ptrtoint and then the
// alloca, in one call — even though the chain is defined in a block laid
// out after its dead user.
func TestCleanupRemovesDeadChains(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Signature(ir.Void))
	entry, use, def := f.NewBlock("entry"), f.NewBlock("use"), f.NewBlock("def")
	b := ir.NewBuilder(entry)
	stack := b.Alloca(ir.ArrayOf(ir.I8, 16))
	b.Br(def)
	b.SetBlock(def)
	tos := b.PtrToInt(stack, ir.I64)
	sum := b.Add(tos, ir.I64Const(8))
	b.Br(use)
	b.SetBlock(use)
	b.IntToPtr(sum, ir.PointerTo(ir.I64))
	b.Ret(nil)
	checkCleanup(t, "dead chain", f)
	if n := cleanupFunc(f); n != 4 {
		t.Fatalf("removed %d instructions, want 4:\n%s", n, f)
	}
}
