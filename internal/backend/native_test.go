package backend_test

import (
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/mc"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/rt"
	"lasagne/internal/sim"
	"lasagne/internal/validate"
	"lasagne/internal/x86"
)

func run(t *testing.T, what string, bin *obj.File) string {
	t.Helper()
	mach, err := sim.NewMachine(bin)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return mach.Out.String()
}

// TestRegAllocUnusedFirstParam calls a function whose first parameter is
// never read. Both backends still write its home in the prologue, so
// each lifter, which reads the parameter count off the argument registers
// read at entry, sees both parameters: the lifted x86-64 signature has
// two, and the translations in both directions and the differential
// against the x86-64 build agree with the native run.
func TestRegAllocUnusedFirstParam(t *testing.T) {
	m := ir.NewModule("t")
	rt.Declare(m)
	second := m.NewFunc("second", ir.Signature(ir.I64, ir.I64, ir.I64))
	b := ir.NewBuilder(second.NewBlock("entry"))
	b.Ret(b.Mul(second.Params[1], ir.I64Const(3)))
	f := m.NewFunc("main", ir.Signature(ir.Void))
	b = ir.NewBuilder(f.NewBlock("entry"))
	r := b.Call(second, ir.I64Const(1000), ir.I64Const(14))
	b.Call(m.Func("__print_int"), r)
	b.Call(m.Func("__print_int"), b.Call(second, r, ir.I64Const(-5)))
	b.Ret(nil)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	x86, err := backend.Compile(m.Clone(), "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	arm, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	want := "42\n-15\n"
	if got := run(t, "x86-64", x86); got != want {
		t.Fatalf("x86-64 output %q, want %q", got, want)
	}
	if got := run(t, "arm64", arm); got != want {
		t.Fatalf("arm64 output %q, want %q", got, want)
	}
	lifted, err := lifter.Lift(x86)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(lifted.Func("second").Sig.Params); n != 2 {
		t.Fatalf("lifted x86-64 @second has %d parameters, want 2", n)
	}
	fwd, _, _, err := core.Translate(x86, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, "x86→Arm", fwd); got != want {
		t.Fatalf("x86→Arm output %q, want %q", got, want)
	}
	back, _, _, err := core.TranslateArmToX86(arm, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, "Arm→x86", back); got != want {
		t.Fatalf("Arm→x86 output %q, want %q", got, want)
	}
	if res := validate.Differential(x86, arm, validate.DiffOptions{Seeds: 4}); !res.Ok() {
		t.Fatal(res.Err())
	}
	if res := validate.Differential(back, arm, validate.DiffOptions{Seeds: 4}); !res.Ok() {
		t.Fatal(res.Err())
	}
}

// TestNativeArmMatchesX86 compiles each program once to optimized IR and
// then with both backends: the native Arm64 build must print what the
// x86-64 build prints, on every suite kernel and GenProgram seeds 0-199.
func TestNativeArmMatchesX86(t *testing.T) {
	check := func(name, src string) {
		t.Helper()
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Optimize(m); err != nil {
			t.Fatal(err)
		}
		x86, err := backend.Compile(m.Clone(), "x86-64")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arm, err := backend.Compile(m, "arm64")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := run(t, name+" x86-64", x86)
		if got := run(t, name+" arm64", arm); got != want {
			t.Fatalf("%s: arm64 output %q, x86-64 %q", name, got, want)
		}
	}
	for _, b := range append(phoenix.All(), phoenix.LockFree()...) {
		check(b.Name, b.Source)
	}
	for seed := int64(0); seed < 200; seed++ {
		check("gen", validate.GenProgram(seed))
		if t.Failed() {
			t.Fatalf("GenProgram(%d)", seed)
		}
	}
}

// TestX86BranchesFollowTheirCompare requires every conditional jump in the
// suite's x86-64 builds to come right after the cmp or test that sets its
// flags, so no flag is ever read across a block boundary.
func TestX86BranchesFollowTheirCompare(t *testing.T) {
	for _, b := range append(phoenix.All(), phoenix.LockFree()...) {
		m, err := minic.Compile(b.Name, b.Source)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Optimize(m); err != nil {
			t.Fatal(err)
		}
		bin, err := backend.Compile(m, "x86-64")
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		streams, err := mc.Disassemble(bin)
		if err != nil {
			t.Fatal(err)
		}
		jccs := 0
		for _, s := range streams {
			for i, in := range s.Insts {
				if in.Op != x86.JCC {
					continue
				}
				jccs++
				if i == 0 {
					t.Errorf("%s @%s: jcc at %#x starts the function", b.Name, s.Sym.Name, in.Addr)
					continue
				}
				switch prev := s.Insts[i-1]; prev.Op {
				case x86.CMP, x86.TEST:
				default:
					t.Errorf("%s @%s: jcc at %#x follows %s", b.Name, s.Sym.Name, in.Addr, prev.String())
				}
			}
		}
		if jccs == 0 {
			t.Errorf("%s: no conditional jump", b.Name)
		}
	}
}

// TestTranslatedInnerLoopLength counts the instructions of the innermost
// loop of matrix_multiply's translated worker (x86→Arm, Default()). The
// lifters keep XMM/D registers as i64 slots, so the loop carries its
// double accumulator in a GP register and bitcasts it each way per
// iteration; each bitcast must be one fmov between the value's register
// and the result's, with no GP copy in front of it.
func TestTranslatedInnerLoopLength(t *testing.T) {
	b := phoenix.Get("matrix_multiply")
	m, err := minic.Compile(b.Name, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	x86Bin, err := backend.Compile(m, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	out, _, _, err := core.Translate(x86Bin, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	text := out.Section(".text")
	var insts []arm64.Inst
	for _, s := range out.FuncSymbols() {
		if s.Name == "worker" {
			insts, err = arm64.DecodeAll(text.Data[s.Addr-text.Addr:s.Addr-text.Addr+s.Size], s.Addr)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The innermost loop is the shortest backward branch's range.
	lo, hi := uint64(0), uint64(0)
	for _, in := range insts {
		tgt, ok := in.BranchTarget()
		if ok && in.Op != arm64.BL && tgt <= in.Addr && (hi == 0 || in.Addr-tgt < hi-lo) {
			lo, hi = tgt, in.Addr
		}
	}
	if hi == 0 {
		t.Fatal("no loop in worker")
	}
	var loop []arm64.Inst
	for _, in := range insts {
		if in.Addr >= lo && in.Addr <= hi {
			loop = append(loop, in)
		}
	}
	const maxLen = 21
	if len(loop) > maxLen {
		t.Errorf("inner loop runs %d instructions, want at most %d", len(loop), maxLen)
	}
	for i, in := range loop[1:] {
		if prev := loop[i]; in.Op == arm64.FMOVTOF && prev.Op == arm64.ORR && prev.Rn == arm64.XZR && prev.Rd == in.Rn {
			t.Errorf("fmov at %#x reads a copy made by the mov before it", in.Addr)
		}
	}
	if t.Failed() {
		for _, in := range loop {
			t.Logf("%#x  %s", in.Addr, in.String())
		}
	}
}
