package armlifter

import (
	"strings"
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/backend"
	"lasagne/internal/ir"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/sim"
)

// armRoundTrip compiles minic source to an Arm64 binary, lifts it back to
// IR, and verifies the lifted IR (and, optionally after optimization, the
// regenerated x86-64 binary) reproduces the original output — the full
// Appendix B weak-to-strong direction.
func armRoundTrip(t *testing.T, src string) *ir.Module {
	t.Helper()
	orig, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(orig); err != nil {
		t.Fatal(err)
	}
	armBin, err := backend.Compile(orig, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.NewMachine(armBin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatalf("arm run: %v", err)
	}
	want := mach.Out.String()

	lifted, err := Lift(armBin)
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	lip := ir.NewInterp(lifted)
	if _, err := lip.Run("main"); err != nil {
		t.Fatalf("lifted run: %v\n%s", err, lifted)
	}
	if got := lip.Out.String(); got != want {
		t.Fatalf("lifted output %q, want %q\n%s", got, want, lifted)
	}

	// Re-optimize and compile down to x86-64 (the Fsc->MFENCE direction).
	if err := opt.RunPipeline(lifted, opt.StandardPipeline, true); err != nil {
		t.Fatalf("opt: %v", err)
	}
	x86Bin, err := backend.Compile(lifted, "x86-64")
	if err != nil {
		t.Fatalf("x86 compile: %v", err)
	}
	xm, err := sim.NewMachine(x86Bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xm.Run(); err != nil {
		t.Fatalf("x86 run: %v", err)
	}
	if got := xm.Out.String(); got != want {
		t.Fatalf("x86 output %q, want %q", got, want)
	}
	return lifted
}

func TestArmLiftArithmetic(t *testing.T) {
	armRoundTrip(t, `
int main() {
  int a = 12345;
  print_int(a * 7 - 11);
  print_int(a / 37);
  print_int(a % 37);
  print_int((a ^ 0xFF) & 0x3FF);
  print_int(a << 3);
  print_int((0 - a) >> 2);
  return 0;
}`)
}

func TestArmLiftControlFlowAndCalls(t *testing.T) {
	armRoundTrip(t, `
int gcd(int a, int b) {
  while (b != 0) {
    int tmp = a % b;
    a = b;
    b = tmp;
  }
  return a;
}
int main() {
  print_int(gcd(1071, 462));
  int i;
  int s = 0;
  for (i = 1; i <= 20; i = i + 1) if (i % 3 != 0) s = s + i * i;
  print_int(s);
  return 0;
}`)
}

func TestArmLiftGlobalsAndDoubles(t *testing.T) {
	m := armRoundTrip(t, `
double acc[16];
int n;
double series(int k) {
  double s = 0.0;
  int i;
  for (i = 1; i <= k; i = i + 1) s = s + 1.0 / (double)i;
  return s;
}
int main() {
  n = 16;
  int i;
  for (i = 0; i < n; i = i + 1) acc[i] = series(i + 1);
  print_float(acc[15]);
  print_int((int)(acc[7] * 1000.0));
  return 0;
}`)
	if m.Global("acc") == nil || m.Global("n") == nil {
		t.Fatal("globals not rediscovered")
	}
}

func TestArmLiftAtomicIdioms(t *testing.T) {
	lifted := armRoundTrip(t, `
int ctr;
int main() {
  atomic_add(&ctr, 5);
  print_int(atomic_add(&ctr, 3));
  print_int(atomic_cas(&ctr, 8, 42));
  print_int(ctr);
  fence();
  return 0;
}`)
	text := lifted.String()
	for _, want := range []string{"atomicrmw add", "cmpxchg", "fence.sc"} {
		if !strings.Contains(text, want) {
			t.Fatalf("lifted IR missing %q (LL/SC idiom not recognized?)\n%s", want, text)
		}
	}
	// The DMB fences around the idiom lift to Fsc; the x86 backend then
	// emits MFENCEs for them.
}

func TestArmLiftThreads(t *testing.T) {
	armRoundTrip(t, `
int total;
void worker(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) atomic_add(&total, i + 1);
}
int main() {
  spawn(worker, 5);
  spawn(worker, 10);
  join();
  print_int(total);
  return 0;
}`)
}

func TestArmLiftFenceMapping(t *testing.T) {
	// A hand-built IR module with all three fence kinds, compiled to Arm,
	// must lift back with DMBLD->Frm, DMBST->Fww, DMBFF->Fsc.
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.Void))
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Store(ir.I64Const(1), g)
	b.Fence(ir.FenceWW)
	b.Store(ir.I64Const(2), g)
	v := b.Load(g)
	b.Fence(ir.FenceRM)
	_ = v
	b.Fence(ir.FenceSC)
	b.Ret(nil)

	armBin, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := Lift(armBin)
	if err != nil {
		t.Fatal(err)
	}
	text := lifted.String()
	for _, want := range []string{"fence.ww", "fence.rm", "fence.sc"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in lifted IR:\n%s", want, text)
		}
	}
}

func TestArmLiftRejectsWrongArch(t *testing.T) {
	orig, _ := minic.Compile("t", "int main() { return 0; }")
	bin, err := backend.Compile(orig, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lift(bin); err == nil {
		t.Fatal("expected arch error")
	}
}

// A function that ends in a conditional branch has no fall-through block:
// Lift reports it as an error instead of panicking.
func TestArmLiftCondBranchAtEnd(t *testing.T) {
	bin := &obj.File{Arch: "arm64", Entry: "main",
		Sections: []obj.Section{{Name: ".text", Addr: obj.TextBase, Data: []byte{0x00, 0x00, 0x00, 0x54}}}, // b.eq .
		Symbols:  []obj.Symbol{{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase, Size: 4}}}
	if _, err := Lift(bin); err == nil || !strings.Contains(err.Error(), "without fallthrough") {
		t.Fatalf("err = %v, want a without-fallthrough error", err)
	}
}

// TestArmLiftIdiomRecognition checks the recognizer units directly.
func TestArmLiftIdiomRecognition(t *testing.T) {
	mkRMW := []arm64.Inst{
		{Op: arm64.LDXR, Size: 8, Rd: arm64.X10, Rn: arm64.X9, Addr: 0x100},
		{Op: arm64.ADD, Size: 8, Rd: arm64.X11, Rn: arm64.X10, Rm: arm64.X12, Addr: 0x104},
		{Op: arm64.STXR, Size: 8, Rd: arm64.X11, Rn: arm64.X9, Ra: arm64.X13, Addr: 0x108},
		{Op: arm64.CBNZ, Size: 8, Rd: arm64.X13, Imm: 0x100, Addr: 0x10c},
	}
	units, err := recognizeAtomics(mkRMW)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || units[0].kind != unitRMW || units[0].rmwOp != ir.RMWAdd {
		t.Fatalf("units: %+v", units)
	}
	// A stray LDXR without the loop shape must be rejected.
	_, err = recognizeAtomics(mkRMW[:1])
	if err == nil {
		t.Fatal("expected rejection of an unmatched ldxr")
	}
}

// The weak fence lowering emits LDAR and STLR, so a translated Arm object
// can start a function with them: their address and value registers are
// reads and an LDAR's destination is a write, or type discovery drops the
// parameters and the result.
func TestArmLiftAcquireReleaseTypes(t *testing.T) {
	for _, tc := range []struct {
		in   arm64.Inst
		want string
	}{
		{arm64.Inst{Op: arm64.LDAR, Size: 8, Rd: arm64.X0, Rn: arm64.X0}, "i64 (i64)"},
		{arm64.Inst{Op: arm64.STLR, Size: 8, Rd: arm64.X1, Rn: arm64.X0}, "void (i64, i64)"},
	} {
		var text []byte
		for _, in := range []arm64.Inst{tc.in, {Op: arm64.RET}} {
			w, err := arm64.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			text = append(text, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		bin := &obj.File{Arch: "arm64", Entry: "f",
			Sections: []obj.Section{{Name: ".text", Addr: obj.TextBase, Data: text}},
			Symbols:  []obj.Symbol{{Name: "f", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(len(text))}}}
		m, err := Lift(bin)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Func("f").Sig.String(); got != tc.want {
			t.Errorf("%s: lifted signature %s, want %s", tc.in.Op, got, tc.want)
		}
	}
}
