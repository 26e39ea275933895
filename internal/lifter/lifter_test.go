package lifter

import (
	"strings"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/ir"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/sim"
)

// liftRoundTrip compiles src with minic, lowers it to an x86-64 binary,
// lifts the binary back to IR, and checks that executing the lifted IR
// reproduces the output of (a) the original IR and (b) the x86 simulator.
func liftRoundTrip(t *testing.T, src string) *ir.Module {
	t.Helper()
	orig, err := minic.Compile("test", src)
	if err != nil {
		t.Fatalf("minic: %v", err)
	}
	ip := ir.NewInterp(orig)
	if _, err := ip.Run("main"); err != nil {
		t.Fatalf("original IR run: %v", err)
	}
	want := ip.Out.String()

	bin, err := backend.Compile(orig, "x86-64")
	if err != nil {
		t.Fatalf("x86 compile: %v", err)
	}
	mach, err := sim.NewMachine(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatalf("x86 run: %v", err)
	}
	if mach.Out.String() != want {
		t.Fatalf("x86 output %q, want %q", mach.Out.String(), want)
	}

	lifted, err := Lift(bin)
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	lip := ir.NewInterp(lifted)
	if _, err := lip.Run("main"); err != nil {
		t.Fatalf("lifted IR run: %v\n%s", err, lifted)
	}
	if got := lip.Out.String(); got != want {
		t.Fatalf("lifted output %q, want %q", got, want)
	}
	return lifted
}

func TestLiftArithmetic(t *testing.T) {
	liftRoundTrip(t, `
int main() {
  int a = 1000;
  int b = -58;
  print_int(a + b);
  print_int(a * 3 / 7);
  print_int(a % 37);
  print_int(a - b * 2);
  print_int((a ^ 0xFF) & 0x3FF);
  print_int(a << 3);
  print_int((0 - a) >> 2);
  return 0;
}`)
}

func TestLiftControlFlow(t *testing.T) {
	liftRoundTrip(t, `
int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2 == 0) n = n / 2;
    else n = 3 * n + 1;
    steps = steps + 1;
  }
  return steps;
}
int main() {
  print_int(collatz(27));
  int i;
  int s = 0;
  for (i = 0; i < 50; i = i + 1) if (i % 3 == 0) s = s + i;
  print_int(s);
  return 0;
}`)
}

func TestLiftFunctionTypeDiscovery(t *testing.T) {
	m := liftRoundTrip(t, `
int mix(int a, int b, int c) { return a * 100 + b * 10 + c; }
double scale(double x, int k) { return x * (double)k; }
int main() {
  print_int(mix(1, 2, 3));
  print_float(scale(1.5, 4));
  return 0;
}`)
	// mix must have been discovered as (i64, i64, i64) -> i64.
	mix := m.Func("mix")
	if mix == nil {
		t.Fatal("mix not lifted")
	}
	if len(mix.Sig.Params) != 3 {
		t.Fatalf("mix has %d parameters, want 3", len(mix.Sig.Params))
	}
	for _, p := range mix.Sig.Params {
		if !p.Equal(ir.I64) {
			t.Fatalf("mix param type %s, want i64", p)
		}
	}
	if !mix.Sig.Ret.Equal(ir.I64) {
		t.Fatalf("mix return %s, want i64", mix.Sig.Ret)
	}
	// scale takes one double (XMM) and one int (GP): lifted param order is
	// integers first, then SSE (§4.2.1).
	scale := m.Func("scale")
	if len(scale.Sig.Params) != 2 {
		t.Fatalf("scale has %d params", len(scale.Sig.Params))
	}
	if !scale.Sig.Params[0].Equal(ir.I64) || !scale.Sig.Params[1].Equal(ir.F64) {
		t.Fatalf("scale params %s, %s", scale.Sig.Params[0], scale.Sig.Params[1])
	}
	if !scale.Sig.Ret.Equal(ir.F64) {
		t.Fatalf("scale return %s", scale.Sig.Ret)
	}
}

func TestLiftGlobalsAndArrays(t *testing.T) {
	m := liftRoundTrip(t, `
int table[32];
int head;
int main() {
  int i;
  for (i = 0; i < 32; i = i + 1) table[i] = i * 7;
  head = table[5] + table[10];
  print_int(head);
  print_int(table[31]);
  return 0;
}`)
	if m.Global("table") == nil || m.Global("head") == nil {
		t.Fatal("globals not rediscovered")
	}
}

func TestLiftStackArraysRawPointers(t *testing.T) {
	m := liftRoundTrip(t, `
int sum(int* p, int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i = i + 1) s = s + p[i];
  return s;
}
int main() {
  int buf[8];
  int i;
  for (i = 0; i < 8; i = i + 1) buf[i] = i + 1;
  print_int(sum(buf, 8));
  return 0;
}`)
	// The lifted code must contain the raw ptrtoint/add/inttoptr pattern of
	// Fig. 5 (stack addresses as integer arithmetic).
	text := m.String()
	if !strings.Contains(text, "ptrtoint") || !strings.Contains(text, "inttoptr") {
		t.Fatal("expected raw integer pointer arithmetic in lifted IR")
	}
	// Pointer parameters are lifted as i64 (§5).
	sum := m.Func("sum")
	if !sum.Sig.Params[0].Equal(ir.I64) {
		t.Fatalf("pointer param lifted as %s, want i64", sum.Sig.Params[0])
	}
}

func TestLiftFloatingPoint(t *testing.T) {
	liftRoundTrip(t, `
double poly(double x) { return 1.0 + x * (2.0 + x * 3.0); }
int main() {
  print_float(poly(2.0));
  print_float(poly(-0.5));
  double d = 10.0;
  int i;
  for (i = 0; i < 5; i = i + 1) d = d / 2.0;
  print_float(d);
  print_int((int)(d * 100.0));
  if (d < 1.0) print_int(777);
  if (d >= 1.0) print_int(888);
  return 0;
}`)
}

func TestLiftAtomicsAndFences(t *testing.T) {
	m := liftRoundTrip(t, `
int counter;
int main() {
  atomic_add(&counter, 5);
  print_int(atomic_add(&counter, 3));
  fence();
  print_int(atomic_cas(&counter, 8, 100));
  print_int(counter);
  return 0;
}`)
	// MFENCE must lift to Fsc, LOCK XADD to atomicrmw, LOCK CMPXCHG to
	// cmpxchg (Fig. 8a).
	text := m.String()
	for _, want := range []string{"fence.sc", "atomicrmw add", "cmpxchg"} {
		if !strings.Contains(text, want) {
			t.Fatalf("lifted IR missing %q:\n%s", want, text)
		}
	}
}

func TestLiftThreads(t *testing.T) {
	liftRoundTrip(t, `
int total;
void worker(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) atomic_add(&total, i);
}
int main() {
  spawn(worker, 10);
  spawn(worker, 20);
  join();
  print_int(total);
  return 0;
}`)
}

func TestLiftEagerFlags(t *testing.T) {
	m := liftRoundTrip(t, `
int main() {
  int a = 7;
  if (a > 3) print_int(1);
  if (a == 7) print_int(2);
  if (a != 0) print_int(3);
  return 0;
}`)
	// Eager flag lifting materializes the parity-flag network: look for the
	// flag slot allocas in main.
	main := m.Func("main")
	text := main.String()
	for _, flag := range []string{"%zf", "%sf", "%cf", "%of", "%pf"} {
		if !strings.Contains(text, flag) {
			t.Fatalf("missing flag slot %s in lifted main", flag)
		}
	}
}

func TestLiftRecursion(t *testing.T) {
	liftRoundTrip(t, `
int ack(int m, int n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
int main() {
  print_int(ack(2, 3));
  return 0;
}`)
}

func TestLiftBytesAndAlloc(t *testing.T) {
	liftRoundTrip(t, `
int main() {
  byte* s = alloc(16);
  int i;
  for (i = 0; i < 16; i = i + 1) s[i] = (byte)(65 + i);
  int acc = 0;
  for (i = 0; i < 16; i = i + 1) acc = acc * 2 + (int)s[i] % 3;
  print_int(acc);
  return 0;
}`)
}

// A function that ends in a conditional branch has no fall-through block:
// Lift reports it as an error when it declares the function, as the Arm64
// lifter does.
func TestLiftCondBranchAtEnd(t *testing.T) {
	bin := &obj.File{Arch: "x86-64", Entry: "main",
		Sections: []obj.Section{{Name: ".text", Addr: obj.TextBase, Data: []byte{0x0F, 0x84, 0xFA, 0xFF, 0xFF, 0xFF}}}, // je .
		Symbols:  []obj.Symbol{{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase, Size: 6}}}
	if _, err := Lift(bin); err == nil || !strings.Contains(err.Error(), "without fallthrough") {
		t.Fatalf("err = %v, want a without-fallthrough error", err)
	}
	ml, err := BeginTolerant(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.Declare(0); err == nil {
		t.Fatal("declaring a function with a trailing jcc succeeded")
	}
}
