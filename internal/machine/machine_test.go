package machine_test

import (
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/lifter"
	"lasagne/internal/machine"
	"lasagne/internal/mc"
	"lasagne/internal/minic"
	"lasagne/internal/opt"
	"lasagne/internal/x86"
)

// buildStreams compiles minic source and disassembles the resulting binary.
func buildStreams(t *testing.T, src string) []mc.Stream[x86.Inst] {
	t.Helper()
	m, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	bin, err := backend.Compile(m, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := mc.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

func findFunc(t *testing.T, streams []mc.Stream[x86.Inst], name string) *machine.Function[x86.Inst] {
	t.Helper()
	for _, s := range streams {
		if s.Sym.Name == name {
			f, err := machine.Build(lifter.ISA, s)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

const testSrc = `
int add3(int a, int b, int c) { return a + b + c; }
double scale(double x, int k) { return x * (double)k; }
void sink(int v) { }
int branchy(int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) s = s + i;
  }
  return s;
}
int main() {
  sink(add3(1, 2, 3));
  print_float(scale(2.0, 3));
  print_int(branchy(10));
  return 0;
}
`

func TestCFGReconstruction(t *testing.T) {
	streams := buildStreams(t, testSrc)
	f := findFunc(t, streams, "branchy")
	if len(f.Blocks) < 4 {
		t.Fatalf("branchy has %d blocks; expected a loop CFG", len(f.Blocks))
	}
	// Every block with successors points at real blocks; entry is first.
	if f.Blocks[0].Start != f.Entry {
		t.Fatal("first block is not the entry")
	}
	seen := map[*machine.Block[x86.Inst]]bool{}
	for _, b := range f.Blocks {
		seen[b] = true
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !seen[s] {
				t.Fatal("successor outside function")
			}
		}
		last := b.Insts[len(b.Insts)-1]
		if last.Op == x86.JCC && len(b.Succs) != 2 {
			t.Fatalf("jcc block has %d successors", len(b.Succs))
		}
	}
}

func TestParamDiscovery(t *testing.T) {
	streams := buildStreams(t, testSrc)
	add3 := findFunc(t, streams, "add3")
	if len(add3.Params) != 3 {
		t.Fatalf("add3: %d params discovered, want 3 (%v)", len(add3.Params), add3.Params)
	}
	for i, r := range []x86.Reg{x86.RDI, x86.RSI, x86.RDX} {
		if add3.Params[i].Reg != machine.Reg(r) || add3.Params[i].Kind != machine.ParamInt {
			t.Fatalf("add3 param %d = %+v", i, add3.Params[i])
		}
	}
	if add3.Ret != machine.RetInt {
		t.Fatalf("add3 return %v, want int", add3.Ret)
	}
}

func TestSSEParamDiscovery(t *testing.T) {
	streams := buildStreams(t, testSrc)
	scale := findFunc(t, streams, "scale")
	var ints, fps int
	for _, p := range scale.Params {
		if p.Kind == machine.ParamInt {
			ints++
		} else {
			fps++
		}
	}
	if ints != 1 || fps != 1 {
		t.Fatalf("scale params: %d int, %d fp (want 1/1): %+v", ints, fps, scale.Params)
	}
	if scale.Ret != machine.RetF64 {
		t.Fatalf("scale return %v, want double", scale.Ret)
	}
}

func TestVoidReturnDiscovery(t *testing.T) {
	streams := buildStreams(t, testSrc)
	sink := findFunc(t, streams, "sink")
	if sink.Ret != machine.RetVoid {
		t.Fatalf("sink return %v, want void", sink.Ret)
	}
}

func TestDisassembleErrors(t *testing.T) {
	streams := buildStreams(t, testSrc)
	_ = streams
	// Wrong-arch input is rejected by mc.
	m, _ := minic.Compile("t", "int main() { return 0; }")
	bin, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Disassemble(bin); err == nil {
		t.Fatal("disassembling an arm64 binary should fail")
	}
}
