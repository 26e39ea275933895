package backend

import (
	"strings"
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/ir"
	"lasagne/internal/mc"
	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// TestRegAllocPhiSwap runs a loop whose two phis trade values every
// iteration: the moves on the back edge form a cycle.
func TestRegAllocPhiSwap(t *testing.T) {
	m := newModule()
	f := m.NewFunc("main", ir.Signature(ir.Void))
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	x := b.Phi(ir.I64)
	y := b.Phi(ir.I64)
	ir.AddIncoming(i, ir.I64Const(0), entry)
	ir.AddIncoming(x, ir.I64Const(3), entry)
	ir.AddIncoming(y, ir.I64Const(40), entry)
	i2 := b.Add(i, ir.I64Const(1))
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(x, y, loop)
	ir.AddIncoming(y, x, loop)
	b.CondBr(b.ICmp(ir.PredSLT, i2, ir.I64Const(7)), loop, exit)
	b.SetBlock(exit)
	printInt(b, m, x) // 40: seven swaps
	printInt(b, m, y) // 3
	printInt(b, m, b.Sub(b.Mul(x, ir.I64Const(100)), y))
	b.Ret(nil)
	runAllWorlds(t, m)
}

// pressureCallee sums twelve values derived from its argument, so it uses
// every callee-saved integer register and spills.
func pressureCallee(m *ir.Module) *ir.Func {
	f := m.NewFunc("mix", ir.Signature(ir.I64, ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	var vs []ir.Value
	for k := int64(1); k <= 12; k++ {
		vs = append(vs, b.Mul(f.Params[0], ir.I64Const(k)))
	}
	sum := ir.Value(ir.I64Const(0))
	for k := len(vs) - 1; k >= 0; k-- {
		sum = b.Add(sum, b.Xor(vs[k], ir.I64Const(int64(k))))
	}
	b.Ret(sum)
	return f
}

// TestRegAllocSpillAcrossCall keeps more integer values live across calls
// than the pool holds. The callee uses the whole pool itself, so the
// caller's values survive only through its saves and restores, and the
// caller's spilled values through their slots.
func TestRegAllocSpillAcrossCall(t *testing.T) {
	m := newModule()
	mix := pressureCallee(m)
	f := m.NewFunc("main", ir.Signature(ir.Void))
	b := ir.NewBuilder(f.NewBlock("entry"))
	var vs []ir.Value
	for k := int64(1); k <= 16; k++ {
		vs = append(vs, b.Add(b.Call(mix, ir.I64Const(k)), ir.I64Const(k*1000)))
	}
	r := b.Call(mix, ir.I64Const(99))
	sum := ir.Value(r)
	for k, v := range vs {
		sum = b.Add(b.Mul(sum, ir.I64Const(3)), v)
		if k%4 == 3 {
			printInt(b, m, sum)
		}
	}
	printInt(b, m, sum)
	b.Ret(nil)
	runAllWorlds(t, m)

	for _, tg := range targets {
		ra := tg.allocate(t, f)
		spilled := 0
		for _, v := range vs {
			if ra.reg[ra.ids.Of(v)] < 0 {
				spilled++
			}
		}
		if spilled == 0 || ra.used[classInt] != 1<<tg.pool[classInt]-1 {
			t.Errorf("%s: want spills and the whole pool in use; %d spilled, used %#x", tg.arch, spilled, ra.used[classInt])
		}
	}
}

// target is one backend's register allocator configuration.
type target struct {
	arch      string
	pool      [numClasses]int
	clobbered [numClasses]bool
}

var targets = []target{
	{"arm64", [numClasses]int{len(armPools[classInt]), len(armPools[classFloat])}, [numClasses]bool{}},
	{"x86-64", [numClasses]int{len(x86Pools[classInt]), len(x86Pools[classFloat])}, x86CallClobbered},
}

// allocate runs the allocator on f as tg's backend does.
func (tg target) allocate(t *testing.T, f *ir.Func) *allocation {
	t.Helper()
	ra, err := allocate(f, tg.pool, tg.clobbered, noRegister)
	if err != nil {
		t.Fatal(err)
	}
	return ra
}

// TestRegAllocFloatAcrossCall keeps more FP values live across a call than
// the FP pool holds, around a callee that uses FP registers too.
func TestRegAllocFloatAcrossCall(t *testing.T) {
	m := newModule()
	scale := m.NewFunc("scale", ir.Signature(ir.F64, ir.F64))
	b := ir.NewBuilder(scale.NewBlock("entry"))
	var ws []ir.Value
	for k := 1; k <= 9; k++ {
		ws = append(ws, b.Bin(ir.OpFMul, scale.Params[0], f64(float64(k)/4)))
	}
	acc := ir.Value(f64(0))
	for _, w := range ws {
		acc = b.Bin(ir.OpFAdd, acc, w)
	}
	b.Ret(acc)

	f := m.NewFunc("main", ir.Signature(ir.Void))
	b = ir.NewBuilder(f.NewBlock("entry"))
	var vs []ir.Value
	for k := 1; k <= 11; k++ {
		vs = append(vs, b.Bin(ir.OpFAdd, b.Call(scale, f64(float64(k)/2)), f64(0.125)))
	}
	sum := ir.Value(b.Call(scale, f64(1.5)))
	for _, v := range vs {
		sum = b.Bin(ir.OpFSub, b.Bin(ir.OpFMul, sum, f64(0.5)), v)
	}
	printFloat(b, m, sum)
	printFloat(b, m, vs[0])
	b.Ret(nil)
	runAllWorlds(t, m)

	// System V saves no XMM register across a call: on x86-64 every value
	// live across one keeps a slot, while the callee's values, which
	// cross none, take XMM8-XMM15.
	x86 := targets[1]
	ra := x86.allocate(t, f)
	for k, v := range vs {
		if r := ra.reg[ra.ids.Of(v)]; r >= 0 {
			t.Errorf("x86-64: value %d lives across a call in %s", k, x86Pools[classFloat][r])
		}
	}
	if ra := x86.allocate(t, scale); ra.used[classFloat] == 0 {
		t.Errorf("x86-64: no FP value of @scale got a register")
	}
}

// TestRegAllocCriticalEdge branches from two-successor blocks into phi
// blocks that have other predecessors. Where both successors have phis,
// the taken edge's moves run in an edge stub: on that edge only, so the
// exit still sees the old accumulator the back edge's moves overwrite.
// Both branch polarities put the stub on either successor.
func TestRegAllocCriticalEdge(t *testing.T) {
	for _, flip := range []bool{false, true} {
		m := newModule()
		f := m.NewFunc("main", ir.Signature(ir.Void))
		entry, head, other, join, exit := f.NewBlock("entry"), f.NewBlock("head"),
			f.NewBlock("other"), f.NewBlock("join"), f.NewBlock("exit")
		b := ir.NewBuilder(entry)
		b.Br(head)
		b.SetBlock(head)
		i := b.Phi(ir.I64)
		acc := b.Phi(ir.I64)
		ir.AddIncoming(i, ir.I64Const(1), entry)
		ir.AddIncoming(acc, ir.I64Const(5), entry)
		odd := b.ICmp(ir.PredNE, b.And(i, ir.I64Const(1)), ir.I64Const(0))
		t1 := b.Add(acc, i)
		b.CondBr(odd, join, other)
		b.SetBlock(other)
		t2 := b.Mul(acc, ir.I64Const(3))
		big := b.ICmp(ir.PredSGT, t2, ir.I64Const(1_000_000))
		b.CondBr(big, exit, join)
		b.SetBlock(join)
		v := b.Phi(ir.I64)
		ir.AddIncoming(v, t1, head)
		ir.AddIncoming(v, t2, other)
		i2 := b.Add(i, ir.I64Const(1))
		ir.AddIncoming(i, i2, join)
		ir.AddIncoming(acc, v, join)
		more := b.ICmp(ir.PredSLT, i2, ir.I64Const(12))
		if flip {
			b.CondBr(b.Bin(ir.OpXor, more, ir.IntConst(ir.I1, 1)), exit, head)
		} else {
			b.CondBr(more, head, exit)
		}
		b.SetBlock(exit)
		r := b.Phi(ir.I64)
		ir.AddIncoming(r, t2, other)
		ir.AddIncoming(r, v, join)
		printInt(b, m, r)
		printInt(b, m, acc)
		printInt(b, m, i)
		b.Ret(nil)
		runAllWorlds(t, m)
	}
}

// TestRegAllocLoopHasNoSlotTraffic checks the point of the allocator: a
// counted sum loop whose values fit the pool touches no stack slot between
// its header and its latch.
func TestRegAllocLoopHasNoSlotTraffic(t *testing.T) {
	m := newModule()
	f := m.NewFunc("main", ir.Signature(ir.Void))
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	ir.AddIncoming(i, ir.I64Const(0), entry)
	ir.AddIncoming(acc, ir.I64Const(0), entry)
	acc2 := b.Add(acc, b.Mul(i, i))
	i2 := b.Add(i, ir.I64Const(1))
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(acc, acc2, loop)
	b.CondBr(b.ICmp(ir.PredSLT, i2, ir.I64Const(1000)), loop, exit)
	b.SetBlock(exit)
	printInt(b, m, acc2)
	b.Ret(nil)
	runAllWorlds(t, m)

	bin, err := Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	insts := funcInsts(t, bin, "main")
	// The loop runs from the target of the one backward branch (the
	// header) to that branch (the latch).
	lo, hi := uint64(0), uint64(0)
	for _, in := range insts {
		if tgt, ok := in.BranchTarget(); ok && in.Op != arm64.BL && tgt <= in.Addr {
			lo, hi = tgt, in.Addr
		}
	}
	if hi == 0 {
		t.Fatal("no backward branch in main")
	}
	for _, in := range insts {
		if in.Addr < lo || in.Addr > hi {
			continue
		}
		switch in.Op {
		case arm64.LDR, arm64.STR, arm64.LDRSB, arm64.LDRSH, arm64.LDRSW, arm64.LDUR, arm64.STUR:
			if in.Rn == arm64.SP {
				t.Errorf("slot access in the loop at %#x: %s", in.Addr, in.String())
			}
		}
	}
}

// TestX86RegAllocLoopHasNoSlotTraffic is TestRegAllocLoopHasNoSlotTraffic
// for the x86-64 backend: no instruction between the loop header and its
// latch addresses the frame through RBP or RSP.
func TestX86RegAllocLoopHasNoSlotTraffic(t *testing.T) {
	m := newModule()
	f := m.NewFunc("main", ir.Signature(ir.Void))
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	ir.AddIncoming(i, ir.I64Const(0), entry)
	ir.AddIncoming(acc, ir.I64Const(0), entry)
	acc2 := b.Add(acc, b.Mul(i, i))
	i2 := b.Add(i, ir.I64Const(1))
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(acc, acc2, loop)
	b.CondBr(b.ICmp(ir.PredSLT, i2, ir.I64Const(1000)), loop, exit)
	b.SetBlock(exit)
	printInt(b, m, acc2)
	b.Ret(nil)
	runAllWorlds(t, m)

	bin, err := Compile(m, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	insts := x86Insts(t, bin, "main")
	lo, hi := uint64(0), uint64(0)
	for _, in := range insts {
		if tgt, ok := in.BranchTarget(); ok && in.Op != x86.CALL && tgt <= in.Addr {
			lo, hi = tgt, in.Addr
		}
	}
	if hi == 0 {
		t.Fatal("no backward branch in main")
	}
	for _, in := range insts {
		if in.Addr < lo || in.Addr > hi {
			continue
		}
		for _, o := range in.Ops {
			if o.Kind == x86.KindMem && (o.Mem.Base == x86.RBP || o.Mem.Base == x86.RSP) {
				t.Errorf("slot access in the loop at %#x: %s", in.Addr, in.String())
			}
		}
	}
}

// x86Insts decodes one function of an x86-64 object.
func x86Insts(t *testing.T, bin *obj.File, name string) []x86.Inst {
	t.Helper()
	streams, err := mc.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		if s.Sym.Name == name {
			return s.Insts
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

// funcInsts decodes one function of an object.
func funcInsts(t *testing.T, bin *obj.File, name string) []arm64.Inst {
	t.Helper()
	text := bin.Section(".text")
	for _, s := range bin.FuncSymbols() {
		if s.Name == name {
			insts, err := arm64.DecodeAll(text.Data[s.Addr-text.Addr:s.Addr-text.Addr+s.Size], s.Addr)
			if err != nil {
				t.Fatal(err)
			}
			return insts
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

// TestUseBeforeDefinitionRejected hand-builds a function that reads a
// value in the entry block before defining it. The Arm64 backend's
// liveness finds it live into the entry block and refuses the function.
func TestUseBeforeDefinitionRejected(t *testing.T) {
	m := newModule()
	f := m.NewFunc("f", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	early := b.Add(ir.I64Const(1), ir.I64Const(2))
	late := b.Add(ir.I64Const(3), ir.I64Const(4))
	early.Args[0] = late
	b.Ret(early)
	bin, err := Compile(m, "arm64")
	if err == nil || bin != nil {
		t.Fatalf("compiled (%v, err %v), want an error and no object", bin != nil, err)
	}
	want := "backend: @f: " + late.Ref() + " used before its definition"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
}

func f64(v float64) ir.Value { return ir.FloatConst(ir.F64, v) }
