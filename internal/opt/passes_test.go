package opt

import (
	"math"
	"strings"
	"testing"

	"lasagne/internal/ir"
)

func countOp(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// interpRun executes @main and returns (result, output).
func interpRun(t *testing.T, m *ir.Module) uint64 {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("verify: %v\n%s", err, m)
	}
	ip := ir.NewInterp(m)
	got, err := ip.Run("main")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, m)
	}
	return got
}

func TestMem2RegPromotesDiamond(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	entry := f.NewBlock("entry")
	thenB := f.NewBlock("then")
	elseB := f.NewBlock("else")
	join := f.NewBlock("join")
	b := ir.NewBuilder(entry)
	slot := b.Alloca(ir.I64)
	b.Store(ir.I64Const(0), slot)
	cond := b.ICmp(ir.PredSGT, f.Params[0], ir.I64Const(10))
	b.CondBr(cond, thenB, elseB)
	b.SetBlock(thenB)
	b.Store(ir.I64Const(111), slot)
	b.Br(join)
	b.SetBlock(elseB)
	b.Store(ir.I64Const(222), slot)
	b.Br(join)
	b.SetBlock(join)
	v := b.Load(slot)
	b.Ret(v)

	if !Mem2Reg(f) {
		t.Fatal("mem2reg did nothing")
	}
	if countOp(f, ir.OpAlloca) != 0 {
		t.Fatalf("alloca not promoted:\n%s", f)
	}
	if countOp(f, ir.OpPhi) != 1 {
		t.Fatalf("expected one phi:\n%s", f)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ip := ir.NewInterp(m)
	if got, _ := ip.Run("main", 20); got != 111 {
		t.Fatalf("main(20) = %d", got)
	}
	if got, _ := ip.Run("main", 5); got != 222 {
		t.Fatalf("main(5) = %d", got)
	}
}

func TestMem2RegSkipsEscaping(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	slot := b.Alloca(ir.I64)
	b.PtrToInt(slot, ir.I64) // escape
	b.Store(ir.I64Const(1), slot)
	b.Ret(b.Load(slot))
	Mem2Reg(f)
	if countOp(f, ir.OpAlloca) != 1 {
		t.Fatal("escaping alloca must not be promoted")
	}
}

func TestInstCombineFoldsChains(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	x := b.Add(f.Params[0], ir.I64Const(0))              // x+0 -> x
	y := b.Mul(x, ir.I64Const(1))                        // x*1 -> x
	z := b.Add(b.Add(y, ir.I64Const(3)), ir.I64Const(4)) // fold to x+7
	w := b.Xor(z, z)                                     // -> 0
	r := b.Or(b.Add(z, w), ir.I64Const(0))               // -> z
	b.Ret(r)
	InstCombine(f)
	// Expect: exactly one add (x+7) and the ret.
	if n := countOp(f, ir.OpAdd); n != 1 {
		t.Fatalf("expected 1 add, have %d:\n%s", n, f)
	}
	if countOp(f, ir.OpMul)+countOp(f, ir.OpXor)+countOp(f, ir.OpOr) != 0 {
		t.Fatalf("dead ops survive:\n%s", f)
	}
	ip := ir.NewInterp(m)
	if got, _ := ip.Run("main", 10); got != 17 {
		t.Fatalf("main(10) = %d, want 17", got)
	}
}

func TestInstCombineCollapsesCasts(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	g := m.NewGlobal("g", ir.I64)
	i := b.PtrToInt(g, ir.I64)
	p := b.IntToPtr(i, ir.PointerTo(ir.I64)) // -> g
	b.Store(ir.I64Const(5), p)
	v := b.Load(g)
	b.Ret(v)
	InstCombine(f)
	if countOp(f, ir.OpIntToPtr)+countOp(f, ir.OpPtrToInt) != 0 {
		t.Fatalf("casts survive:\n%s", f)
	}
	if got := interpRun(t, m); got != 5 {
		t.Fatalf("got %d", got)
	}
}

func TestSCCPFoldsBranch(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	entry := f.NewBlock("entry")
	dead := f.NewBlock("dead")
	live := f.NewBlock("live")
	b := ir.NewBuilder(entry)
	c := b.ICmp(ir.PredSLT, ir.I64Const(3), ir.I64Const(2)) // false
	b.CondBr(c, dead, live)
	b.SetBlock(dead)
	b.Ret(ir.I64Const(666))
	b.SetBlock(live)
	b.Ret(ir.I64Const(42))
	SCCP(f)
	if len(f.Blocks) != 2 {
		t.Fatalf("dead block not removed (%d blocks):\n%s", len(f.Blocks), f)
	}
	if got := interpRun(t, m); got != 42 {
		t.Fatalf("got %d", got)
	}
}

// TestSCCPUnfoldableConstantOperands runs a loop whose carried value goes
// through a bitcast SCCP cannot fold, as lifted x86 code carries a double
// in an integer register. The bitcast's operand is constant on the first
// visit, so it must become overdefined there: left unknown, the phi would
// keep its entry constant and the loop's updates would be lost.
func TestSCCPUnfoldableConstantOperands(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	entry, loop, body, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("body"), f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	bits := b.Phi(ir.I64)
	ir.AddIncoming(i, ir.I64Const(0), entry)
	ir.AddIncoming(bits, ir.I64Const(int64(math.Float64bits(17))), entry)
	b.CondBr(b.ICmp(ir.PredSLT, i, ir.I64Const(3)), body, exit)
	b.SetBlock(body)
	d := b.Bin(ir.OpFAdd, b.Bitcast(bits, ir.F64), ir.FloatConst(ir.F64, 0.5))
	ir.AddIncoming(bits, b.Bitcast(d, ir.I64), body)
	ir.AddIncoming(i, b.Add(i, ir.I64Const(1)), body)
	b.Br(loop)
	b.SetBlock(exit)
	b.Ret(b.FPToSI(b.Bin(ir.OpFMul, b.Bitcast(bits, ir.F64), ir.FloatConst(ir.F64, 2)), ir.I64))
	SCCP(f)
	if got := interpRun(t, m); got != 37 {
		t.Fatalf("main() = %d after SCCP, want 37:\n%s", got, f)
	}
}

func TestSCCPThroughPhi(t *testing.T) {
	// A phi whose incoming values are the same constant along all
	// executable edges becomes that constant.
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I1))
	entry := f.NewBlock("entry")
	a := f.NewBlock("a")
	c := f.NewBlock("c")
	j := f.NewBlock("j")
	b := ir.NewBuilder(entry)
	b.CondBr(f.Params[0], a, c)
	b.SetBlock(a)
	b.Br(j)
	b.SetBlock(c)
	b.Br(j)
	b.SetBlock(j)
	phi := b.Phi(ir.I64)
	ir.AddIncoming(phi, ir.I64Const(9), a)
	ir.AddIncoming(phi, ir.I64Const(9), c)
	b.Ret(b.Add(phi, ir.I64Const(1)))
	SCCP(f)
	ip := ir.NewInterp(m)
	if got, _ := ip.Run("main", 1); got != 10 {
		t.Fatalf("got %d", got)
	}
	// The add should have been folded to the constant 10.
	if countOp(f, ir.OpAdd) != 0 {
		t.Fatalf("add not folded:\n%s", f)
	}
}

func TestGVNForwardsLoads(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Store(ir.I64Const(4), g)
	v1 := b.Load(g) // RAW: forwarded from the store
	v2 := b.Load(g) // RAR: forwarded from v1
	b.Ret(b.Add(v1, v2))
	GVN(f)
	if countOp(f, ir.OpLoad) != 0 {
		t.Fatalf("loads survive:\n%s", f)
	}
	if got := interpRun(t, m); got != 8 {
		t.Fatalf("got %d", got)
	}
}

func TestGVNRespectsFencesOnShared(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	v1 := b.Load(g)
	b.Fence(ir.FenceSC)
	v2 := b.Load(g) // must NOT be forwarded across the fence (shared)
	b.Ret(b.Add(v1, v2))
	GVN(f)
	if countOp(f, ir.OpLoad) != 2 {
		t.Fatalf("forwarded a shared load across a fence:\n%s", f)
	}
}

func TestGVNForwardsPrivateAcrossFence(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	slot := b.Alloca(ir.I64)
	b.Store(ir.I64Const(3), slot)
	b.Fence(ir.FenceSC)
	v := b.Load(slot) // private: forwarding across the fence is fine
	b.Ret(v)
	GVN(f)
	if countOp(f, ir.OpLoad) != 0 {
		t.Fatalf("private load not forwarded:\n%s", f)
	}
	if got := interpRun(t, m); got != 3 {
		t.Fatalf("got %d", got)
	}
}

func TestGVNPureCSE(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	a1 := b.Add(f.Params[0], ir.I64Const(5))
	a2 := b.Add(f.Params[0], ir.I64Const(5)) // duplicate
	b.Ret(b.Mul(a1, a2))
	GVN(f)
	if countOp(f, ir.OpAdd) != 1 {
		t.Fatalf("CSE failed:\n%s", f)
	}
	ip := ir.NewInterp(m)
	if got, _ := ip.Run("main", 1); got != 36 {
		t.Fatalf("got %d", got)
	}
}

func TestDSEKillsOverwrittenStore(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Store(ir.I64Const(1), g)
	b.Store(ir.I64Const(2), g)
	b.Ret(b.Load(g))
	DSE(f)
	if countOp(f, ir.OpStore) != 1 {
		t.Fatalf("dead store survives:\n%s", f)
	}
	if got := interpRun(t, m); got != 2 {
		t.Fatalf("got %d", got)
	}
}

func TestDSEBlockedBySharedFence(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.Void))
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Store(ir.I64Const(1), g)
	b.Fence(ir.FenceWW)
	b.Store(ir.I64Const(2), g)
	b.Ret(nil)
	DSE(f)
	if countOp(f, ir.OpStore) != 2 {
		t.Fatalf("eliminated a shared store across a fence:\n%s", f)
	}
}

func TestDSEBlockedByAliasingLoad(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Store(ir.I64Const(1), g)
	v := b.Load(g)
	b.Store(ir.I64Const(2), g)
	b.Ret(v)
	DSE(f)
	if countOp(f, ir.OpStore) != 2 {
		t.Fatalf("eliminated a store that feeds a load:\n%s", f)
	}
	if got := interpRun(t, m); got != 1 {
		t.Fatalf("got %d", got)
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	ir.AddIncoming(i, ir.I64Const(0), entry)
	ir.AddIncoming(acc, ir.I64Const(0), entry)
	inv := b.Mul(f.Params[0], ir.I64Const(3)) // loop-invariant
	acc2 := b.Add(acc, inv)
	i2 := b.Add(i, ir.I64Const(1))
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(acc, acc2, loop)
	b.CondBr(b.ICmp(ir.PredSLT, i2, ir.I64Const(4)), loop, exit)
	b.SetBlock(exit)
	b.Ret(acc2)

	if !LICM(f) {
		t.Fatalf("nothing hoisted:\n%s", f)
	}
	if inv.Parent != entry {
		t.Fatalf("invariant mul not in preheader:\n%s", f)
	}
	ip := ir.NewInterp(m)
	if got, _ := ip.Run("main", 5); got != 60 {
		t.Fatalf("got %d, want 60", got)
	}
}

func TestLICMDoesNotHoistMemoryOrDiv(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	ir.AddIncoming(i, ir.I64Const(0), entry)
	ld := b.Load(g)                                      // memory: must stay
	q := b.Bin(ir.OpSDiv, ir.I64Const(100), f.Params[0]) // div by non-const: must stay
	i2 := b.Add(i, ir.I64Const(1))
	ir.AddIncoming(i, i2, loop)
	b.CondBr(b.ICmp(ir.PredSLT, i2, ld), loop, exit)
	b.SetBlock(exit)
	b.Ret(q)
	LICM(f)
	if ld.Parent != loop || q.Parent != loop {
		t.Fatalf("hoisted an unsafe instruction:\n%s", f)
	}
}

func TestSimplifyCFGMergesAndFolds(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	entry := f.NewBlock("entry")
	mid := f.NewBlock("mid")
	tail := f.NewBlock("tail")
	b := ir.NewBuilder(entry)
	b.CondBr(ir.I1Const(true), mid, tail)
	b.SetBlock(mid)
	b.Br(tail)
	b.SetBlock(tail)
	b.Ret(ir.I64Const(7))
	SimplifyCFG(f)
	if len(f.Blocks) != 1 {
		t.Fatalf("expected a single block, have %d:\n%s", len(f.Blocks), f)
	}
	if got := interpRun(t, m); got != 7 {
		t.Fatalf("got %d", got)
	}
}

func TestSROASplitsFrame(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	frame := b.Alloca(ir.ArrayOf(ir.I8, 32))
	base := b.Bitcast(frame, ir.PointerTo(ir.I8))
	s0 := b.Bitcast(b.GEP(ir.I8, base, ir.I64Const(0)), ir.PointerTo(ir.I64))
	s8 := b.Bitcast(b.GEP(ir.I8, base, ir.I64Const(8)), ir.PointerTo(ir.I64))
	b.Store(ir.I64Const(30), s0)
	b.Store(ir.I64Const(12), s8)
	v0 := b.Load(s0)
	v8 := b.Load(s8)
	b.Ret(b.Add(v0, v8))
	if !SROA(f) {
		t.Fatalf("SROA did nothing:\n%s", f)
	}
	// After SROA the byte-array alloca is gone; mem2reg can finish the job.
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpAlloca {
				if _, isArr := in.Elem.(*ir.ArrayType); isArr {
					t.Fatalf("frame alloca survives:\n%s", f)
				}
			}
		}
	}
	Mem2Reg(f)
	if countOp(f, ir.OpAlloca) != 0 {
		t.Fatalf("scalars not promoted:\n%s", f)
	}
	if got := interpRun(t, m); got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestSROASkipsEscapingFrame(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	frame := b.Alloca(ir.ArrayOf(ir.I8, 32))
	base := b.Bitcast(frame, ir.PointerTo(ir.I8))
	b.PtrToInt(base, ir.I64) // escape: lifted pre-refinement shape
	p := b.Bitcast(base, ir.PointerTo(ir.I64))
	b.Store(ir.I64Const(1), p)
	b.Ret(b.Load(p))
	if SROA(f) {
		t.Fatalf("SROA split an escaping frame:\n%s", f)
	}
}

func TestScalarizeVectors(t *testing.T) {
	m := ir.NewModule("t")
	v2 := ir.VectorOf(ir.F64, 2)
	g := m.NewGlobal("vec", v2)
	f := m.NewFunc("main", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	// Build a vector, add it to itself through memory.
	lanes := b.InsertElement(ir.NewUndef(v2), ir.FloatConst(ir.F64, 1.5), ir.I64Const(0))
	lanes2 := b.InsertElement(lanes, ir.FloatConst(ir.F64, 2.5), ir.I64Const(1))
	b.Store(lanes2, g)
	ld := b.Load(g)
	sum := b.Bin(ir.OpFAdd, ld, ld)
	e0 := b.ExtractElement(sum, ir.I64Const(0))
	e1 := b.ExtractElement(sum, ir.I64Const(1))
	total := b.FAdd(e0, e1)
	b.Ret(b.FPToSI(total, ir.I64))

	Scalarize(f)
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if ir.IsVector(in.Ty) && in.Op != ir.OpInsertElement {
				if in.Op == ir.OpLoad || ir.IsBinaryOp(in.Op) {
					t.Fatalf("vector %s survives scalarization:\n%s", in.Op, f)
				}
			}
		}
	}
	InstCombine(f)
	if got := interpRun(t, m); got != 8 {
		t.Fatalf("got %d, want 8 (2*(1.5+2.5))", got)
	}
}

func TestReassociateExposesConstants(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64, ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	// (x + 10) + y: the constant should move outward so (x+y)+10 folds
	// further when y is later known.
	t1 := b.Add(f.Params[0], ir.I64Const(10))
	t2 := b.Add(t1, f.Params[1])
	b.Ret(t2)
	Reassociate(f)
	ip := ir.NewInterp(m)
	if got, _ := ip.Run("main", 1, 2); got != 13 {
		t.Fatalf("got %d", got)
	}
}

func TestADCERemovesDeadCycle(t *testing.T) {
	// A dead phi cycle that plain DCE cannot see.
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64))
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	dead := b.Phi(ir.I64)
	live := b.Phi(ir.I64)
	ir.AddIncoming(dead, ir.I64Const(0), entry)
	ir.AddIncoming(live, ir.I64Const(0), entry)
	dead2 := b.Add(dead, ir.I64Const(1)) // only feeds the dead phi
	live2 := b.Add(live, ir.I64Const(2))
	ir.AddIncoming(dead, dead2, loop)
	ir.AddIncoming(live, live2, loop)
	b.CondBr(b.ICmp(ir.PredSLT, live2, ir.I64Const(10)), loop, exit)
	b.SetBlock(exit)
	b.Ret(live2)

	ADCE(f)
	if countOp(f, ir.OpPhi) != 1 {
		t.Fatalf("dead phi cycle survives:\n%s", f)
	}
	if got := interpRun(t, m); got != 10 {
		t.Fatalf("got %d", got)
	}
}

func TestPipelineIdempotentOnOptimizedCode(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Ret(b.Add(f.Params[0], ir.I64Const(1)))
	if err := RunPipeline(m, StandardPipeline, true); err != nil {
		t.Fatal(err)
	}
	size1 := m.NumInstrs()
	if err := RunPipeline(m, StandardPipeline, true); err != nil {
		t.Fatal(err)
	}
	if m.NumInstrs() != size1 {
		t.Fatalf("pipeline not idempotent: %d -> %d", size1, m.NumInstrs())
	}
}

func TestUnknownPassRejected(t *testing.T) {
	m := ir.NewModule("t")
	if _, err := Run(m, "nonexistent"); err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("expected unknown-pass error, got %v", err)
	}
}

func TestSimplifyCFGSpeculatesTriangle(t *testing.T) {
	// if (c) v = load g; use phi(v, 0) -- the load is speculated and the
	// phi becomes a select (§7.2 speculative load introduction).
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I1))
	a := f.NewBlock("entry")
	bb := f.NewBlock("then")
	c := f.NewBlock("join")
	b := ir.NewBuilder(a)
	b.CondBr(f.Params[0], bb, c)
	b.SetBlock(bb)
	ld := b.Load(g)
	v2 := b.Add(ld, ir.I64Const(1))
	b.Br(c)
	b.SetBlock(c)
	phi := b.Phi(ir.I64)
	ir.AddIncoming(phi, v2, bb)
	ir.AddIncoming(phi, ir.I64Const(0), a)
	b.Ret(phi)

	if !SimplifyCFG(f) {
		t.Fatalf("nothing simplified:\n%s", f)
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("triangle not flattened (%d blocks):\n%s", len(f.Blocks), f)
	}
	if countOp(f, ir.OpSelect) != 1 {
		t.Fatalf("expected a select:\n%s", f)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	ip := ir.NewInterp(m)
	// g = 0 initially, so taken path yields 1, untaken 0.
	if got, _ := ip.Run("main", 1); got != 1 {
		t.Fatalf("main(true) = %d", got)
	}
	if got, _ := ip.Run("main", 0); got != 0 {
		t.Fatalf("main(false) = %d", got)
	}
}

func TestSpeculationSkipsSideEffects(t *testing.T) {
	// A store in the then-block must not be speculated.
	m := ir.NewModule("t")
	g := m.NewGlobal("g", ir.I64)
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I1))
	a := f.NewBlock("entry")
	bb := f.NewBlock("then")
	c := f.NewBlock("join")
	b := ir.NewBuilder(a)
	b.CondBr(f.Params[0], bb, c)
	b.SetBlock(bb)
	b.Store(ir.I64Const(5), g)
	b.Br(c)
	b.SetBlock(c)
	b.Ret(b.Load(g))
	SimplifyCFG(f)
	ip := ir.NewInterp(m)
	if got, _ := ip.Run("main", 0); got != 0 {
		t.Fatalf("store was speculated: main(false) = %d\n%s", got, f)
	}
	if got, _ := ip.Run("main", 1); got != 5 {
		t.Fatalf("main(true) = %d", got)
	}
}
