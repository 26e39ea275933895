package backend

import (
	"encoding/binary"
	"fmt"
	"math"

	"lasagne/internal/ir"
	"lasagne/internal/obj"
	"lasagne/internal/rt"
	"lasagne/internal/x86"
)

// System-V integer and SSE argument registers.
var x86IntArgs = []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}
var x86FPArgs = []x86.Reg{x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5, x86.XMM6, x86.XMM7}

// The register allocator's pools. Integer values live in the callee-saved
// RBX and R12-R15, so they survive calls; RBP stays the frame pointer and
// RAX, RCX, RDX, R10 and R11 stay scratch for the fixed-register forms
// (division, shifts, cmpxchg). System V saves no XMM register across a
// call, so an FP value gets one of XMM8-XMM15 only when no call falls
// inside its interval.
var x86Pools = [numClasses][]x86.Reg{
	classInt: {x86.RBX, x86.R12, x86.R13, x86.R14, x86.R15},
	classFloat: {x86.XMM8, x86.XMM9, x86.XMM10, x86.XMM11,
		x86.XMM12, x86.XMM13, x86.XMM14, x86.XMM15},
}

// x86CallClobbered marks the pools a call destroys.
var x86CallClobbered = [numClasses]bool{classFloat: true}

// Scratch registers.
const (
	xA  = x86.R10  // primary
	xB  = x86.R11  // secondary; also the integer phi-cycle temporary
	xC  = x86.RCX  // shift counts and loaded second operands
	xfA = x86.XMM0 // primary FP
	xfB = x86.XMM1 // secondary FP
	xfT = x86.XMM2 // the FP phi-cycle temporary
)

type x86gen struct {
	m   *ir.Module
	dl  *dataLayout
	txt []byte
	fix []fixup // global (symbol) fixups

	funcOff  map[string]int
	funcSize map[string]int

	// Per-function state.
	fr    *frameInfo
	ra    *allocation
	home  []x86.Reg // by value ID: the value's register, or RegNone
	saved []x86.Reg // callee-saved registers the function uses
	sub   int64     // RSP adjustment below the saved registers
	base  int64     // distance from RBP down to the frame base
	blockLabels
	err error
}

func compileX86(m *ir.Module) (*obj.File, error) {
	g := &x86gen{
		m:        m,
		dl:       layoutGlobals(m),
		funcOff:  make(map[string]int),
		funcSize: make(map[string]int),
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		if err := g.genFunc(f); err != nil {
			return nil, fmt.Errorf("x86 backend: @%s: %w", f.Name, err)
		}
	}
	syms, addr := symbolAddrs(m, g.funcOff, g.funcSize, g.dl)
	for _, fx := range g.fix {
		a, ok := addr[fx.target]
		if !ok {
			return nil, fmt.Errorf("x86 backend: unresolved symbol %q", fx.target)
		}
		switch fx.kind {
		case fixRel32:
			rel := int64(a) - int64(obj.TextBase+fx.pos+4)
			binary.LittleEndian.PutUint32(g.txt[fx.pos:], uint32(int32(rel)))
		case fixAbs64:
			binary.LittleEndian.PutUint64(g.txt[fx.pos:], a)
		}
	}
	return &obj.File{
		Arch:  "x86-64",
		Entry: "main",
		Sections: []obj.Section{
			{Name: ".text", Addr: obj.TextBase, Data: g.txt},
			{Name: ".data", Addr: obj.DataBase, Data: g.dl.data},
		},
		Symbols: syms,
	}, nil
}

func (g *x86gen) emit(in x86.Inst) {
	if g.err != nil {
		return
	}
	code, err := x86.Encode(in)
	if err != nil {
		g.err = err
		return
	}
	g.txt = append(g.txt, code...)
}

// emitJump emits a jmp/jcc to a label, patched once the function is laid
// out.
func (g *x86gen) emitJump(op x86.Op, cond x86.Cond, label int) {
	g.emit(x86.Inst{Op: op, Cond: cond, Ops: []x86.Operand{x86.ImmOp(0)}})
	g.localFix = append(g.localFix, labelFixup{len(g.txt) - 4, label})
}

// emitCallSym emits a direct call with a symbol fixup.
func (g *x86gen) emitCallSym(name string) {
	g.emit(x86.NewInst(x86.CALL, 0, x86.ImmOp(0)))
	g.fix = append(g.fix, fixup{pos: len(g.txt) - 4, kind: fixRel32, target: name})
}

// homeOf returns the register allocated to v, or RegNone.
func (g *x86gen) homeOf(v ir.Value) x86.Reg {
	if id := g.fr.ids.Of(v); id >= 0 {
		return g.home[id]
	}
	return x86.RegNone
}

// frameMem returns the memory operand at frame offset off.
func (g *x86gen) frameMem(off int64) x86.Operand {
	return x86.MemOp(x86.RBP, int32(off-g.base))
}

// slotMem returns the memory operand of v's frame slot.
func (g *x86gen) slotMem(v ir.Value) x86.Operand {
	off, ok := g.fr.slotOf(v)
	if !ok {
		g.err = fmt.Errorf("no slot for %s", v.Ref())
	}
	return g.frameMem(off)
}

// fpMove is the scalar move of a float type's width.
func fpMove(t ir.Type) x86.Op {
	if ft, ok := t.(*ir.FloatType); ok && ft.Bits == 32 {
		return x86.MOVSS_X
	}
	return x86.MOVSD_X
}

// loadVal places v's 64-bit payload into GP register r. It writes no
// flags.
func (g *x86gen) loadVal(v ir.Value, r x86.Reg) {
	switch c := v.(type) {
	case *ir.ConstInt:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(c.V)))
		return
	case *ir.ConstFloat:
		var bits int64
		if c.Ty.Bits == 32 {
			bits = int64(math.Float32bits(float32(c.V)))
		} else {
			bits = int64(math.Float64bits(c.V))
		}
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(forceImm64(bits))))
		g.patchLastImm64(bits)
		return
	case *ir.ConstNull, *ir.Undef:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(0)))
		return
	case *ir.Global:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(int64(g.dl.addr[c.Name]))))
		return
	case *ir.Func:
		// Function address: movabs with a fixup.
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(forceImm64(0))))
		g.fix = append(g.fix, fixup{pos: len(g.txt) - 8, kind: fixAbs64, target: c.Name})
		return
	case *ir.Instr:
		if off, ok := g.fr.frameOff(c); ok {
			g.emit(x86.NewInst(x86.LEA, 8, x86.RegOp(r), g.frameMem(off)))
			return
		}
	}
	switch h := g.homeOf(v); {
	case h == x86.RegNone:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), g.slotMem(v)))
	case h.IsXMM():
		g.emit(x86.NewInst(x86.MOVQ, 0, x86.RegOp(r), x86.RegOp(h)))
	case h != r:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.RegOp(h)))
	}
}

// forceImm64 nudges a value so the encoder picks the imm64 (movabs) form,
// keeping instruction layout independent of the final patched value.
func forceImm64(v int64) int64 {
	return v | (1 << 62) // placeholder; patched right after emission
}

// patchLastImm64 overwrites the imm64 of the movabs just emitted.
func (g *x86gen) patchLastImm64(v int64) {
	if g.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(g.txt[len(g.txt)-8:], uint64(v))
}

// use returns a GP register holding v: its own register when it has one,
// else scratch after loading v into it.
func (g *x86gen) use(v ir.Value, scratch x86.Reg) x86.Reg {
	if h := g.homeOf(v); h.IsGP() {
		return h
	}
	g.loadVal(v, scratch)
	return scratch
}

// rm returns a register-or-memory operand holding v's payload: its
// register, its slot, or scratch after loading v into it.
func (g *x86gen) rm(v ir.Value, scratch x86.Reg) x86.Operand {
	if h := g.homeOf(v); h.IsGP() {
		return x86.RegOp(h)
	}
	if _, ok := g.fr.slotOf(v); ok {
		return g.slotMem(v)
	}
	g.loadVal(v, scratch)
	return x86.RegOp(scratch)
}

// src returns the second operand of a w-byte ALU instruction reading v: an
// immediate when v is a constant the encoding takes, else rm.
func (g *x86gen) src(v ir.Value, w int, scratch x86.Reg) x86.Operand {
	if c, ok := ir.ConstIntValue(v); ok && (w < 8 || fitsI32(c)) {
		return x86.ImmOp(c)
	}
	return g.rm(v, scratch)
}

// dst returns the GP register an instruction computing in's result should
// write: in's own register, or scratch (then storeVal).
func (g *x86gen) dst(in *ir.Instr, scratch x86.Reg) x86.Reg {
	if h := g.homeOf(in); h.IsGP() {
		return h
	}
	return scratch
}

// storeVal moves the result in GP register r to v's home: its register,
// its slot, or nowhere for a value nothing reads.
func (g *x86gen) storeVal(v *ir.Instr, r x86.Reg) {
	switch h := g.homeOf(v); {
	case h == x86.RegNone:
		if _, ok := g.fr.slotOf(v); ok {
			g.emit(x86.NewInst(x86.MOV, 8, g.slotMem(v), x86.RegOp(r)))
		}
	case h.IsXMM():
		g.emit(x86.NewInst(x86.MOVQ, 0, x86.RegOp(h), x86.RegOp(r)))
	case h != r:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(h), x86.RegOp(r)))
	}
}

// extend loads v sign- or zero-extended from its natural width to 64 bits.
func (g *x86gen) extend(v ir.Value, r x86.Reg, signed bool) {
	w := width(v.Type())
	if c, ok := v.(*ir.ConstInt); ok {
		x := c.V
		if w < 8 {
			sh := uint(64 - 8*w)
			if signed {
				x = x << sh >> sh
			} else {
				x = int64(uint64(x) << sh >> sh)
			}
		}
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(x)))
		return
	}
	if w == 8 {
		g.loadVal(v, r)
		return
	}
	s := g.rm(v, r)
	switch {
	case w == 4 && signed:
		g.emit(x86.Inst{Op: x86.MOVSXD, Size: 8, SrcSize: 4, Ops: []x86.Operand{x86.RegOp(r), s}})
	case w == 4: // a 32-bit move zeroes the upper half
		g.emit(x86.NewInst(x86.MOV, 4, x86.RegOp(r), s))
	case signed:
		g.emit(x86.Inst{Op: x86.MOVSX, Size: 8, SrcSize: w, Ops: []x86.Operand{x86.RegOp(r), s}})
	default:
		g.emit(x86.Inst{Op: x86.MOVZX, Size: 4, SrcSize: w, Ops: []x86.Operand{x86.RegOp(r), s}})
	}
}

// sext returns a register holding v sign-extended to 64 bits: v's own
// register for a 64-bit value, else scratch.
func (g *x86gen) sext(v ir.Value, scratch x86.Reg) x86.Reg {
	if width(v.Type()) == 8 {
		return g.use(v, scratch)
	}
	g.extend(v, scratch, true)
	return scratch
}

func width(t ir.Type) int {
	s := t.Size()
	if s == 0 || s > 8 {
		return 8
	}
	return s
}

// loadFP places a float value into XMM register r.
func (g *x86gen) loadFP(v ir.Value, r x86.Reg) {
	if ir.IsConst(v) {
		g.loadVal(v, x86.RAX)
		g.emit(x86.NewInst(x86.MOVQ, 0, x86.RegOp(r), x86.RegOp(x86.RAX)))
		return
	}
	switch h := g.homeOf(v); {
	case h == x86.RegNone:
		g.emit(x86.NewInst(fpMove(v.Type()), 0, x86.RegOp(r), g.slotMem(v)))
	case h.IsGP():
		g.emit(x86.NewInst(x86.MOVQ, 0, x86.RegOp(r), x86.RegOp(h)))
	case h != r:
		g.emit(x86.NewInst(fpMove(v.Type()), 0, x86.RegOp(r), x86.RegOp(h)))
	}
}

// useFP is use for XMM registers.
func (g *x86gen) useFP(v ir.Value, scratch x86.Reg) x86.Reg {
	if h := g.homeOf(v); h.IsXMM() {
		return h
	}
	g.loadFP(v, scratch)
	return scratch
}

// rmFP is rm for XMM registers.
func (g *x86gen) rmFP(v ir.Value, scratch x86.Reg) x86.Operand {
	if h := g.homeOf(v); h.IsXMM() {
		return x86.RegOp(h)
	}
	if _, ok := g.fr.slotOf(v); ok {
		return g.slotMem(v)
	}
	g.loadFP(v, scratch)
	return x86.RegOp(scratch)
}

// dstFP is dst for XMM registers.
func (g *x86gen) dstFP(in *ir.Instr, scratch x86.Reg) x86.Reg {
	if h := g.homeOf(in); h.IsXMM() {
		return h
	}
	return scratch
}

// storeFP moves the result in XMM register r to v's home.
func (g *x86gen) storeFP(v *ir.Instr, r x86.Reg) {
	switch h := g.homeOf(v); {
	case h == x86.RegNone:
		if _, ok := g.fr.slotOf(v); ok {
			g.emit(x86.NewInst(fpMove(v.Ty), 0, g.slotMem(v), x86.RegOp(r)))
		}
	case h.IsGP():
		g.emit(x86.NewInst(x86.MOVQ, 0, x86.RegOp(h), x86.RegOp(r)))
	case h != r:
		g.emit(x86.NewInst(fpMove(v.Ty), 0, x86.RegOp(h), x86.RegOp(r)))
	}
}

// addr returns the memory operand at the address v: a frame address
// relative to RBP, or the register holding the pointer.
func (g *x86gen) addr(v ir.Value) x86.Operand {
	if off, ok := g.fr.frameOff(v); ok {
		return g.frameMem(off)
	}
	return x86.MemOp(g.use(v, xA), 0)
}

func (g *x86gen) genFunc(f *ir.Func) error {
	ra, err := allocate(f, [numClasses]int{len(x86Pools[classInt]), len(x86Pools[classFloat])}, x86CallClobbered, noRegister)
	if err != nil {
		return err
	}
	fr, err := buildFrame(f, ra)
	if err != nil {
		return err
	}
	g.fr, g.ra, g.err = fr, ra, nil
	g.home = make([]x86.Reg, len(ra.reg))
	for id, r := range ra.reg {
		g.home[id] = x86.RegNone
		if r >= 0 {
			g.home[id] = x86Pools[ra.class[id]][r]
		}
	}
	g.saved = g.saved[:0]
	for k, r := range x86Pools[classInt] {
		if ra.used[classInt]&(1<<uint(k)) != 0 {
			g.saved = append(g.saved, r)
		}
	}
	// Frame: RBP, the saved registers, then slots and alloca storage, with
	// RSP 16-byte aligned below them.
	g.sub = fr.size + 8*int64(len(g.saved)%2)
	g.base = 8*int64(len(g.saved)) + g.sub
	if g.base > math.MaxInt32 {
		return fmt.Errorf("frame too large (%d bytes)", fr.size)
	}
	start := len(g.txt)

	// Prologue: save the callee-saved registers in use, allocate the
	// frame, and give every parameter its home.
	g.emit(x86.NewInst(x86.PUSH, 8, x86.RegOp(x86.RBP)))
	g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RBP), x86.RegOp(x86.RSP)))
	for _, r := range g.saved {
		g.emit(x86.NewInst(x86.PUSH, 8, x86.RegOp(r)))
	}
	if g.sub > 0 {
		g.emit(x86.NewInst(x86.SUB, 8, x86.RegOp(x86.RSP), x86.ImmOp(g.sub)))
	}
	intIdx, fpIdx := 0, 0
	for _, p := range f.Params {
		if ir.IsFloat(p.Ty) {
			if fpIdx >= len(x86FPArgs) {
				return fmt.Errorf("too many FP parameters")
			}
			g.emit(x86.NewInst(fpMove(p.Ty), 0, g.paramHome(p), x86.RegOp(x86FPArgs[fpIdx])))
			fpIdx++
			continue
		}
		if intIdx >= len(x86IntArgs) {
			return fmt.Errorf("too many integer parameters")
		}
		g.emit(x86.NewInst(x86.MOV, 8, g.paramHome(p), x86.RegOp(x86IntArgs[intIdx])))
		intIdx++
	}

	if err := genBlocks(g, &g.blockLabels, f, ra.reads); err != nil {
		return err
	}

	for _, lf := range g.localFix {
		rel := int32(g.labels[lf.label] - (lf.pos + 4))
		binary.LittleEndian.PutUint32(g.txt[lf.pos:], uint32(rel))
	}
	g.funcOff[f.Name] = start
	g.funcSize[f.Name] = len(g.txt) - start
	return g.err
}

// paramHome returns the operand a parameter is stored to on entry: its
// register, or its slot.
func (g *x86gen) paramHome(p *ir.Param) x86.Operand {
	if h := g.homeOf(p); h != x86.RegNone {
		return x86.RegOp(h)
	}
	return g.slotMem(p)
}

// condJump sets the flags for a conditional branch: a fused compare's
// cmp, or a test of the condition's low bit, right before its jcc.
func (g *x86gen) condJump(in *ir.Instr) func(want bool, label int) {
	cond := x86.CondNE
	if c, ok := in.Args[0].(*ir.Instr); ok && fusedCmp(c, g.ra.reads) {
		cond = g.cmpFlags(c)
	} else {
		g.testBit0(in.Args[0])
	}
	return func(want bool, label int) {
		cc := cond
		if !want {
			cc = cc.Negate()
		}
		g.emitJump(x86.JCC, cc, label)
	}
}

func (g *x86gen) jump(label int) { g.emitJump(x86.JMP, 0, label) }
func (g *x86gen) offset() int    { return len(g.txt) }
func (g *x86gen) failed() error  { return g.err }

// testBit0 sets ZF clear exactly when bit 0 of v is set.
func (g *x86gen) testBit0(v ir.Value) {
	g.emit(x86.NewInst(x86.TEST, 1, g.rm(v, xA), x86.ImmOp(1)))
}

// saveCycle saves a phi's home in the cycle temporary xB/xfT.
func (g *x86gen) saveCycle(d *ir.Instr) {
	if valueClass(d.Ty) == classFloat {
		g.loadFP(d, xfT)
	} else {
		g.loadVal(d, xB)
	}
}

// locKey names the location holding v for move ordering: its register, or
// its slot offset past the register numbers; -1 for a value that lives
// nowhere (constants, globals, functions, frame addresses).
func (g *x86gen) locKey(v ir.Value) int64 {
	if h := g.homeOf(v); h != x86.RegNone {
		return int64(h)
	}
	if in, ok := v.(*ir.Instr); ok && isFrameAddr(in) {
		return -1
	}
	if off, ok := g.fr.slotOf(v); ok {
		return int64(x86.XMM15) + 1 + off
	}
	return -1
}

// phiMove emits one move into a phi's home.
func (g *x86gen) phiMove(m phiMove) {
	if valueClass(m.dst.Ty) == classFloat {
		switch h := g.homeOf(m.dst); {
		case m.src == nil:
			g.storeFP(m.dst, xfT)
		case h.IsXMM():
			g.loadFP(m.src, h)
		default:
			g.storeFP(m.dst, g.useFP(m.src, xfB))
		}
		return
	}
	switch h := g.homeOf(m.dst); {
	case m.src == nil:
		g.storeVal(m.dst, xB)
	case h != x86.RegNone:
		g.loadVal(m.src, h)
	default:
		g.storeVal(m.dst, g.use(m.src, xA))
	}
}

var x86CondOf = map[ir.Pred]x86.Cond{
	ir.PredEQ: x86.CondE, ir.PredNE: x86.CondNE,
	ir.PredSLT: x86.CondL, ir.PredSLE: x86.CondLE,
	ir.PredSGT: x86.CondG, ir.PredSGE: x86.CondGE,
	ir.PredULT: x86.CondB, ir.PredULE: x86.CondBE,
	ir.PredUGT: x86.CondA, ir.PredUGE: x86.CondAE,
}

// cmpFlags sets the flags for an integer compare at its operands' width
// and returns the condition that holds when the compare is true.
func (g *x86gen) cmpFlags(in *ir.Instr) x86.Cond {
	w := width(in.Args[0].Type())
	a := g.rm(in.Args[0], xA)
	b := g.src(in.Args[1], w, xC)
	if a.Kind == x86.KindMem && b.Kind == x86.KindMem {
		b = x86.RegOp(g.use(in.Args[1], xC))
	}
	g.emit(x86.NewInst(x86.CMP, w, a, b))
	return x86CondOf[in.Pred]
}

func (g *x86gen) genInstr(in *ir.Instr) {
	if isFrameAddr(in) {
		return // recomputed from RBP where used
	}
	switch in.Op {
	case ir.OpLoad:
		a := g.addr(in.Args[0])
		if h := g.homeOf(in); h.IsXMM() {
			g.emit(x86.NewInst(fpMove(in.Ty), 0, x86.RegOp(h), a))
			return
		}
		d := g.dst(in, xB)
		g.emit(x86.NewInst(x86.MOV, width(in.Ty), x86.RegOp(d), a))
		g.storeVal(in, d)

	case ir.OpStore:
		v := in.Args[0]
		w := width(v.Type())
		if h := g.homeOf(v); h.IsXMM() {
			g.emit(x86.NewInst(fpMove(v.Type()), 0, g.addr(in.Args[1]), x86.RegOp(h)))
			return
		}
		var s x86.Operand
		if c, ok := ir.ConstIntValue(v); ok && (w < 8 || fitsI32(c)) {
			s = x86.ImmOp(c)
		} else {
			s = x86.RegOp(g.use(v, xB))
		}
		g.emit(x86.NewInst(x86.MOV, w, g.addr(in.Args[1]), s))

	case ir.OpFence:
		if in.Fence == ir.FenceSC {
			g.emit(x86.NewInst(x86.MFENCE, 0))
		}
		// Frm/Fww need no instruction under TSO (Appendix B mapping).

	case ir.OpRMW:
		g.genRMW(in)

	case ir.OpCmpXchg:
		w := width(in.Ty)
		g.loadVal(in.Args[0], xA)
		g.loadVal(in.Args[1], x86.RAX)
		g.loadVal(in.Args[2], xC)
		g.emit(x86.Inst{Op: x86.CMPXCHG, Lock: true, Size: w,
			Ops: []x86.Operand{x86.MemOp(xA, 0), x86.RegOp(xC)}})
		g.storeVal(in, x86.RAX)

	case ir.OpGEP:
		g.genGEP(in)

	case ir.OpICmp:
		cond := g.cmpFlags(in)
		d := g.dst(in, xA)
		g.emit(x86.Inst{Op: x86.SETCC, Cond: cond, Size: 1, Ops: []x86.Operand{x86.RegOp(d)}})
		g.storeVal(in, d)

	case ir.OpFCmp:
		g.genFCmp(in)

	case ir.OpSelect:
		// Load both values before the test: nothing between it and the
		// cmov may write the flags.
		g.loadVal(in.Args[1], xB)
		f := g.rm(in.Args[2], xC)
		g.testBit0(in.Args[0])
		g.emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondE, Size: 8, Ops: []x86.Operand{x86.RegOp(xB), f}})
		g.storeVal(in, xB)

	case ir.OpCall:
		g.genCall(in)

	case ir.OpRet:
		if len(in.Args) == 1 {
			if ir.IsFloat(in.Args[0].Type()) {
				g.loadFP(in.Args[0], x86.XMM0)
			} else {
				g.loadVal(in.Args[0], x86.RAX)
			}
		}
		if g.sub > 0 {
			g.emit(x86.NewInst(x86.ADD, 8, x86.RegOp(x86.RSP), x86.ImmOp(g.sub)))
		}
		for k := len(g.saved) - 1; k >= 0; k-- {
			g.emit(x86.NewInst(x86.POP, 8, x86.RegOp(g.saved[k])))
		}
		g.emit(x86.NewInst(x86.POP, 8, x86.RegOp(x86.RBP)))
		g.emit(x86.NewInst(x86.RET, 0))

	case ir.OpUnreachable:
		g.emit(x86.NewInst(x86.UD2, 0))

	default:
		switch {
		case ir.IsBinaryOp(in.Op):
			g.genBinary(in)
		case ir.IsCast(in.Op):
			g.genCast(in)
		default:
			g.err = fmt.Errorf("x86 backend: unhandled op %s", in.Op)
		}
	}
}

// genGEP computes the address with LEAs: the base (RBP plus a constant
// for a frame address), each variable index scaled by its element size,
// and the constant indices folded into the displacement.
func (g *x86gen) genGEP(in *ir.Instr) {
	off, vars, ok := gepConstOffset(in)
	if !ok {
		g.err = fmt.Errorf("GEP through non-array")
		return
	}
	var m x86.Mem
	if foff, ok := g.fr.frameOff(in.Args[0]); ok {
		m = x86.Mem{Base: x86.RBP, Index: x86.RegNone, Scale: 1, Disp: int32(foff - g.base)}
	} else {
		m = x86.Mem{Base: g.use(in.Args[0], xA), Index: x86.RegNone, Scale: 1}
	}
	disp := int64(m.Disp) + off
	if !fitsI32(disp) {
		g.err = fmt.Errorf("GEP offset %d out of range", off)
		return
	}
	m.Disp = int32(disp)
	for _, x := range vars {
		if m.Index != x86.RegNone {
			g.emit(x86.NewInst(x86.LEA, 8, x86.RegOp(xA), x86.Operand{Kind: x86.KindMem, Mem: m}))
			m = x86.Mem{Base: xA, Index: x86.RegNone, Scale: 1}
		}
		idx, scale := g.sext(x.v, xB), x.es
		switch {
		case scale == 1 || scale == 2 || scale == 4 || scale == 8:
		case fitsI32(scale):
			g.emit(x86.NewInst(x86.IMUL, 8, x86.RegOp(xB), x86.RegOp(idx), x86.ImmOp(scale)))
			idx, scale = xB, 1
		default:
			g.err = fmt.Errorf("GEP element size %d out of range", scale)
			return
		}
		m.Index, m.Scale = idx, int(scale)
	}
	d := g.dst(in, xA)
	switch {
	case m.Index == x86.RegNone && m.Disp == 0 && m.Base != x86.RBP:
		if m.Base != d {
			g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(d), x86.RegOp(m.Base)))
		}
	default:
		g.emit(x86.NewInst(x86.LEA, 8, x86.RegOp(d), x86.Operand{Kind: x86.KindMem, Mem: m}))
	}
	g.storeVal(in, d)
}

func (g *x86gen) genRMW(in *ir.Instr) {
	w := width(in.Ty)
	g.loadVal(in.Args[0], xA)
	g.loadVal(in.Args[1], xC)
	switch in.RMWOp {
	case ir.RMWAdd:
		g.emit(x86.Inst{Op: x86.XADD, Lock: true, Size: w, Ops: []x86.Operand{x86.MemOp(xA, 0), x86.RegOp(xC)}})
		g.storeVal(in, xC)
	case ir.RMWSub:
		g.emit(x86.NewInst(x86.NEG, w, x86.RegOp(xC)))
		g.emit(x86.Inst{Op: x86.XADD, Lock: true, Size: w, Ops: []x86.Operand{x86.MemOp(xA, 0), x86.RegOp(xC)}})
		g.storeVal(in, xC)
	case ir.RMWXchg:
		g.emit(x86.NewInst(x86.XCHG, w, x86.MemOp(xA, 0), x86.RegOp(xC)))
		g.storeVal(in, xC)
	case ir.RMWAnd, ir.RMWOr, ir.RMWXor:
		var op x86.Op
		switch in.RMWOp {
		case ir.RMWAnd:
			op = x86.AND
		case ir.RMWOr:
			op = x86.OR
		default:
			op = x86.XOR
		}
		// mov rax,[r10]; L: mov r11,rax; op r11,rcx; lock cmpxchg [r10],r11; jne L
		g.emit(x86.NewInst(x86.MOV, w, x86.RegOp(x86.RAX), x86.MemOp(xA, 0)))
		loopPos := len(g.txt)
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(xB), x86.RegOp(x86.RAX)))
		g.emit(x86.NewInst(op, w, x86.RegOp(xB), x86.RegOp(xC)))
		g.emit(x86.Inst{Op: x86.CMPXCHG, Lock: true, Size: w, Ops: []x86.Operand{x86.MemOp(xA, 0), x86.RegOp(xB)}})
		// jne back to loopPos.
		g.emit(x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Ops: []x86.Operand{x86.ImmOp(0)}})
		rel := int32(loopPos - len(g.txt))
		binary.LittleEndian.PutUint32(g.txt[len(g.txt)-4:], uint32(rel))
		g.storeVal(in, x86.RAX)
	default:
		g.err = fmt.Errorf("unhandled RMW op %s", in.RMWOp)
	}
}

func (g *x86gen) genFCmp(in *ir.Instr) {
	f32 := in.Args[0].Type().(*ir.FloatType).Bits == 32
	// operand returns a register holding v as a double.
	operand := func(v ir.Value, scratch x86.Reg) x86.Reg {
		if !f32 {
			return g.useFP(v, scratch)
		}
		g.loadFP(v, scratch)
		g.emit(x86.NewInst(x86.CVTSS2SD, 0, x86.RegOp(scratch), x86.RegOp(scratch)))
		return scratch
	}
	a := operand(in.Args[0], xfA)
	b := operand(in.Args[1], xfB)
	cmp := func(x, y x86.Reg) {
		g.emit(x86.NewInst(x86.UCOMISD, 0, x86.RegOp(x), x86.RegOp(y)))
	}
	set := func(c x86.Cond, r x86.Reg) {
		g.emit(x86.Inst{Op: x86.SETCC, Cond: c, Size: 1, Ops: []x86.Operand{x86.RegOp(r)}})
	}
	d := g.dst(in, xA)
	switch in.Pred {
	case ir.PredOEQ, ir.PredONE:
		c := x86.CondE
		if in.Pred == ir.PredONE {
			c = x86.CondNE
		}
		cmp(a, b)
		set(x86.CondNP, xA)
		set(c, xB)
		g.emit(x86.NewInst(x86.AND, 1, x86.RegOp(xA), x86.RegOp(xB)))
		d = xA
	case ir.PredOLT:
		cmp(b, a)
		set(x86.CondA, d)
	case ir.PredOLE:
		cmp(b, a)
		set(x86.CondAE, d)
	case ir.PredOGT:
		cmp(a, b)
		set(x86.CondA, d)
	case ir.PredOGE:
		cmp(a, b)
		set(x86.CondAE, d)
	case ir.PredUNO:
		cmp(a, b)
		set(x86.CondP, d)
	default:
		g.err = fmt.Errorf("unhandled fcmp pred %s", in.Pred)
		return
	}
	g.storeVal(in, d)
}

var x86FPOp = map[ir.Op][2]x86.Op{ // double, single
	ir.OpFAdd: {x86.ADDSD, x86.ADDSS},
	ir.OpFSub: {x86.SUBSD, x86.SUBSS},
	ir.OpFMul: {x86.MULSD, x86.MULSS},
	ir.OpFDiv: {x86.DIVSD, x86.DIVSS},
}

var x86IntOp = map[ir.Op]x86.Op{
	ir.OpAdd: x86.ADD, ir.OpSub: x86.SUB, ir.OpAnd: x86.AND, ir.OpOr: x86.OR, ir.OpXor: x86.XOR,
	ir.OpMul: x86.IMUL, ir.OpShl: x86.SHL, ir.OpLShr: x86.SHR, ir.OpAShr: x86.SAR,
}

func (g *x86gen) genBinary(in *ir.Instr) {
	a, b := in.Args[0], in.Args[1]
	if ir.IsFloat(in.Ty) {
		ops := x86FPOp[in.Op]
		op := ops[0]
		if in.Ty.(*ir.FloatType).Bits == 32 {
			op = ops[1]
		}
		d := g.dstFP(in, xfA)
		if g.homeOf(b) == d && g.homeOf(a) != d {
			// d is about to receive a: a commutative op swaps, the others
			// work in scratch.
			if in.Op == ir.OpFAdd || in.Op == ir.OpFMul {
				a, b = b, a
			} else {
				d = xfA
			}
		}
		g.loadFP(a, d)
		g.emit(x86.NewInst(op, 0, x86.RegOp(d), g.rmFP(b, xfB)))
		g.storeFP(in, d)
		return
	}

	w := width(in.Ty)
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpMul:
		ow := w
		if in.Op == ir.OpMul {
			if c, ok := ir.ConstIntValue(b); ok && fitsI32(c) {
				// imul d, a, imm; the low 8 bits of a 32-bit product are
				// correct.
				d := g.dst(in, xA)
				g.emit(x86.NewInst(x86.IMUL, max(w, 4), x86.RegOp(d), g.rm(a, xA), x86.ImmOp(c)))
				g.storeVal(in, d)
				return
			}
			ow = max(w, 4)
		}
		d := g.dst(in, xA)
		if g.homeOf(b) == d && g.homeOf(a) != d {
			if ir.CommutativeOp(in.Op) {
				a, b = b, a
			} else {
				d = xA
			}
		}
		s := g.src(b, w, xC)
		if in.Op == ir.OpMul && s.Kind == x86.KindImm {
			s = x86.RegOp(g.use(b, xC))
		}
		g.loadVal(a, d)
		g.emit(x86.NewInst(x86IntOp[in.Op], ow, x86.RegOp(d), s))
		g.storeVal(in, d)

	case ir.OpSDiv, ir.OpSRem:
		if w >= 4 {
			g.loadVal(a, x86.RAX)
			s := g.rm(b, xC)
			if w == 8 {
				g.emit(x86.NewInst(x86.CQO, 8))
			} else {
				g.emit(x86.NewInst(x86.CDQ, 4))
			}
			g.emit(x86.NewInst(x86.IDIV, w, s))
		} else {
			g.extend(a, x86.RAX, true)
			g.extend(b, xC, true)
			g.emit(x86.NewInst(x86.CDQ, 4))
			g.emit(x86.NewInst(x86.IDIV, 4, x86.RegOp(xC)))
		}
		if in.Op == ir.OpSDiv {
			g.storeVal(in, x86.RAX)
		} else {
			g.storeVal(in, x86.RDX)
		}

	case ir.OpUDiv, ir.OpURem:
		g.extend(a, x86.RAX, false)
		g.extend(b, xC, false)
		g.emit(x86.NewInst(x86.XOR, 4, x86.RegOp(x86.RDX), x86.RegOp(x86.RDX)))
		g.emit(x86.NewInst(x86.DIV, max(w, 4), x86.RegOp(xC)))
		if in.Op == ir.OpUDiv {
			g.storeVal(in, x86.RAX)
		} else {
			g.storeVal(in, x86.RDX)
		}

	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		// The count goes to CL before d is written, so a count sharing
		// d's register is read first.
		s := x86.RegOp(xC)
		if c, ok := ir.ConstIntValue(b); ok {
			s = x86.ImmOp(c)
		} else {
			g.loadVal(b, xC)
		}
		d := g.dst(in, xA)
		g.loadVal(a, d)
		g.emit(x86.NewInst(x86IntOp[in.Op], w, x86.RegOp(d), s))
		g.storeVal(in, d)

	default:
		g.err = fmt.Errorf("unhandled binary op %s", in.Op)
	}
}

func (g *x86gen) genCast(in *ir.Instr) {
	switch in.Op {
	case ir.OpTrunc, ir.OpBitcast, ir.OpIntToPtr, ir.OpPtrToInt:
		d := g.dst(in, xA)
		g.loadVal(in.Args[0], d)
		g.storeVal(in, d)
	case ir.OpZext, ir.OpSext:
		d := g.dst(in, xA)
		g.extend(in.Args[0], d, in.Op == ir.OpSext)
		g.storeVal(in, d)
	case ir.OpSIToFP:
		r := g.sext(in.Args[0], xA)
		d := g.dstFP(in, xfA)
		g.emit(x86.NewInst(x86.CVTSI2SD, 8, x86.RegOp(d), x86.RegOp(r)))
		if ft := in.Ty.(*ir.FloatType); ft.Bits == 32 {
			g.emit(x86.NewInst(x86.CVTSD2SS, 0, x86.RegOp(d), x86.RegOp(d)))
		}
		g.storeFP(in, d)
	case ir.OpFPToSI:
		s := xfA
		if ft := in.Args[0].Type().(*ir.FloatType); ft.Bits == 32 {
			g.loadFP(in.Args[0], xfA)
			g.emit(x86.NewInst(x86.CVTSS2SD, 0, x86.RegOp(xfA), x86.RegOp(xfA)))
		} else {
			s = g.useFP(in.Args[0], xfA)
		}
		d := g.dst(in, xA)
		g.emit(x86.NewInst(x86.CVTTSD2SI, 8, x86.RegOp(d), x86.RegOp(s)))
		g.storeVal(in, d)
	case ir.OpFPExt, ir.OpFPTrunc:
		op := x86.CVTSS2SD
		if in.Op == ir.OpFPTrunc {
			op = x86.CVTSD2SS
		}
		d := g.dstFP(in, xfA)
		g.loadFP(in.Args[0], d)
		g.emit(x86.NewInst(op, 0, x86.RegOp(d), x86.RegOp(d)))
		g.storeFP(in, d)
	default:
		g.err = fmt.Errorf("unhandled cast %s", in.Op)
	}
}

func (g *x86gen) genCall(in *ir.Instr) {
	args := in.CallArgs()
	intIdx, fpIdx := 0, 0
	for _, a := range args {
		if ir.IsFloat(a.Type()) {
			if fpIdx >= len(x86FPArgs) {
				g.err = fmt.Errorf("too many FP call arguments")
				return
			}
			g.loadFP(a, x86FPArgs[fpIdx])
			fpIdx++
		} else {
			if intIdx >= len(x86IntArgs) {
				g.err = fmt.Errorf("too many integer call arguments")
				return
			}
			g.loadVal(a, x86IntArgs[intIdx])
			intIdx++
		}
	}
	if callee, ok := in.Args[0].(*ir.Func); ok {
		if callee.External && rt.Lookup(callee.Name) == nil {
			g.err = fmt.Errorf("call to unknown extern %q", callee.Name)
			return
		}
		g.emitCallSym(callee.Name)
	} else {
		g.loadVal(in.Args[0], x86.RAX)
		g.emit(x86.NewInst(x86.CALL, 0, x86.RegOp(x86.RAX)))
	}
	if !ir.IsVoid(in.Ty) {
		if ir.IsFloat(in.Ty) {
			g.storeFP(in, x86.XMM0)
		} else {
			g.storeVal(in, x86.RAX)
		}
	}
}

func fitsI32(v int64) bool { return v >= -(1<<31) && v < 1<<31 }
