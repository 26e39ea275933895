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

type x86gen struct {
	m   *ir.Module
	dl  *dataLayout
	txt []byte
	fix []fixup // global (symbol) fixups

	funcOff  map[string]int
	funcSize map[string]int

	// Per-function state.
	f        *ir.Func
	fr       *frameInfo
	blockOff map[*ir.Block]int
	localFix []struct {
		pos    int
		target *ir.Block
	}
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

// emitJump emits a jmp/jcc with a local block fixup.
func (g *x86gen) emitJump(op x86.Op, cond x86.Cond, target *ir.Block) {
	g.emit(x86.Inst{Op: op, Cond: cond, Ops: []x86.Operand{x86.ImmOp(0)}})
	g.localFix = append(g.localFix, struct {
		pos    int
		target *ir.Block
	}{len(g.txt) - 4, target})
}

// emitCallSym emits a direct call with a symbol fixup.
func (g *x86gen) emitCallSym(name string) {
	g.emit(x86.NewInst(x86.CALL, 0, x86.ImmOp(0)))
	g.fix = append(g.fix, fixup{pos: len(g.txt) - 4, kind: fixRel32, target: name})
}

// slotMem returns the memory operand of v's frame slot.
func (g *x86gen) slotMem(v ir.Value) x86.Operand {
	off, ok := g.fr.slotOf(v)
	if !ok {
		g.err = fmt.Errorf("no slot for %s", v.Ref())
		return x86.MemOp(x86.RBP, 0)
	}
	return x86.MemOp(x86.RBP, int32(off-g.fr.size))
}

func (g *x86gen) shadowMem(phi *ir.Instr) x86.Operand {
	return x86.MemOp(x86.RBP, int32(g.fr.shadow[g.fr.ids.Of(phi)]-g.fr.size))
}

// loadVal places v's 64-bit payload into GP register r.
func (g *x86gen) loadVal(v ir.Value, r x86.Reg) {
	switch c := v.(type) {
	case *ir.ConstInt:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(c.V)))
	case *ir.ConstFloat:
		var bits int64
		if c.Ty.Bits == 32 {
			bits = int64(math.Float32bits(float32(c.V)))
		} else {
			bits = int64(math.Float64bits(c.V))
		}
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(forceImm64(bits))))
		g.patchLastImm64(bits)
	case *ir.ConstNull:
		g.emit(x86.NewInst(x86.XOR, 4, x86.RegOp(r), x86.RegOp(r)))
	case *ir.Undef:
		g.emit(x86.NewInst(x86.XOR, 4, x86.RegOp(r), x86.RegOp(r)))
	case *ir.Global:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(int64(g.dl.addr[c.Name]))))
	case *ir.Func:
		// Function address: movabs with a fixup.
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(forceImm64(0))))
		g.fix = append(g.fix, fixup{pos: len(g.txt) - 8, kind: fixAbs64, target: c.Name})
	default:
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), g.slotMem(v)))
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

// storeVal writes GP register r into v's slot.
func (g *x86gen) storeVal(v *ir.Instr, r x86.Reg) {
	g.emit(x86.NewInst(x86.MOV, 8, g.slotMem(v), x86.RegOp(r)))
}

// loadValSext loads v sign-extended from its natural width to 64 bits.
func (g *x86gen) loadValSext(v ir.Value, r x86.Reg) {
	if c, ok := v.(*ir.ConstInt); ok {
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(c.V)))
		return
	}
	switch width(v.Type()) {
	case 8:
		g.loadVal(v, r)
	case 4:
		g.emit(x86.Inst{Op: x86.MOVSXD, Size: 8, SrcSize: 4, Ops: []x86.Operand{x86.RegOp(r), g.slotMem(v)}})
	case 2:
		g.emit(x86.Inst{Op: x86.MOVSX, Size: 8, SrcSize: 2, Ops: []x86.Operand{x86.RegOp(r), g.slotMem(v)}})
	default:
		g.emit(x86.Inst{Op: x86.MOVSX, Size: 8, SrcSize: 1, Ops: []x86.Operand{x86.RegOp(r), g.slotMem(v)}})
	}
}

func width(t ir.Type) int {
	s := t.Size()
	if s == 0 || s > 8 {
		return 8
	}
	return s
}

// loadFP places a float value into an XMM register.
func (g *x86gen) loadFP(v ir.Value, r x86.Reg) {
	op := x86.MOVSD_X
	if ft, ok := v.Type().(*ir.FloatType); ok && ft.Bits == 32 {
		op = x86.MOVSS_X
	}
	if ir.IsConst(v) {
		g.loadVal(v, x86.RAX)
		g.emit(x86.NewInst(x86.MOVQ, 0, x86.RegOp(r), x86.RegOp(x86.RAX)))
		return
	}
	g.emit(x86.NewInst(op, 0, x86.RegOp(r), g.slotMem(v)))
}

// storeFP writes an XMM register into v's slot.
func (g *x86gen) storeFP(v *ir.Instr, r x86.Reg) {
	op := x86.MOVSD_X
	if ft, ok := v.Ty.(*ir.FloatType); ok && ft.Bits == 32 {
		op = x86.MOVSS_X
	}
	g.emit(x86.NewInst(op, 0, g.slotMem(v), x86.RegOp(r)))
}

func (g *x86gen) genFunc(f *ir.Func) error {
	fr, err := buildFrame(f, nil)
	if err != nil {
		return err
	}
	g.f, g.fr, g.err = f, fr, nil
	g.blockOff = make(map[*ir.Block]int)
	g.localFix = g.localFix[:0]
	start := len(g.txt)

	// Prologue.
	g.emit(x86.NewInst(x86.PUSH, 8, x86.RegOp(x86.RBP)))
	g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RBP), x86.RegOp(x86.RSP)))
	if fr.size > 0 {
		g.emit(x86.NewInst(x86.SUB, 8, x86.RegOp(x86.RSP), x86.ImmOp(fr.size)))
	}
	// Spill incoming arguments to their slots.
	intIdx, fpIdx := 0, 0
	for _, p := range f.Params {
		if ir.IsFloat(p.Ty) {
			if fpIdx >= len(x86FPArgs) {
				return fmt.Errorf("too many FP parameters")
			}
			op := x86.MOVSD_X
			if p.Ty.(*ir.FloatType).Bits == 32 {
				op = x86.MOVSS_X
			}
			g.emit(x86.NewInst(op, 0, g.slotMem(p), x86.RegOp(x86FPArgs[fpIdx])))
			fpIdx++
		} else {
			if intIdx >= len(x86IntArgs) {
				return fmt.Errorf("too many integer parameters")
			}
			g.emit(x86.NewInst(x86.MOV, 8, g.slotMem(p), x86.RegOp(x86IntArgs[intIdx])))
			intIdx++
		}
	}

	for _, b := range f.Blocks {
		g.blockOff[b] = len(g.txt)
		// Commit phi shadows.
		for _, phi := range b.Phis() {
			g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.R10), g.shadowMem(phi)))
			g.storeVal(phi, x86.R10)
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				continue
			}
			if in.IsTerminator() {
				g.writePhiShadows(b)
			}
			g.genInstr(in)
			if g.err != nil {
				return fmt.Errorf("%s: %w", in, g.err)
			}
		}
	}

	// Patch local branches.
	for _, lf := range g.localFix {
		off, ok := g.blockOff[lf.target]
		if !ok {
			return fmt.Errorf("branch to unemitted block %%%s", lf.target.Name)
		}
		rel := int32(off - (lf.pos + 4))
		binary.LittleEndian.PutUint32(g.txt[lf.pos:], uint32(rel))
	}
	g.funcOff[f.Name] = start
	g.funcSize[f.Name] = len(g.txt) - start
	return g.err
}

// writePhiShadows stores this block's outgoing phi values into the shadow
// slots of each successor's phis.
func (g *x86gen) writePhiShadows(b *ir.Block) {
	for _, succ := range b.Succs() {
		for _, phi := range succ.Phis() {
			for k, pred := range phi.Blocks {
				if pred == b {
					if ir.IsFloat(phi.Ty) {
						g.loadFP(phi.Args[k], x86.XMM2)
						op := x86.MOVSD_X
						if phi.Ty.(*ir.FloatType).Bits == 32 {
							op = x86.MOVSS_X
						}
						g.emit(x86.NewInst(op, 0, g.shadowMem(phi), x86.RegOp(x86.XMM2)))
					} else {
						g.loadVal(phi.Args[k], x86.R10)
						g.emit(x86.NewInst(x86.MOV, 8, g.shadowMem(phi), x86.RegOp(x86.R10)))
					}
					break
				}
			}
		}
	}
}

var x86CondOf = map[ir.Pred]x86.Cond{
	ir.PredEQ: x86.CondE, ir.PredNE: x86.CondNE,
	ir.PredSLT: x86.CondL, ir.PredSLE: x86.CondLE,
	ir.PredSGT: x86.CondG, ir.PredSGE: x86.CondGE,
	ir.PredULT: x86.CondB, ir.PredULE: x86.CondBE,
	ir.PredUGT: x86.CondA, ir.PredUGE: x86.CondAE,
}

func (g *x86gen) genInstr(in *ir.Instr) {
	switch in.Op {
	case ir.OpAlloca:
		off := g.fr.bulk[g.fr.ids.Of(in)] - g.fr.size
		g.emit(x86.NewInst(x86.LEA, 8, x86.RegOp(x86.R10), x86.MemOp(x86.RBP, int32(off))))
		g.storeVal(in, x86.R10)

	case ir.OpLoad:
		g.loadVal(in.Args[0], x86.R10)
		w := width(in.Ty)
		g.emit(x86.NewInst(x86.MOV, w, x86.RegOp(x86.R11), x86.MemOp(x86.R10, 0)))
		g.storeVal(in, x86.R11)

	case ir.OpStore:
		g.loadVal(in.Args[0], x86.R11)
		g.loadVal(in.Args[1], x86.R10)
		w := width(in.Args[0].Type())
		g.emit(x86.NewInst(x86.MOV, w, x86.MemOp(x86.R10, 0), x86.RegOp(x86.R11)))

	case ir.OpFence:
		if in.Fence == ir.FenceSC {
			g.emit(x86.NewInst(x86.MFENCE, 0))
		}
		// Frm/Fww need no instruction under TSO (Appendix B mapping).

	case ir.OpRMW:
		g.genRMW(in)

	case ir.OpCmpXchg:
		w := width(in.Ty)
		g.loadVal(in.Args[0], x86.R10)
		g.loadVal(in.Args[1], x86.RAX)
		g.loadVal(in.Args[2], x86.RCX)
		g.emit(x86.Inst{Op: x86.CMPXCHG, Lock: true, Size: w,
			Ops: []x86.Operand{x86.MemOp(x86.R10, 0), x86.RegOp(x86.RCX)}})
		g.storeVal(in, x86.RAX)

	case ir.OpGEP:
		g.loadVal(in.Args[0], x86.R10)
		elem := in.Elem
		for k, idx := range in.Args[1:] {
			es := int64(elem.Size())
			if k > 0 {
				at, ok := elem.(*ir.ArrayType)
				if !ok {
					g.err = fmt.Errorf("GEP through non-array")
					return
				}
				elem = at.Elem
				es = int64(elem.Size())
			}
			if c, ok := ir.ConstIntValue(idx); ok {
				if c != 0 {
					g.emit(x86.NewInst(x86.ADD, 8, x86.RegOp(x86.R10), x86.ImmOp(c*es)))
				}
				continue
			}
			g.loadValSext(idx, x86.R11)
			if es != 1 {
				g.emit(x86.NewInst(x86.IMUL, 8, x86.RegOp(x86.R11), x86.RegOp(x86.R11), x86.ImmOp(es)))
			}
			g.emit(x86.NewInst(x86.ADD, 8, x86.RegOp(x86.R10), x86.RegOp(x86.R11)))
		}
		g.storeVal(in, x86.R10)

	case ir.OpICmp:
		w := width(in.Args[0].Type())
		g.loadVal(in.Args[0], x86.R10)
		g.loadVal(in.Args[1], x86.RCX)
		g.emit(x86.NewInst(x86.CMP, w, x86.RegOp(x86.R10), x86.RegOp(x86.RCX)))
		g.emit(x86.Inst{Op: x86.SETCC, Cond: x86CondOf[in.Pred], Size: 1, Ops: []x86.Operand{x86.RegOp(x86.R10)}})
		g.storeVal(in, x86.R10)

	case ir.OpFCmp:
		g.genFCmp(in)

	case ir.OpSelect:
		g.loadVal(in.Args[0], x86.R10)
		g.emit(x86.NewInst(x86.TEST, 1, x86.RegOp(x86.R10), x86.ImmOp(1)))
		g.loadVal(in.Args[1], x86.R11)
		g.loadVal(in.Args[2], x86.RCX)
		g.emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondE, Size: 8, Ops: []x86.Operand{x86.RegOp(x86.R11), x86.RegOp(x86.RCX)}})
		g.storeVal(in, x86.R11)

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
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RSP), x86.RegOp(x86.RBP)))
		g.emit(x86.NewInst(x86.POP, 8, x86.RegOp(x86.RBP)))
		g.emit(x86.NewInst(x86.RET, 0))

	case ir.OpBr:
		g.emitJump(x86.JMP, 0, in.Blocks[0])

	case ir.OpCondBr:
		g.loadVal(in.Args[0], x86.R10)
		g.emit(x86.NewInst(x86.TEST, 1, x86.RegOp(x86.R10), x86.ImmOp(1)))
		g.emitJump(x86.JCC, x86.CondNE, in.Blocks[0])
		g.emitJump(x86.JMP, 0, in.Blocks[1])

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

func (g *x86gen) genRMW(in *ir.Instr) {
	w := width(in.Ty)
	g.loadVal(in.Args[0], x86.R10)
	g.loadVal(in.Args[1], x86.RCX)
	switch in.RMWOp {
	case ir.RMWAdd:
		g.emit(x86.Inst{Op: x86.XADD, Lock: true, Size: w, Ops: []x86.Operand{x86.MemOp(x86.R10, 0), x86.RegOp(x86.RCX)}})
		g.storeVal(in, x86.RCX)
	case ir.RMWSub:
		g.emit(x86.NewInst(x86.NEG, w, x86.RegOp(x86.RCX)))
		g.emit(x86.Inst{Op: x86.XADD, Lock: true, Size: w, Ops: []x86.Operand{x86.MemOp(x86.R10, 0), x86.RegOp(x86.RCX)}})
		g.storeVal(in, x86.RCX)
	case ir.RMWXchg:
		g.emit(x86.NewInst(x86.XCHG, w, x86.MemOp(x86.R10, 0), x86.RegOp(x86.RCX)))
		g.storeVal(in, x86.RCX)
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
		g.emit(x86.NewInst(x86.MOV, w, x86.RegOp(x86.RAX), x86.MemOp(x86.R10, 0)))
		loopPos := len(g.txt)
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.R11), x86.RegOp(x86.RAX)))
		g.emit(x86.NewInst(op, w, x86.RegOp(x86.R11), x86.RegOp(x86.RCX)))
		g.emit(x86.Inst{Op: x86.CMPXCHG, Lock: true, Size: w, Ops: []x86.Operand{x86.MemOp(x86.R10, 0), x86.RegOp(x86.R11)}})
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
	load := func(v ir.Value, r x86.Reg) {
		g.loadFP(v, r)
		if f32 {
			g.emit(x86.NewInst(x86.CVTSS2SD, 0, x86.RegOp(r), x86.RegOp(r)))
		}
	}
	load(in.Args[0], x86.XMM0)
	load(in.Args[1], x86.XMM1)
	cmp := func(a, b x86.Reg) {
		g.emit(x86.NewInst(x86.UCOMISD, 0, x86.RegOp(a), x86.RegOp(b)))
	}
	set := func(c x86.Cond, r x86.Reg) {
		g.emit(x86.Inst{Op: x86.SETCC, Cond: c, Size: 1, Ops: []x86.Operand{x86.RegOp(r)}})
	}
	switch in.Pred {
	case ir.PredOEQ:
		cmp(x86.XMM0, x86.XMM1)
		set(x86.CondNP, x86.R10)
		set(x86.CondE, x86.R11)
		g.emit(x86.NewInst(x86.AND, 1, x86.RegOp(x86.R10), x86.RegOp(x86.R11)))
	case ir.PredONE:
		cmp(x86.XMM0, x86.XMM1)
		set(x86.CondNP, x86.R10)
		set(x86.CondNE, x86.R11)
		g.emit(x86.NewInst(x86.AND, 1, x86.RegOp(x86.R10), x86.RegOp(x86.R11)))
	case ir.PredOLT:
		cmp(x86.XMM1, x86.XMM0)
		set(x86.CondA, x86.R10)
	case ir.PredOLE:
		cmp(x86.XMM1, x86.XMM0)
		set(x86.CondAE, x86.R10)
	case ir.PredOGT:
		cmp(x86.XMM0, x86.XMM1)
		set(x86.CondA, x86.R10)
	case ir.PredOGE:
		cmp(x86.XMM0, x86.XMM1)
		set(x86.CondAE, x86.R10)
	case ir.PredUNO:
		cmp(x86.XMM0, x86.XMM1)
		set(x86.CondP, x86.R10)
	default:
		g.err = fmt.Errorf("unhandled fcmp pred %s", in.Pred)
		return
	}
	g.storeVal(in, x86.R10)
}

func (g *x86gen) genBinary(in *ir.Instr) {
	if ir.IsFloat(in.Ty) {
		f32 := in.Ty.(*ir.FloatType).Bits == 32
		var op x86.Op
		switch in.Op {
		case ir.OpFAdd:
			op = x86.ADDSD
			if f32 {
				op = x86.ADDSS
			}
		case ir.OpFSub:
			op = x86.SUBSD
			if f32 {
				op = x86.SUBSS
			}
		case ir.OpFMul:
			op = x86.MULSD
			if f32 {
				op = x86.MULSS
			}
		case ir.OpFDiv:
			op = x86.DIVSD
			if f32 {
				op = x86.DIVSS
			}
		}
		g.loadFP(in.Args[0], x86.XMM0)
		g.loadFP(in.Args[1], x86.XMM1)
		g.emit(x86.NewInst(op, 0, x86.RegOp(x86.XMM0), x86.RegOp(x86.XMM1)))
		g.storeFP(in, x86.XMM0)
		return
	}

	w := width(in.Ty)
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor:
		op := map[ir.Op]x86.Op{ir.OpAdd: x86.ADD, ir.OpSub: x86.SUB, ir.OpAnd: x86.AND, ir.OpOr: x86.OR, ir.OpXor: x86.XOR}[in.Op]
		g.loadVal(in.Args[0], x86.R10)
		if c, ok := ir.ConstIntValue(in.Args[1]); ok && fitsI32(c) {
			g.emit(x86.NewInst(op, w, x86.RegOp(x86.R10), x86.ImmOp(c)))
		} else {
			g.loadVal(in.Args[1], x86.RCX)
			g.emit(x86.NewInst(op, w, x86.RegOp(x86.R10), x86.RegOp(x86.RCX)))
		}
		g.storeVal(in, x86.R10)

	case ir.OpMul:
		g.loadVal(in.Args[0], x86.R10)
		g.loadVal(in.Args[1], x86.RCX)
		mw := w
		if mw == 1 {
			mw = 4 // low 8 bits of a 32-bit product are correct
		}
		g.emit(x86.NewInst(x86.IMUL, mw, x86.RegOp(x86.R10), x86.RegOp(x86.RCX)))
		g.storeVal(in, x86.R10)

	case ir.OpSDiv, ir.OpSRem:
		if w >= 4 {
			g.loadVal(in.Args[0], x86.RAX)
			g.loadVal(in.Args[1], x86.RCX)
			if w == 8 {
				g.emit(x86.NewInst(x86.CQO, 8))
			} else {
				g.emit(x86.NewInst(x86.CDQ, 4))
			}
			g.emit(x86.NewInst(x86.IDIV, w, x86.RegOp(x86.RCX)))
		} else {
			g.loadValSext(in.Args[0], x86.RAX)
			g.loadValSext(in.Args[1], x86.RCX)
			g.emit(x86.NewInst(x86.CDQ, 4))
			g.emit(x86.NewInst(x86.IDIV, 4, x86.RegOp(x86.RCX)))
		}
		if in.Op == ir.OpSDiv {
			g.storeVal(in, x86.RAX)
		} else {
			g.storeVal(in, x86.RDX)
		}

	case ir.OpUDiv, ir.OpURem:
		g.loadZext(in.Args[0], x86.RAX)
		g.loadZext(in.Args[1], x86.RCX)
		dw := w
		if dw < 4 {
			dw = 4
		}
		g.emit(x86.NewInst(x86.XOR, 4, x86.RegOp(x86.RDX), x86.RegOp(x86.RDX)))
		g.emit(x86.NewInst(x86.DIV, dw, x86.RegOp(x86.RCX)))
		if in.Op == ir.OpUDiv {
			g.storeVal(in, x86.RAX)
		} else {
			g.storeVal(in, x86.RDX)
		}

	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		op := map[ir.Op]x86.Op{ir.OpShl: x86.SHL, ir.OpLShr: x86.SHR, ir.OpAShr: x86.SAR}[in.Op]
		g.loadVal(in.Args[0], x86.R10)
		if c, ok := ir.ConstIntValue(in.Args[1]); ok {
			g.emit(x86.NewInst(op, w, x86.RegOp(x86.R10), x86.ImmOp(c)))
		} else {
			g.loadVal(in.Args[1], x86.RCX)
			g.emit(x86.NewInst(op, w, x86.RegOp(x86.R10), x86.RegOp(x86.RCX)))
		}
		g.storeVal(in, x86.R10)

	default:
		g.err = fmt.Errorf("unhandled binary op %s", in.Op)
	}
}

// loadZext loads v zero-extended from its natural width to 64 bits.
func (g *x86gen) loadZext(v ir.Value, r x86.Reg) {
	if c, ok := v.(*ir.ConstInt); ok {
		mask := ^uint64(0)
		if w := width(v.Type()); w < 8 {
			mask = 1<<(uint(w)*8) - 1
		}
		g.emit(x86.NewInst(x86.MOV, 8, x86.RegOp(r), x86.ImmOp(forceImm64(0))))
		g.patchLastImm64(int64(uint64(c.V) & mask))
		return
	}
	switch width(v.Type()) {
	case 8:
		g.loadVal(v, r)
	case 4:
		g.emit(x86.NewInst(x86.MOV, 4, x86.RegOp(r), g.slotMem(v)))
	case 2:
		g.emit(x86.Inst{Op: x86.MOVZX, Size: 4, SrcSize: 2, Ops: []x86.Operand{x86.RegOp(r), g.slotMem(v)}})
	default:
		g.emit(x86.Inst{Op: x86.MOVZX, Size: 4, SrcSize: 1, Ops: []x86.Operand{x86.RegOp(r), g.slotMem(v)}})
	}
}

func (g *x86gen) genCast(in *ir.Instr) {
	switch in.Op {
	case ir.OpTrunc, ir.OpBitcast, ir.OpIntToPtr, ir.OpPtrToInt:
		g.loadVal(in.Args[0], x86.R10)
		g.storeVal(in, x86.R10)
	case ir.OpZext:
		g.loadZext(in.Args[0], x86.R10)
		g.storeVal(in, x86.R10)
	case ir.OpSext:
		g.loadValSext(in.Args[0], x86.R10)
		g.storeVal(in, x86.R10)
	case ir.OpSIToFP:
		g.loadValSext(in.Args[0], x86.R10)
		g.emit(x86.NewInst(x86.CVTSI2SD, 8, x86.RegOp(x86.XMM0), x86.RegOp(x86.R10)))
		if ft := in.Ty.(*ir.FloatType); ft.Bits == 32 {
			g.emit(x86.NewInst(x86.CVTSD2SS, 0, x86.RegOp(x86.XMM0), x86.RegOp(x86.XMM0)))
		}
		g.storeFP(in, x86.XMM0)
	case ir.OpFPToSI:
		g.loadFP(in.Args[0], x86.XMM0)
		if ft := in.Args[0].Type().(*ir.FloatType); ft.Bits == 32 {
			g.emit(x86.NewInst(x86.CVTSS2SD, 0, x86.RegOp(x86.XMM0), x86.RegOp(x86.XMM0)))
		}
		g.emit(x86.NewInst(x86.CVTTSD2SI, 8, x86.RegOp(x86.R10), x86.RegOp(x86.XMM0)))
		g.storeVal(in, x86.R10)
	case ir.OpFPExt:
		g.loadFP(in.Args[0], x86.XMM0)
		g.emit(x86.NewInst(x86.CVTSS2SD, 0, x86.RegOp(x86.XMM0), x86.RegOp(x86.XMM0)))
		g.storeFP(in, x86.XMM0)
	case ir.OpFPTrunc:
		g.loadFP(in.Args[0], x86.XMM0)
		g.emit(x86.NewInst(x86.CVTSD2SS, 0, x86.RegOp(x86.XMM0), x86.RegOp(x86.XMM0)))
		g.storeFP(in, x86.XMM0)
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
