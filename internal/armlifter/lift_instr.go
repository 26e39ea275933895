package armlifter

import (
	"fmt"

	"lasagne/internal/arm64"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/obj"
)

// NZCV flag indices.
const (
	fN = iota
	fZ
	fC
	fV
	numFlags
)

type fnLifter struct {
	l  *ModuleLifter
	mf *mfunc
	f  *ir.Func
	b  *ir.Builder

	irBlocks map[uint64]*ir.Block
	regSlot  map[arm64.Reg]*ir.Instr
	flagSlot [numFlags]*ir.Instr
	stack    *ir.Instr
	stackTop ir.Value

	regVal map[arm64.Reg]ir.Value

	spKnown   bool
	spOff     int64
	snapKnown bool
	snapOff   int64
}

// LiftFunc translates one declared function's body. Functions may be
// lifted concurrently: each only writes its own IR function.
func (ml *ModuleLifter) LiftFunc(name string) error {
	mf := ml.funcs[name]
	if mf == nil {
		return fmt.Errorf("armlifter: function %q was never declared", name)
	}
	f := ml.mod.Func(name)
	fl := &fnLifter{l: ml, mf: mf, f: f, irBlocks: map[uint64]*ir.Block{}, regSlot: map[arm64.Reg]*ir.Instr{}}

	// Frame size: sum of prologue SP decrements plus slack.
	var frame int64 = 64
	for _, b := range mf.blocks {
		for _, u := range b.units {
			if u.kind == unitInst && u.inst.Op == arm64.SUBI && u.inst.Rd == arm64.SP && u.inst.Rn == arm64.SP {
				frame += u.inst.Imm
			}
		}
	}
	frame = (frame + 15) &^ 15

	entry := f.NewBlock("entry")
	fl.b = ir.NewBuilder(entry)
	fl.stack = fl.b.Alloca(ir.ArrayOf(ir.I8, int(frame)))
	fl.stack.Nam = "stack"
	fl.stackTop = fl.b.Bitcast(fl.stack, ir.PointerTo(ir.I8))
	fl.stackTop.(*ir.Instr).Nam = "stacktop"
	for i := 0; i < numFlags; i++ {
		fl.flagSlot[i] = fl.b.Alloca(ir.I1)
	}
	fl.flagSlot[fN].Nam, fl.flagSlot[fZ].Nam = "nf", "zf"
	fl.flagSlot[fC].Nam, fl.flagSlot[fV].Nam = "cf", "vf"
	fl.spKnown = true
	fl.spOff = frame - 16

	for _, mb := range mf.blocks {
		fl.irBlocks[mb.start] = f.NewBlock(fmt.Sprintf("bb_%x", mb.start))
	}

	fl.regVal = map[arm64.Reg]ir.Value{}
	intIdx, fpIdx := 0, 0
	for i, pt := range mf.sig.Params {
		pv := f.Params[i]
		if pt == ir.F64 {
			fl.writeReg(arm64.D0+arm64.Reg(fpIdx), fl.b.Bitcast(pv, ir.I64))
			fpIdx++
		} else {
			fl.writeReg(arm64.X0+arm64.Reg(intIdx), pv)
			intIdx++
		}
	}
	fl.b.Br(fl.irBlocks[mf.blocks[0].start])

	for i, mb := range mf.blocks {
		fl.b = ir.NewBuilder(fl.irBlocks[mb.start])
		fl.regVal = map[arm64.Reg]ir.Value{}
		if i > 0 {
			fl.spKnown, fl.spOff = fl.snapKnown, fl.snapOff
		}
		if err := fl.liftBlock(mb); err != nil {
			return err
		}
		if i == 0 {
			fl.snapKnown, fl.snapOff = fl.spKnown, fl.spOff
		}
	}
	return nil
}

func (fl *fnLifter) slot(r arm64.Reg) *ir.Instr {
	if s, ok := fl.regSlot[r]; ok {
		return s
	}
	entry := fl.f.Entry()
	s := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PointerTo(ir.I64), Elem: ir.I64, Nam: r.String()}
	entry.InsertBefore(s, entry.Instrs[0])
	fl.regSlot[r] = s
	return s
}

// readReg returns the 64-bit value of a register (XZR reads zero).
func (fl *fnLifter) readReg(r arm64.Reg) ir.Value {
	if r == arm64.XZR {
		return ir.I64Const(0)
	}
	if r == arm64.SP {
		if fl.spKnown {
			return fl.frameAddr(fl.spOff)
		}
		// fall through to a slot (never written in our binaries)
	}
	if v, ok := fl.regVal[r]; ok {
		return v
	}
	v := fl.b.Load(fl.slot(r))
	fl.regVal[r] = v
	return v
}

// readRegW reads the low w bytes.
func (fl *fnLifter) readRegW(r arm64.Reg, w int) ir.Value {
	v := fl.readReg(r)
	if w == 8 {
		return v
	}
	return fl.b.Trunc(v, lifter.IntType(w))
}

func (fl *fnLifter) writeReg(r arm64.Reg, v ir.Value) {
	if r == arm64.XZR {
		return
	}
	fl.regVal[r] = fl.maybeSymbolize(v)
	fl.b.Store(fl.regVal[r], fl.slot(r))
}

// writeRegW writes an iW value zero-extended (A64 semantics: 32-bit results
// zero the upper half; byte/half writes only occur via loads which also
// zero-extend).
func (fl *fnLifter) writeRegW(r arm64.Reg, w int, v ir.Value) {
	if w == 8 {
		fl.writeReg(r, v)
		return
	}
	fl.writeReg(r, fl.b.Zext(v, ir.I64))
}

func (fl *fnLifter) frameAddr(off int64) ir.Value {
	tos := fl.b.PtrToInt(fl.stackTop, ir.I64)
	if off == 0 {
		return tos
	}
	return fl.b.Add(tos, ir.I64Const(off))
}

// maybeSymbolize rediscovers global/function references in constants that
// were composed by MOVZ/MOVK sequences.
func (fl *fnLifter) maybeSymbolize(v ir.Value) ir.Value {
	if c, ok := v.(*ir.ConstInt); ok {
		if p := lifter.SymbolRef(fl.b, fl.l.mod, fl.l.file, c.V); p != nil {
			return p
		}
	}
	return v
}

func (fl *fnLifter) setFlag(i int, v ir.Value) { fl.b.Store(v, fl.flagSlot[i]) }
func (fl *fnLifter) getFlag(i int) ir.Value    { return fl.b.Load(fl.flagSlot[i]) }

// flagsSub materializes NZCV for a-b at width w.
func (fl *fnLifter) flagsSub(a, b ir.Value) {
	ty := a.Type().(*ir.IntType)
	zero := ir.IntConst(ty, 0)
	r := fl.b.Sub(a, b)
	fl.setFlag(fN, fl.b.ICmp(ir.PredSLT, r, zero))
	fl.setFlag(fZ, fl.b.ICmp(ir.PredEQ, a, b))
	fl.setFlag(fC, fl.b.ICmp(ir.PredUGE, a, b))
	x1 := fl.b.Xor(a, b)
	x2 := fl.b.Xor(a, r)
	fl.setFlag(fV, fl.b.ICmp(ir.PredSLT, fl.b.And(x1, x2), zero))
}

// cond materializes an i1 for an A64 condition from the flag slots.
func (fl *fnLifter) cond(cc arm64.Cond) ir.Value {
	not := func(v ir.Value) ir.Value { return fl.b.Xor(v, ir.I1Const(true)) }
	switch cc {
	case arm64.EQ:
		return fl.getFlag(fZ)
	case arm64.NE:
		return not(fl.getFlag(fZ))
	case arm64.HS:
		return fl.getFlag(fC)
	case arm64.LO:
		return not(fl.getFlag(fC))
	case arm64.MI:
		return fl.getFlag(fN)
	case arm64.PL:
		return not(fl.getFlag(fN))
	case arm64.VS:
		return fl.getFlag(fV)
	case arm64.VC:
		return not(fl.getFlag(fV))
	case arm64.HI:
		return fl.b.And(fl.getFlag(fC), not(fl.getFlag(fZ)))
	case arm64.LS:
		return fl.b.Or(not(fl.getFlag(fC)), fl.getFlag(fZ))
	case arm64.GE:
		return not(fl.b.Xor(fl.getFlag(fN), fl.getFlag(fV)))
	case arm64.LT:
		return fl.b.Xor(fl.getFlag(fN), fl.getFlag(fV))
	case arm64.GT:
		return fl.b.And(not(fl.getFlag(fZ)), not(fl.b.Xor(fl.getFlag(fN), fl.getFlag(fV))))
	case arm64.LE:
		return fl.b.Or(fl.getFlag(fZ), fl.b.Xor(fl.getFlag(fN), fl.getFlag(fV)))
	}
	return ir.I1Const(true)
}

// FP helpers: D-register slots hold raw bits as i64.
func (fl *fnLifter) readF64(r arm64.Reg) ir.Value {
	return fl.b.Bitcast(fl.readReg(r), ir.F64)
}

func (fl *fnLifter) writeF64(r arm64.Reg, v ir.Value) {
	fl.writeReg(r, fl.b.Bitcast(v, ir.I64))
}

func (fl *fnLifter) liftBlock(mb *mblock) error {
	for i, u := range mb.units {
		last := i == len(mb.units)-1
		if u.kind != unitInst {
			fl.liftAtomic(u)
			if last && len(mb.succs) == 1 {
				fl.b.Br(fl.irBlocks[mb.succs[0].start])
			}
			continue
		}
		in := u.inst
		switch in.Op {
		case arm64.B:
			fl.b.Br(fl.irBlocks[uint64(in.Imm)])
			return nil
		case arm64.BCOND:
			c := fl.cond(in.Cond)
			fl.b.CondBr(c, fl.irBlocks[uint64(in.Imm)], fl.irBlocks[mb.succs[1].start])
			return nil
		case arm64.CBZ, arm64.CBNZ:
			v := fl.readRegW(in.Rd, widthOf(in.Size))
			pred := ir.PredEQ
			if in.Op == arm64.CBNZ {
				pred = ir.PredNE
			}
			c := fl.b.ICmp(pred, v, ir.IntConst(lifter.IntType(widthOf(in.Size)), 0))
			fl.b.CondBr(c, fl.irBlocks[uint64(in.Imm)], fl.irBlocks[mb.succs[1].start])
			return nil
		case arm64.RET:
			switch fl.mf.sig.Ret {
			case ir.I64:
				fl.b.Ret(fl.readReg(arm64.X0))
			case ir.F64:
				fl.b.Ret(fl.readF64(arm64.D0))
			default:
				fl.b.Ret(nil)
			}
			return nil
		default:
			if err := fl.liftInst(in); err != nil {
				return fmt.Errorf("at %#x (%s): %w", in.Addr, in.String(), err)
			}
		}
		if last {
			if len(mb.succs) != 1 {
				return fmt.Errorf("block at %#x falls off the end", mb.start)
			}
			fl.b.Br(fl.irBlocks[mb.succs[0].start])
		}
	}
	return nil
}

// liftAtomic lowers a recognized LL/SC idiom to a seq_cst atomic.
func (fl *fnLifter) liftAtomic(u unit) {
	b := fl.b
	addr := fl.readReg(u.addrReg)
	w := widthOf(u.size)
	p := b.IntToPtr(addr, ir.PointerTo(lifter.IntType(w)))
	switch u.kind {
	case unitRMW:
		operand := fl.readRegW(u.operand, w)
		old := b.RMW(u.rmwOp, p, operand)
		fl.writeRegW(u.result, w, old)
	case unitCAS:
		expect := fl.readRegW(u.expect, w)
		newV := fl.readRegW(u.operand, w)
		old := b.CmpXchg(p, expect, newV)
		fl.flagsSub(expect, old)
		fl.writeRegW(u.result, w, old)
	}
}

func widthOf(size int) int {
	if size == 0 {
		return 8
	}
	return size
}

func (fl *fnLifter) liftInst(in arm64.Inst) error {
	b := fl.b
	w := widthOf(in.Size)

	switch in.Op {
	case arm64.NOP:
		return nil

	case arm64.DMB:
		// Appendix B: DMBLD -> Frm, DMBST -> Fww, DMBFF -> Fsc.
		switch in.Barrier {
		case arm64.BarrierISHLD:
			b.Fence(ir.FenceRM)
		case arm64.BarrierISHST:
			b.Fence(ir.FenceWW)
		default:
			b.Fence(ir.FenceSC)
		}
		return nil

	case arm64.ADD, arm64.SUB, arm64.AND, arm64.ORR, arm64.EOR, arm64.SUBS:
		a := fl.readRegW(in.Rn, w)
		c := fl.readRegW(in.Rm, w)
		var r ir.Value
		switch in.Op {
		case arm64.ADD:
			r = b.Add(a, c)
		case arm64.SUB:
			r = b.Sub(a, c)
		case arm64.SUBS:
			fl.flagsSub(a, c)
			r = b.Sub(a, c)
		case arm64.AND:
			r = b.And(a, c)
		case arm64.ORR:
			r = b.Or(a, c)
		case arm64.EOR:
			r = b.Xor(a, c)
		}
		fl.writeRegW(in.Rd, w, r)
		return nil

	case arm64.ADDI, arm64.SUBI, arm64.SUBSI:
		// Symbolic SP adjustment.
		if in.Rd == arm64.SP && in.Rn == arm64.SP && fl.spKnown && in.Op != arm64.SUBSI {
			if in.Op == arm64.ADDI {
				fl.spOff += in.Imm
			} else {
				fl.spOff -= in.Imm
			}
			return nil
		}
		a := fl.readRegW(in.Rn, w)
		c := ir.IntConst(lifter.IntType(w), in.Imm)
		switch in.Op {
		case arm64.ADDI:
			fl.writeRegW(in.Rd, w, b.Add(a, c))
		case arm64.SUBI:
			fl.writeRegW(in.Rd, w, b.Sub(a, c))
		case arm64.SUBSI:
			fl.flagsSub(a, c)
			fl.writeRegW(in.Rd, w, b.Sub(a, c))
		}
		return nil

	case arm64.MADD, arm64.MSUB:
		a := fl.readRegW(in.Rn, w)
		c := fl.readRegW(in.Rm, w)
		acc := fl.readRegW(in.Ra, w)
		prod := b.Mul(a, c)
		if in.Op == arm64.MADD {
			fl.writeRegW(in.Rd, w, b.Add(acc, prod))
		} else {
			fl.writeRegW(in.Rd, w, b.Sub(acc, prod))
		}
		return nil

	case arm64.SDIV, arm64.UDIV:
		a := fl.readRegW(in.Rn, w)
		c := fl.readRegW(in.Rm, w)
		op := ir.OpSDiv
		if in.Op == arm64.UDIV {
			op = ir.OpUDiv
		}
		// A64 division by zero yields 0: guard with a select.
		zero := ir.IntConst(lifter.IntType(w), 0)
		isZero := b.ICmp(ir.PredEQ, c, zero)
		safe := b.Select(isZero, ir.IntConst(lifter.IntType(w), 1), c)
		q := b.Bin(op, a, safe)
		fl.writeRegW(in.Rd, w, b.Select(isZero, zero, q))
		return nil

	case arm64.LSLV, arm64.LSRV, arm64.ASRV, arm64.LSLI, arm64.LSRI, arm64.ASRI:
		a := fl.readRegW(in.Rn, w)
		var cnt ir.Value
		switch in.Op {
		case arm64.LSLI, arm64.LSRI, arm64.ASRI:
			cnt = ir.IntConst(lifter.IntType(w), in.Imm)
		default:
			cnt = b.And(fl.readRegW(in.Rm, w), ir.IntConst(lifter.IntType(w), int64(w*8-1)))
		}
		var r ir.Value
		switch in.Op {
		case arm64.LSLV, arm64.LSLI:
			r = b.Shl(a, cnt)
		case arm64.LSRV, arm64.LSRI:
			r = b.Bin(ir.OpLShr, a, cnt)
		default:
			r = b.Bin(ir.OpAShr, a, cnt)
		}
		fl.writeRegW(in.Rd, w, r)
		return nil

	case arm64.SXTB, arm64.SXTH, arm64.SXTW:
		srcW := map[arm64.Op]int{arm64.SXTB: 1, arm64.SXTH: 2, arm64.SXTW: 4}[in.Op]
		v := fl.readRegW(in.Rn, srcW)
		fl.writeReg(in.Rd, b.Sext(v, ir.I64))
		return nil
	case arm64.UXTB, arm64.UXTH:
		srcW := 1
		if in.Op == arm64.UXTH {
			srcW = 2
		}
		v := fl.readRegW(in.Rn, srcW)
		fl.writeReg(in.Rd, b.Zext(v, ir.I64))
		return nil

	case arm64.MOVZ:
		fl.writeReg(in.Rd, ir.I64Const(in.Imm<<(16*uint(in.Shift))))
		return nil
	case arm64.MOVN:
		fl.writeReg(in.Rd, ir.I64Const(^(in.Imm << (16 * uint(in.Shift)))))
		return nil
	case arm64.MOVK:
		sh := 16 * uint(in.Shift)
		old := fl.readReg(in.Rd)
		// Fold constant compositions so addresses symbolize.
		if c, ok := old.(*ir.ConstInt); ok {
			nv := c.V&^(0xFFFF<<sh) | in.Imm<<sh
			fl.writeReg(in.Rd, ir.I64Const(nv))
			return nil
		}
		cleared := b.And(old, ir.I64Const(^(0xFFFF << sh)))
		fl.writeReg(in.Rd, b.Or(cleared, ir.I64Const(in.Imm<<sh)))
		return nil

	case arm64.CSEL, arm64.CSINC:
		c := fl.cond(in.Cond)
		a := fl.readRegW(in.Rn, w)
		d := fl.readRegW(in.Rm, w)
		if in.Op == arm64.CSINC {
			d = b.Add(d, ir.IntConst(lifter.IntType(w), 1))
		}
		fl.writeRegW(in.Rd, w, b.Select(c, a, d))
		return nil

	case arm64.LDR, arm64.LDUR, arm64.LDRR:
		addr := fl.loadStoreAddr(in)
		if in.Rd.IsFP() {
			ty := ir.Type(ir.F64)
			if in.Size == 4 {
				ty = ir.F32
			}
			p := b.IntToPtr(addr, ir.PointerTo(ty))
			v := b.Load(p)
			if in.Size == 4 {
				bits := b.Bitcast(v, &ir.IntType{Bits: 32})
				fl.writeReg(in.Rd, b.Zext(bits, ir.I64))
			} else {
				fl.writeF64(in.Rd, v)
			}
			return nil
		}
		p := b.IntToPtr(addr, ir.PointerTo(lifter.IntType(in.Size)))
		v := b.Load(p)
		fl.writeRegW(in.Rd, in.Size, v)
		return nil

	case arm64.STR, arm64.STUR, arm64.STRR:
		addr := fl.loadStoreAddr(in)
		if in.Rd.IsFP() {
			if in.Size == 4 {
				bits := b.Trunc(fl.readReg(in.Rd), &ir.IntType{Bits: 32})
				v := b.Bitcast(bits, ir.F32)
				p := b.IntToPtr(addr, ir.PointerTo(ir.F32))
				b.Store(v, p)
			} else {
				p := b.IntToPtr(addr, ir.PointerTo(ir.F64))
				b.Store(fl.readF64(in.Rd), p)
			}
			return nil
		}
		p := b.IntToPtr(addr, ir.PointerTo(lifter.IntType(in.Size)))
		b.Store(fl.readRegW(in.Rd, in.Size), p)
		return nil

	case arm64.LDRSB, arm64.LDRSH, arm64.LDRSW:
		addr := fl.loadStoreAddr(in)
		p := b.IntToPtr(addr, ir.PointerTo(lifter.IntType(in.Size)))
		v := b.Load(p)
		fl.writeReg(in.Rd, b.Sext(v, ir.I64))
		return nil

	case arm64.LDAR:
		// Acquire load round-trips to an acquire-ordered IR load, keeping
		// its ordering through a re-translation instead of degrading to a
		// plain access.
		addr := fl.readReg(in.Rn)
		p := b.IntToPtr(addr, ir.PointerTo(lifter.IntType(in.Size)))
		v := b.LoadAtomic(p, ir.Acquire)
		fl.writeRegW(in.Rd, in.Size, v)
		return nil

	case arm64.STLR:
		addr := fl.readReg(in.Rn)
		p := b.IntToPtr(addr, ir.PointerTo(lifter.IntType(in.Size)))
		b.StoreAtomic(fl.readRegW(in.Rd, in.Size), p, ir.Release)
		return nil

	case arm64.BL:
		return fl.liftCall(in)

	case arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV:
		op := map[arm64.Op]ir.Op{arm64.FADD: ir.OpFAdd, arm64.FSUB: ir.OpFSub, arm64.FMUL: ir.OpFMul, arm64.FDIV: ir.OpFDiv}[in.Op]
		if in.Size == 4 {
			a := fl.readF32(in.Rn)
			c := fl.readF32(in.Rm)
			fl.writeF32(in.Rd, b.Bin(op, a, c))
			return nil
		}
		fl.writeF64(in.Rd, b.Bin(op, fl.readF64(in.Rn), fl.readF64(in.Rm)))
		return nil

	case arm64.FCMP:
		var a, c ir.Value
		if in.Size == 4 {
			a, c = fl.readF32(in.Rn), fl.readF32(in.Rm)
		} else {
			a, c = fl.readF64(in.Rn), fl.readF64(in.Rm)
		}
		// NZCV per A64 FCMP: see the simulator's table.
		olt := b.FCmp(ir.PredOLT, a, c)
		oeq := b.FCmp(ir.PredOEQ, a, c)
		uno := b.FCmp(ir.PredUNO, a, c)
		fl.setFlag(fN, olt)
		fl.setFlag(fZ, oeq)
		// C = a >= c or unordered.
		oge := b.FCmp(ir.PredOGE, a, c)
		fl.setFlag(fC, b.Or(oge, uno))
		fl.setFlag(fV, uno)
		return nil

	case arm64.FMOV:
		fl.writeReg(in.Rd, fl.readReg(in.Rn))
		return nil
	case arm64.FMOVTOG:
		fl.writeRegW(in.Rd, in.Size, fl.readRegW(in.Rn, in.Size))
		return nil
	case arm64.FMOVTOF:
		v := fl.readRegW(in.Rn, in.Size)
		if in.Size == 4 {
			fl.writeReg(in.Rd, b.Zext(v, ir.I64))
		} else {
			fl.writeReg(in.Rd, v)
		}
		return nil

	case arm64.SCVTF:
		v := fl.readReg(in.Rn)
		if in.Size == 4 {
			fl.writeF32(in.Rd, b.SIToFP(v, ir.F32))
		} else {
			fl.writeF64(in.Rd, b.SIToFP(v, ir.F64))
		}
		return nil
	case arm64.FCVTZS:
		var v ir.Value
		if in.Size == 4 {
			v = fl.readF32(in.Rn)
		} else {
			v = fl.readF64(in.Rn)
		}
		fl.writeReg(in.Rd, b.FPToSI(v, ir.I64))
		return nil
	case arm64.FCVTDS:
		fl.writeF64(in.Rd, b.Cast(ir.OpFPExt, fl.readF32(in.Rn), ir.F64))
		return nil
	case arm64.FCVTSD:
		fl.writeF32(in.Rd, b.Cast(ir.OpFPTrunc, fl.readF64(in.Rn), ir.F32))
		return nil
	}
	return fmt.Errorf("unsupported instruction %s", in.Op)
}

func (fl *fnLifter) readF32(r arm64.Reg) ir.Value {
	bits := fl.b.Trunc(fl.readReg(r), &ir.IntType{Bits: 32})
	return fl.b.Bitcast(bits, ir.F32)
}

func (fl *fnLifter) writeF32(r arm64.Reg, v ir.Value) {
	bits := fl.b.Bitcast(v, &ir.IntType{Bits: 32})
	fl.writeReg(r, fl.b.Zext(bits, ir.I64))
}

// loadStoreAddr computes the effective address of a load/store unit.
func (fl *fnLifter) loadStoreAddr(in arm64.Inst) ir.Value {
	b := fl.b
	if in.Rn == arm64.SP && fl.spKnown && in.Op != arm64.LDRR && in.Op != arm64.STRR {
		return fl.frameAddr(fl.spOff + in.Imm)
	}
	base := fl.readReg(in.Rn)
	switch in.Op {
	case arm64.LDRR, arm64.STRR:
		off := fl.readReg(in.Rm)
		if in.Imm == 1 {
			off = b.Shl(off, ir.I64Const(int64(shiftFor(in.Size))))
		}
		return b.Add(base, off)
	default:
		if in.Imm != 0 {
			return b.Add(base, ir.I64Const(in.Imm))
		}
		return base
	}
}

func shiftFor(size int) int {
	switch size {
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	return 0
}

// liftCall translates a BL using the callee's discovered or runtime
// signature.
func (fl *fnLifter) liftCall(in arm64.Inst) error {
	sym := fl.l.file.SymbolAt(uint64(in.Imm))
	if sym == nil || (sym.Kind != obj.SymFunc && sym.Kind != obj.SymExtern) {
		return fmt.Errorf("call to unknown target %#x", uint64(in.Imm))
	}
	callee := fl.l.mod.Func(sym.Name)
	if callee == nil {
		return fmt.Errorf("call to unlifted function %q", sym.Name)
	}
	b := fl.b
	intIdx, fpIdx := 0, 0
	var args []ir.Value
	for _, pt := range callee.Sig.Params {
		switch t := pt.(type) {
		case *ir.FloatType:
			if t.Bits == 32 {
				args = append(args, fl.readF32(arm64.D0+arm64.Reg(fpIdx)))
			} else {
				args = append(args, fl.readF64(arm64.D0+arm64.Reg(fpIdx)))
			}
			fpIdx++
		case *ir.PtrType:
			raw := fl.readReg(arm64.X0 + arm64.Reg(intIdx))
			args = append(args, b.IntToPtr(raw, t))
			intIdx++
		default:
			args = append(args, fl.readReg(arm64.X0+arm64.Reg(intIdx)))
			intIdx++
		}
	}
	res := b.Call(callee, args...)
	switch rt := callee.Sig.Ret.(type) {
	case *ir.IntType:
		v := ir.Value(res)
		if rt.Bits < 64 {
			v = b.Zext(res, ir.I64)
		}
		fl.writeReg(arm64.X0, v)
	case *ir.FloatType:
		if rt.Bits == 32 {
			fl.writeF32(arm64.D0, res)
		} else {
			fl.writeF64(arm64.D0, res)
		}
	case *ir.PtrType:
		fl.writeReg(arm64.X0, b.PtrToInt(res, ir.I64))
	}
	return nil
}
