package armlifter

import (
	"fmt"

	"lasagne/internal/arm64"
	"lasagne/internal/ir"
	"lasagne/internal/machine"
)

// NZCV flag indices, in the order of isa.Flags.
const (
	fN = iota
	fZ
	fC
	fV
)

// fnLifter gives the Arm64 semantics their view of the lifting frame.
type fnLifter struct{ *machine.Frame[unit] }

// readReg returns the 64-bit value of a register (XZR reads zero).
func (fl fnLifter) readReg(r arm64.Reg) ir.Value {
	if r == arm64.XZR {
		return ir.I64Const(0)
	}
	return fl.Read(machine.Reg(r))
}

// readRegW reads the low w bytes.
func (fl fnLifter) readRegW(r arm64.Reg, w int) ir.Value { return fl.TruncTo(fl.readReg(r), w) }

// writeReg assigns a register; writes to XZR are dropped. Constants (those
// composed by MOVZ/MOVK sequences) are rediscovered as global/function
// references.
func (fl fnLifter) writeReg(r arm64.Reg, v ir.Value) {
	if r == arm64.XZR {
		return
	}
	if c, ok := v.(*ir.ConstInt); ok {
		if p := fl.SymbolRef(c.V); p != nil {
			v = p
		}
	}
	fl.Write(machine.Reg(r), v)
}

// writeRegW writes an iW value zero-extended (A64 semantics: 32-bit results
// zero the upper half; byte/half writes only occur via loads which also
// zero-extend).
func (fl fnLifter) writeRegW(r arm64.Reg, w int, v ir.Value) {
	if w == 8 {
		fl.writeReg(r, v)
		return
	}
	fl.writeReg(r, fl.B.Zext(v, ir.I64))
}

// D registers' slots hold raw bits as i64.

func (fl fnLifter) readFP(r arm64.Reg, w int) ir.Value     { return fl.ReadFP(machine.Reg(r), w) }
func (fl fnLifter) writeFP(r arm64.Reg, w int, v ir.Value) { fl.WriteFP(machine.Reg(r), w, v) }

// fpArith is the IR operation of each FP arithmetic instruction.
var fpArith = map[arm64.Op]ir.Op{arm64.FADD: ir.OpFAdd, arm64.FSUB: ir.OpFSub, arm64.FMUL: ir.OpFMul, arm64.FDIV: ir.OpFDiv}

// flagsSub materializes NZCV for a-b at width w.
func (fl fnLifter) flagsSub(a, b ir.Value) {
	ty := a.Type().(*ir.IntType)
	zero := ir.IntConst(ty, 0)
	r := fl.B.Sub(a, b)
	fl.SetFlag(fN, fl.B.ICmp(ir.PredSLT, r, zero))
	fl.SetFlag(fZ, fl.B.ICmp(ir.PredEQ, a, b))
	fl.SetFlag(fC, fl.B.ICmp(ir.PredUGE, a, b))
	x1 := fl.B.Xor(a, b)
	x2 := fl.B.Xor(a, r)
	fl.SetFlag(fV, fl.B.ICmp(ir.PredSLT, fl.B.And(x1, x2), zero))
}

// cond materializes an i1 for an A64 condition from the flag slots.
func (fl fnLifter) cond(cc arm64.Cond) ir.Value {
	not := func(v ir.Value) ir.Value { return fl.B.Xor(v, ir.I1Const(true)) }
	switch cc {
	case arm64.EQ:
		return fl.Flag(fZ)
	case arm64.NE:
		return not(fl.Flag(fZ))
	case arm64.HS:
		return fl.Flag(fC)
	case arm64.LO:
		return not(fl.Flag(fC))
	case arm64.MI:
		return fl.Flag(fN)
	case arm64.PL:
		return not(fl.Flag(fN))
	case arm64.VS:
		return fl.Flag(fV)
	case arm64.VC:
		return not(fl.Flag(fV))
	case arm64.HI:
		return fl.B.And(fl.Flag(fC), not(fl.Flag(fZ)))
	case arm64.LS:
		return fl.B.Or(not(fl.Flag(fC)), fl.Flag(fZ))
	case arm64.GE:
		return not(fl.B.Xor(fl.Flag(fN), fl.Flag(fV)))
	case arm64.LT:
		return fl.B.Xor(fl.Flag(fN), fl.Flag(fV))
	case arm64.GT:
		return fl.B.And(not(fl.Flag(fZ)), not(fl.B.Xor(fl.Flag(fN), fl.Flag(fV))))
	case arm64.LE:
		return fl.B.Or(fl.Flag(fZ), fl.B.Xor(fl.Flag(fN), fl.Flag(fV)))
	}
	return ir.I1Const(true)
}

// branchCond is the condition a conditional branch takes its target on.
func (fl fnLifter) branchCond(in arm64.Inst) ir.Value {
	if in.Op == arm64.BCOND {
		return fl.cond(in.Cond)
	}
	v := fl.readRegW(in.Rd, widthOf(in.Size))
	pred := ir.PredEQ
	if in.Op == arm64.CBNZ {
		pred = ir.PredNE
	}
	return fl.B.ICmp(pred, v, ir.IntConst(machine.IntType(widthOf(in.Size)), 0))
}

// liftAtomic lowers a recognized LL/SC idiom to a seq_cst atomic.
func (fl fnLifter) liftAtomic(u unit) {
	b := fl.B
	addr := fl.readReg(u.addrReg)
	w := widthOf(u.size)
	p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(w)))
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

func (fl fnLifter) liftInst(in arm64.Inst) error {
	b := fl.B
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
		if off, ok := fl.Known(machine.Reg(arm64.SP)); in.Rd == arm64.SP && in.Rn == arm64.SP && ok && in.Op != arm64.SUBSI {
			if in.Op == arm64.ADDI {
				fl.SetKnown(machine.Reg(arm64.SP), off+in.Imm)
			} else {
				fl.SetKnown(machine.Reg(arm64.SP), off-in.Imm)
			}
			return nil
		}
		a := fl.readRegW(in.Rn, w)
		c := ir.IntConst(machine.IntType(w), in.Imm)
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
		zero := ir.IntConst(machine.IntType(w), 0)
		isZero := b.ICmp(ir.PredEQ, c, zero)
		safe := b.Select(isZero, ir.IntConst(machine.IntType(w), 1), c)
		q := b.Bin(op, a, safe)
		fl.writeRegW(in.Rd, w, b.Select(isZero, zero, q))
		return nil

	case arm64.LSLV, arm64.LSRV, arm64.ASRV, arm64.LSLI, arm64.LSRI, arm64.ASRI:
		a := fl.readRegW(in.Rn, w)
		var cnt ir.Value
		switch in.Op {
		case arm64.LSLI, arm64.LSRI, arm64.ASRI:
			cnt = ir.IntConst(machine.IntType(w), in.Imm)
		default:
			cnt = b.And(fl.readRegW(in.Rm, w), ir.IntConst(machine.IntType(w), int64(w*8-1)))
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
		srcW := 4
		switch in.Op {
		case arm64.SXTB:
			srcW = 1
		case arm64.SXTH:
			srcW = 2
		}
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
			d = b.Add(d, ir.IntConst(machine.IntType(w), 1))
		}
		fl.writeRegW(in.Rd, w, b.Select(c, a, d))
		return nil

	case arm64.LDR, arm64.LDUR, arm64.LDRR:
		addr := fl.loadStoreAddr(in)
		if in.Rd.IsFP() {
			p := b.IntToPtr(addr, ir.PointerTo(machine.FloatType(in.Size)))
			fl.writeFP(in.Rd, in.Size, b.Load(p))
			return nil
		}
		p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(in.Size)))
		v := b.Load(p)
		fl.writeRegW(in.Rd, in.Size, v)
		return nil

	case arm64.STR, arm64.STUR, arm64.STRR:
		addr := fl.loadStoreAddr(in)
		if in.Rd.IsFP() {
			// The widths order the value and the address differently; the
			// lifted-IR golden pins both orders.
			if in.Size == 4 {
				v := fl.readFP(in.Rd, 4)
				b.Store(v, b.IntToPtr(addr, ir.PointerTo(ir.F32)))
			} else {
				p := b.IntToPtr(addr, ir.PointerTo(ir.F64))
				b.Store(fl.readFP(in.Rd, 8), p)
			}
			return nil
		}
		p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(in.Size)))
		b.Store(fl.readRegW(in.Rd, in.Size), p)
		return nil

	case arm64.LDRSB, arm64.LDRSH, arm64.LDRSW:
		addr := fl.loadStoreAddr(in)
		p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(in.Size)))
		v := b.Load(p)
		fl.writeReg(in.Rd, b.Sext(v, ir.I64))
		return nil

	case arm64.LDAR:
		// Acquire load round-trips to an acquire-ordered IR load, keeping
		// its ordering through a re-translation instead of degrading to a
		// plain access.
		addr := fl.readReg(in.Rn)
		p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(in.Size)))
		v := b.LoadAtomic(p, ir.Acquire)
		fl.writeRegW(in.Rd, in.Size, v)
		return nil

	case arm64.STLR:
		addr := fl.readReg(in.Rn)
		p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(in.Size)))
		b.StoreAtomic(fl.readRegW(in.Rd, in.Size), p, ir.Release)
		return nil

	case arm64.BL:
		return fl.Call(uint64(in.Imm))

	case arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV:
		fl.writeFP(in.Rd, in.Size, b.Bin(fpArith[in.Op], fl.readFP(in.Rn, in.Size), fl.readFP(in.Rm, in.Size)))
		return nil

	case arm64.FCMP:
		a, c := fl.readFP(in.Rn, in.Size), fl.readFP(in.Rm, in.Size)
		// NZCV per A64 FCMP: see the simulator's table.
		olt := b.FCmp(ir.PredOLT, a, c)
		oeq := b.FCmp(ir.PredOEQ, a, c)
		uno := b.FCmp(ir.PredUNO, a, c)
		fl.SetFlag(fN, olt)
		fl.SetFlag(fZ, oeq)
		// C = a >= c or unordered.
		oge := b.FCmp(ir.PredOGE, a, c)
		fl.SetFlag(fC, b.Or(oge, uno))
		fl.SetFlag(fV, uno)
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
		fl.writeFP(in.Rd, in.Size, b.SIToFP(fl.readReg(in.Rn), machine.FloatType(in.Size)))
		return nil
	case arm64.FCVTZS:
		fl.writeReg(in.Rd, b.FPToSI(fl.readFP(in.Rn, in.Size), ir.I64))
		return nil
	case arm64.FCVTDS:
		fl.writeFP(in.Rd, 8, b.Cast(ir.OpFPExt, fl.readFP(in.Rn, 4), ir.F64))
		return nil
	case arm64.FCVTSD:
		fl.writeFP(in.Rd, 4, b.Cast(ir.OpFPTrunc, fl.readFP(in.Rn, 8), ir.F32))
		return nil
	}
	return fmt.Errorf("unsupported instruction %s", in.Op)
}

// loadStoreAddr computes the effective address of a load/store unit.
func (fl fnLifter) loadStoreAddr(in arm64.Inst) ir.Value {
	b := fl.B
	if off, ok := fl.Known(machine.Reg(arm64.SP)); in.Rn == arm64.SP && ok && in.Op != arm64.LDRR && in.Op != arm64.STRR {
		return fl.FrameAddr(off + in.Imm)
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
