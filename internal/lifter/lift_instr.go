package lifter

import (
	"fmt"

	"lasagne/internal/ir"
	"lasagne/internal/machine"
	"lasagne/internal/x86"
)

// frameRegImmArith handles add/sub of an immediate on a register that holds
// a known frame offset (RSP, RBP): it moves the offset and emits nothing.
func (fl fnLifter) frameRegImmArith(in x86.Inst) bool {
	if (in.Op != x86.ADD && in.Op != x86.SUB) || len(in.Ops) != 2 || in.Ops[0].Kind != x86.KindReg || in.Ops[1].Kind != x86.KindImm {
		return false
	}
	r, imm := in.Ops[0].Reg, in.Ops[1].Imm
	off, ok := fl.known(r)
	if in.Op == x86.SUB {
		imm = -imm
	}
	if ok {
		fl.SetKnown(machine.Reg(r), off+imm)
	}
	return ok
}

func (fl fnLifter) liftInst(in x86.Inst) error {
	w := in.Size
	if w == 0 {
		w = 8
	}
	b := fl.B

	switch in.Op {
	case x86.NOP:
		return nil

	case x86.MFENCE:
		b.Fence(ir.FenceSC)
		return nil

	case x86.MOV:
		dst, src := in.Ops[0], in.Ops[1]
		// Frame-register moves stay symbolic.
		if off, ok := fl.known(src.Reg); ok && w == 8 && dst.Kind == x86.KindReg && src.Kind == x86.KindReg {
			fl.SetKnown(machine.Reg(dst.Reg), off)
			return nil
		}
		v := fl.readOp(in, src, w)
		fl.writeOp(in, dst, w, v)
		return nil

	case x86.LEA:
		addr := fl.memAddr(in, in.Ops[1].Mem)
		fl.writeRegW(in.Ops[0].Reg, w, fl.TruncTo(addr, w))
		return nil

	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR:
		if fl.frameRegImmArith(in) {
			return nil
		}
		dst, src := in.Ops[0], in.Ops[1]
		// xor r, r zeroing idiom.
		if in.Op == x86.XOR && dst.Kind == x86.KindReg && src.Kind == x86.KindReg && dst.Reg == src.Reg {
			zero := ir.IntConst(machine.IntType(w), 0)
			fl.writeRegW(dst.Reg, w, zero)
			fl.flagsLogic(zero)
			return nil
		}
		a := fl.readOp(in, dst, w)
		c := fl.readOp(in, src, w)
		var r *ir.Instr
		switch in.Op {
		case x86.ADD:
			r = b.Add(a, c)
			fl.flagsAdd(a, c, r)
		case x86.SUB:
			r = b.Sub(a, c)
			fl.flagsSub(a, c, r)
		case x86.AND:
			r = b.And(a, c)
			fl.flagsLogic(r)
		case x86.OR:
			r = b.Or(a, c)
			fl.flagsLogic(r)
		case x86.XOR:
			r = b.Xor(a, c)
			fl.flagsLogic(r)
		}
		fl.writeOp(in, dst, w, r)
		return nil

	case x86.CMP:
		a := fl.readOp(in, in.Ops[0], w)
		c := fl.readOp(in, in.Ops[1], w)
		fl.flagsSub(a, c, b.Sub(a, c))
		return nil

	case x86.TEST:
		a := fl.readOp(in, in.Ops[0], w)
		c := fl.readOp(in, in.Ops[1], w)
		fl.flagsLogic(b.And(a, c))
		return nil

	case x86.IMUL:
		switch len(in.Ops) {
		case 2:
			a := fl.readOp(in, in.Ops[0], w)
			c := fl.readOp(in, in.Ops[1], w)
			r := b.Mul(a, c)
			fl.flagsLogic(r) // CF/OF approximated as cleared
			fl.writeRegW(in.Ops[0].Reg, w, r)
		case 3:
			c := fl.readOp(in, in.Ops[1], w)
			r := b.Mul(c, ir.IntConst(machine.IntType(w), in.Ops[2].Imm))
			fl.flagsLogic(r)
			fl.writeRegW(in.Ops[0].Reg, w, r)
		}
		return nil

	case x86.IDIV:
		// The dividend RDX:RAX was produced by CQO/CDQ, so it equals the
		// sign extension of RAX at this width.
		a := fl.readRegW(x86.RAX, w)
		d := fl.readOp(in, in.Ops[0], w)
		q := b.Bin(ir.OpSDiv, a, d)
		r := b.Bin(ir.OpSRem, a, d)
		fl.writeRegW(x86.RAX, w, q)
		fl.writeRegW(x86.RDX, w, r)
		return nil

	case x86.DIV:
		a := fl.readRegW(x86.RAX, w)
		d := fl.readOp(in, in.Ops[0], w)
		q := b.Bin(ir.OpUDiv, a, d)
		r := b.Bin(ir.OpURem, a, d)
		fl.writeRegW(x86.RAX, w, q)
		fl.writeRegW(x86.RDX, w, r)
		return nil

	case x86.IMUL1, x86.MUL1:
		// Only the low half of the product is modeled.
		a := fl.readRegW(x86.RAX, w)
		d := fl.readOp(in, in.Ops[0], w)
		fl.writeRegW(x86.RAX, w, b.Mul(a, d))
		fl.writeRegW(x86.RDX, w, ir.IntConst(machine.IntType(w), 0))
		return nil

	case x86.NEG:
		a := fl.readOp(in, in.Ops[0], w)
		zero := ir.IntConst(machine.IntType(w), 0)
		r := b.Sub(zero, a)
		fl.flagsSub(zero, a, r)
		fl.writeOp(in, in.Ops[0], w, r)
		return nil

	case x86.NOT:
		a := fl.readOp(in, in.Ops[0], w)
		fl.writeOp(in, in.Ops[0], w, b.Xor(a, ir.IntConst(machine.IntType(w), -1)))
		return nil

	case x86.SHL, x86.SHR, x86.SAR:
		a := fl.readOp(in, in.Ops[0], w)
		var cnt ir.Value
		if in.Ops[1].Kind == x86.KindImm {
			cnt = ir.IntConst(machine.IntType(w), in.Ops[1].Imm)
		} else {
			c8 := fl.readRegW(x86.RCX, 1)
			if w == 1 {
				cnt = c8
			} else {
				cnt = b.Zext(c8, machine.IntType(w))
			}
		}
		mask := int64(31)
		if w == 8 {
			mask = 63
		}
		cnt = b.And(cnt, ir.IntConst(machine.IntType(w), mask))
		var r *ir.Instr
		switch in.Op {
		case x86.SHL:
			r = b.Shl(a, cnt)
		case x86.SHR:
			r = b.Bin(ir.OpLShr, a, cnt)
		case x86.SAR:
			r = b.Bin(ir.OpAShr, a, cnt)
		}
		fl.flagsLogic(r)
		fl.writeOp(in, in.Ops[0], w, r)
		return nil

	case x86.CQO:
		fl.writeReg64(x86.RDX, b.Bin(ir.OpAShr, fl.readReg64(x86.RAX), ir.I64Const(63)))
		return nil
	case x86.CDQ:
		eax := fl.readRegW(x86.RAX, 4)
		fl.writeRegW(x86.RDX, 4, b.Bin(ir.OpAShr, eax, ir.I32Const(31)))
		return nil

	case x86.MOVZX:
		v := fl.readOp(in, in.Ops[1], in.SrcSize)
		fl.writeRegW(in.Ops[0].Reg, w, b.Zext(v, machine.IntType(w)))
		return nil
	case x86.MOVSX, x86.MOVSXD:
		v := fl.readOp(in, in.Ops[1], in.SrcSize)
		fl.writeRegW(in.Ops[0].Reg, w, b.Sext(v, machine.IntType(w)))
		return nil

	case x86.PUSH:
		if off, ok := fl.known(x86.RSP); ok {
			fl.SetKnown(machine.Reg(x86.RSP), off-8)
			v := fl.readOp(in, in.Ops[0], 8)
			addr := fl.FrameAddr(off - 8)
			p := b.IntToPtr(addr, ir.PointerTo(ir.I64))
			b.Store(v, p)
			return nil
		}
		return fmt.Errorf("push with unknown stack pointer")

	case x86.POP:
		if off, ok := fl.known(x86.RSP); ok {
			addr := fl.FrameAddr(off)
			p := b.IntToPtr(addr, ir.PointerTo(ir.I64))
			v := b.Load(p)
			fl.SetKnown(machine.Reg(x86.RSP), off+8)
			fl.writeReg64(in.Ops[0].Reg, v)
			return nil
		}
		return fmt.Errorf("pop with unknown stack pointer")

	case x86.SETCC:
		c := fl.cond(in, in.Cond)
		fl.writeOp(in, in.Ops[0], 1, b.Zext(c, ir.I8))
		return nil

	case x86.CMOVCC:
		c := fl.cond(in, in.Cond)
		a := fl.readRegW(in.Ops[0].Reg, w)
		v := fl.readOp(in, in.Ops[1], w)
		fl.writeRegW(in.Ops[0].Reg, w, b.Select(c, v, a))
		return nil

	case x86.CALL:
		if in.Ops[0].Kind != x86.KindImm {
			return fmt.Errorf("indirect call (unsupported, as in mctoll)")
		}
		return fl.Call(uint64(in.Ops[0].Imm))

	case x86.XCHG:
		dst, src := in.Ops[0], in.Ops[1]
		if dst.Kind == x86.KindMem {
			addr := fl.memAddr(in, dst.Mem)
			p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(w)))
			v := fl.readRegW(src.Reg, w)
			old := b.RMW(ir.RMWXchg, p, v)
			fl.writeRegW(src.Reg, w, old)
			return nil
		}
		a := fl.readRegW(dst.Reg, w)
		c := fl.readRegW(src.Reg, w)
		fl.writeRegW(dst.Reg, w, c)
		fl.writeRegW(src.Reg, w, a)
		return nil

	case x86.CMPXCHG:
		addr := fl.memAddr(in, in.Ops[0].Mem)
		p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(w)))
		expected := fl.readRegW(x86.RAX, w)
		newV := fl.readRegW(in.Ops[1].Reg, w)
		old := b.CmpXchg(p, expected, newV)
		fl.flagsSub(expected, old, b.Sub(expected, old))
		fl.writeRegW(x86.RAX, w, old)
		return nil

	case x86.XADD:
		addr := fl.memAddr(in, in.Ops[0].Mem)
		p := b.IntToPtr(addr, ir.PointerTo(machine.IntType(w)))
		v := fl.readRegW(in.Ops[1].Reg, w)
		old := b.RMW(ir.RMWAdd, p, v)
		fl.flagsAdd(old, v, b.Add(old, v))
		fl.writeRegW(in.Ops[1].Reg, w, old)
		return nil

	// --- SSE (§4.2.2) ---

	case x86.MOVSD_X, x86.MOVSS_X:
		fw := 8
		if in.Op == x86.MOVSS_X {
			fw = 4
		}
		dst, src := in.Ops[0], in.Ops[1]
		switch {
		case dst.Kind == x86.KindReg && src.Kind == x86.KindReg && fw == 8:
			fl.writeReg64(dst.Reg, fl.readReg64(src.Reg))
		case dst.Kind == x86.KindReg && src.Kind == x86.KindReg:
			// Merge the low 32 bits.
			old := fl.readReg64(dst.Reg)
			cleared := b.And(old, ir.I64Const(^int64(0xFFFFFFFF)))
			low := b.Zext(b.Trunc(fl.readReg64(src.Reg), ir.I32), ir.I64)
			fl.writeReg64(dst.Reg, b.Or(cleared, low))
		case dst.Kind == x86.KindReg:
			fl.writeXMM(dst.Reg, fw, fl.readFPOp(in, src, fw))
		default:
			p := b.IntToPtr(fl.memAddr(in, dst.Mem), ir.PointerTo(machine.FloatType(fw)))
			b.Store(fl.readXMM(src.Reg, fw), p)
		}
		return nil

	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.ADDSS, x86.SUBSS, x86.MULSS, x86.DIVSS:
		op := sseArith[in.Op]
		a := fl.readXMM(in.Ops[0].Reg, op.w)
		c := fl.readFPOp(in, in.Ops[1], op.w)
		fl.writeXMM(in.Ops[0].Reg, op.w, b.Bin(op.op, a, c))
		return nil

	case x86.UCOMISD:
		a := fl.readXMM(in.Ops[0].Reg, 8)
		c := fl.readFPOp(in, in.Ops[1], 8)
		one := b.FCmp(ir.PredONE, a, c)
		fl.SetFlag(fZF, b.Xor(one, ir.I1Const(true))) // equal or unordered
		fl.SetFlag(fPF, b.FCmp(ir.PredUNO, a, c))
		oge := b.FCmp(ir.PredOGE, a, c)
		fl.SetFlag(fCF, b.Xor(oge, ir.I1Const(true))) // less or unordered
		fl.SetFlag(fSF, ir.I1Const(false))
		fl.SetFlag(fOF, ir.I1Const(false))
		return nil

	case x86.CVTSI2SD:
		v := fl.readOp(in, in.Ops[1], w)
		fl.writeXMM(in.Ops[0].Reg, 8, b.SIToFP(v, ir.F64))
		return nil

	case x86.CVTTSD2SI:
		v := fl.readFPOp(in, in.Ops[1], 8)
		fl.writeRegW(in.Ops[0].Reg, w, b.FPToSI(v, machine.IntType(w)))
		return nil

	case x86.CVTSS2SD:
		v := fl.readFPOp(in, in.Ops[1], 4)
		fl.writeXMM(in.Ops[0].Reg, 8, b.Cast(ir.OpFPExt, v, ir.F64))
		return nil

	case x86.CVTSD2SS:
		v := fl.readFPOp(in, in.Ops[1], 8)
		fl.writeXMM(in.Ops[0].Reg, 4, b.Cast(ir.OpFPTrunc, v, ir.F32))
		return nil

	case x86.MOVQ, x86.MOVD:
		sz := 8
		if in.Op == x86.MOVD {
			sz = 4
		}
		dst, src := in.Ops[0], in.Ops[1]
		if dst.Kind == x86.KindReg && dst.Reg.IsXMM() {
			v := fl.readOp(in, src, sz)
			if sz == 4 {
				v = b.Zext(v, ir.I64)
			}
			fl.writeReg64(dst.Reg, v)
			return nil
		}
		v := fl.readReg64(src.Reg)
		fl.writeOp(in, dst, sz, fl.TruncTo(v, sz))
		return nil

	case x86.PXOR, x86.XORPS:
		dst, src := in.Ops[0], in.Ops[1]
		if dst.Kind == x86.KindReg && src.Kind == x86.KindReg && dst.Reg == src.Reg {
			fl.writeReg64(dst.Reg, ir.I64Const(0))
			return nil
		}
		return fmt.Errorf("packed %s beyond the zeroing idiom is unsupported", in.Op)
	}
	return fmt.Errorf("unsupported instruction %s", in.Op)
}

// sseArith is the IR operation and operand width of each scalar SSE
// arithmetic instruction.
var sseArith = map[x86.Op]struct {
	op ir.Op
	w  int
}{
	x86.ADDSD: {ir.OpFAdd, 8}, x86.SUBSD: {ir.OpFSub, 8}, x86.MULSD: {ir.OpFMul, 8}, x86.DIVSD: {ir.OpFDiv, 8},
	x86.ADDSS: {ir.OpFAdd, 4}, x86.SUBSS: {ir.OpFSub, 4}, x86.MULSS: {ir.OpFMul, 4}, x86.DIVSS: {ir.OpFDiv, 4},
}
