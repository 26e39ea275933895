package lifter

import (
	"fmt"

	"lasagne/internal/ir"
	"lasagne/internal/machine"
	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// liftBlock translates one machine block into the corresponding IR block.
// The machine layer has already rejected indirect jumps, conditional
// branches without a fall-through and blocks that fall off the end.
func (fl *fnLifter) liftBlock(mb *machine.Block[x86.Inst]) error {
	for _, in := range mb.Insts {
		switch in.Op {
		case x86.JMP:
			fl.b.Br(fl.irBlocks[mb.Succs[0].Start])
			return nil
		case x86.JCC:
			c := fl.cond(in, in.Cond)
			fl.b.CondBr(c, fl.irBlocks[mb.Succs[0].Start], fl.irBlocks[mb.Succs[1].Start])
			return nil
		case x86.RET:
			switch fl.mf.Ret {
			case machine.RetInt:
				fl.b.Ret(fl.readReg64(x86.RAX))
			case machine.RetF64:
				fl.b.Ret(fl.readXMMF64(x86.XMM0))
			default:
				fl.b.Ret(nil)
			}
			return nil
		case x86.UD2:
			fl.b.Unreachable()
			return nil
		default:
			if err := fl.liftInst(in); err != nil {
				return fmt.Errorf("at %#x (%s): %w", in.Addr, in.String(), err)
			}
		}
	}
	// Fallthrough into the next block.
	fl.b.Br(fl.irBlocks[mb.Succs[0].Start])
	return nil
}

// frameRegImmArith handles add/sub on a symbolically tracked RSP/RBP.
func (fl *fnLifter) frameRegImmArith(in x86.Inst) bool {
	if len(in.Ops) != 2 || in.Ops[0].Kind != x86.KindReg || in.Ops[1].Kind != x86.KindImm {
		return false
	}
	r := in.Ops[0].Reg
	if !fl.spKnown[r] {
		return false
	}
	switch in.Op {
	case x86.ADD:
		fl.spOff[r] += in.Ops[1].Imm
	case x86.SUB:
		fl.spOff[r] -= in.Ops[1].Imm
	default:
		return false
	}
	return true
}

func (fl *fnLifter) liftInst(in x86.Inst) error {
	w := in.Size
	if w == 0 {
		w = 8
	}
	b := fl.b

	switch in.Op {
	case x86.NOP:
		return nil

	case x86.MFENCE:
		b.Fence(ir.FenceSC)
		return nil

	case x86.MOV:
		dst, src := in.Ops[0], in.Ops[1]
		// Frame-register moves stay symbolic.
		if w == 8 && dst.Kind == x86.KindReg && src.Kind == x86.KindReg && fl.spKnown[src.Reg] {
			fl.spKnown[dst.Reg] = true
			fl.spOff[dst.Reg] = fl.spOff[src.Reg]
			delete(fl.regVal, dst.Reg)
			return nil
		}
		v := fl.readOp(in, src, w)
		fl.writeOp(in, dst, w, v)
		return nil

	case x86.LEA:
		addr := fl.memAddr(in, in.Ops[1].Mem)
		fl.writeRegW(in.Ops[0].Reg, w, fl.truncTo(addr, w))
		return nil

	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR:
		if fl.frameRegImmArith(in) {
			return nil
		}
		dst, src := in.Ops[0], in.Ops[1]
		// xor r, r zeroing idiom.
		if in.Op == x86.XOR && dst.Kind == x86.KindReg && src.Kind == x86.KindReg && dst.Reg == src.Reg {
			zero := ir.IntConst(IntType(w), 0)
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
			r := b.Mul(c, ir.IntConst(IntType(w), in.Ops[2].Imm))
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
		fl.writeRegW(x86.RDX, w, ir.IntConst(IntType(w), 0))
		return nil

	case x86.NEG:
		a := fl.readOp(in, in.Ops[0], w)
		zero := ir.IntConst(IntType(w), 0)
		r := b.Sub(zero, a)
		fl.flagsSub(zero, a, r)
		fl.writeOp(in, in.Ops[0], w, r)
		return nil

	case x86.NOT:
		a := fl.readOp(in, in.Ops[0], w)
		fl.writeOp(in, in.Ops[0], w, b.Xor(a, ir.IntConst(IntType(w), -1)))
		return nil

	case x86.SHL, x86.SHR, x86.SAR:
		a := fl.readOp(in, in.Ops[0], w)
		var cnt ir.Value
		if in.Ops[1].Kind == x86.KindImm {
			cnt = ir.IntConst(IntType(w), in.Ops[1].Imm)
		} else {
			c8 := fl.readRegW(x86.RCX, 1)
			if w == 1 {
				cnt = c8
			} else {
				cnt = b.Zext(c8, IntType(w))
			}
		}
		mask := int64(31)
		if w == 8 {
			mask = 63
		}
		cnt = b.And(cnt, ir.IntConst(IntType(w), mask))
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
		fl.writeRegW(in.Ops[0].Reg, w, b.Zext(v, IntType(w)))
		return nil
	case x86.MOVSX, x86.MOVSXD:
		v := fl.readOp(in, in.Ops[1], in.SrcSize)
		fl.writeRegW(in.Ops[0].Reg, w, b.Sext(v, IntType(w)))
		return nil

	case x86.PUSH:
		if fl.spKnown[x86.RSP] {
			fl.spOff[x86.RSP] -= 8
			v := fl.readOp(in, in.Ops[0], 8)
			addr := fl.frameAddr(fl.spOff[x86.RSP])
			p := b.IntToPtr(addr, ir.PointerTo(ir.I64))
			b.Store(v, p)
			return nil
		}
		return fmt.Errorf("push with unknown stack pointer")

	case x86.POP:
		if fl.spKnown[x86.RSP] {
			addr := fl.frameAddr(fl.spOff[x86.RSP])
			p := b.IntToPtr(addr, ir.PointerTo(ir.I64))
			v := b.Load(p)
			fl.spOff[x86.RSP] += 8
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
		return fl.liftCall(in)

	case x86.XCHG:
		dst, src := in.Ops[0], in.Ops[1]
		if dst.Kind == x86.KindMem {
			addr := fl.memAddr(in, dst.Mem)
			p := b.IntToPtr(addr, ir.PointerTo(IntType(w)))
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
		p := b.IntToPtr(addr, ir.PointerTo(IntType(w)))
		expected := fl.readRegW(x86.RAX, w)
		newV := fl.readRegW(in.Ops[1].Reg, w)
		old := b.CmpXchg(p, expected, newV)
		fl.flagsSub(expected, old, b.Sub(expected, old))
		fl.writeRegW(x86.RAX, w, old)
		return nil

	case x86.XADD:
		addr := fl.memAddr(in, in.Ops[0].Mem)
		p := b.IntToPtr(addr, ir.PointerTo(IntType(w)))
		v := fl.readRegW(in.Ops[1].Reg, w)
		old := b.RMW(ir.RMWAdd, p, v)
		fl.flagsAdd(old, v, b.Add(old, v))
		fl.writeRegW(in.Ops[1].Reg, w, old)
		return nil

	// --- SSE (§4.2.2) ---

	case x86.MOVSD_X:
		dst, src := in.Ops[0], in.Ops[1]
		switch {
		case dst.Kind == x86.KindReg && src.Kind == x86.KindReg:
			fl.writeReg64(dst.Reg, fl.readReg64(src.Reg))
		case dst.Kind == x86.KindReg:
			fl.writeXMMF64(dst.Reg, fl.readFPOp(in, src, false))
		default:
			addr := fl.memAddr(in, dst.Mem)
			p := b.IntToPtr(addr, ir.PointerTo(ir.F64))
			b.Store(fl.readXMMF64(src.Reg), p)
		}
		return nil

	case x86.MOVSS_X:
		dst, src := in.Ops[0], in.Ops[1]
		switch {
		case dst.Kind == x86.KindReg && src.Kind == x86.KindReg:
			// Merge the low 32 bits.
			old := fl.readReg64(dst.Reg)
			cleared := b.And(old, ir.I64Const(^int64(0xFFFFFFFF)))
			low := b.Zext(b.Trunc(fl.readReg64(src.Reg), ir.I32), ir.I64)
			fl.writeReg64(dst.Reg, b.Or(cleared, low))
		case dst.Kind == x86.KindReg:
			fl.writeXMMF32(dst.Reg, fl.readFPOp(in, src, true))
		default:
			addr := fl.memAddr(in, dst.Mem)
			p := b.IntToPtr(addr, ir.PointerTo(ir.F32))
			b.Store(fl.readXMMF32(src.Reg), p)
		}
		return nil

	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD:
		a := fl.readXMMF64(in.Ops[0].Reg)
		c := fl.readFPOp(in, in.Ops[1], false)
		op := map[x86.Op]ir.Op{x86.ADDSD: ir.OpFAdd, x86.SUBSD: ir.OpFSub, x86.MULSD: ir.OpFMul, x86.DIVSD: ir.OpFDiv}[in.Op]
		fl.writeXMMF64(in.Ops[0].Reg, b.Bin(op, a, c))
		return nil

	case x86.ADDSS, x86.SUBSS, x86.MULSS, x86.DIVSS:
		a := fl.readXMMF32(in.Ops[0].Reg)
		c := fl.readFPOp(in, in.Ops[1], true)
		op := map[x86.Op]ir.Op{x86.ADDSS: ir.OpFAdd, x86.SUBSS: ir.OpFSub, x86.MULSS: ir.OpFMul, x86.DIVSS: ir.OpFDiv}[in.Op]
		fl.writeXMMF32(in.Ops[0].Reg, b.Bin(op, a, c))
		return nil

	case x86.UCOMISD:
		a := fl.readXMMF64(in.Ops[0].Reg)
		c := fl.readFPOp(in, in.Ops[1], false)
		one := b.FCmp(ir.PredONE, a, c)
		fl.setFlag(fZF, b.Xor(one, ir.I1Const(true))) // equal or unordered
		fl.setFlag(fPF, b.FCmp(ir.PredUNO, a, c))
		oge := b.FCmp(ir.PredOGE, a, c)
		fl.setFlag(fCF, b.Xor(oge, ir.I1Const(true))) // less or unordered
		fl.setFlag(fSF, ir.I1Const(false))
		fl.setFlag(fOF, ir.I1Const(false))
		return nil

	case x86.CVTSI2SD:
		v := fl.readOp(in, in.Ops[1], w)
		fl.writeXMMF64(in.Ops[0].Reg, b.SIToFP(v, ir.F64))
		return nil

	case x86.CVTTSD2SI:
		v := fl.readFPOp(in, in.Ops[1], false)
		fl.writeRegW(in.Ops[0].Reg, w, b.FPToSI(v, IntType(w)))
		return nil

	case x86.CVTSS2SD:
		v := fl.readFPOp(in, in.Ops[1], true)
		fl.writeXMMF64(in.Ops[0].Reg, b.Cast(ir.OpFPExt, v, ir.F64))
		return nil

	case x86.CVTSD2SS:
		v := fl.readFPOp(in, in.Ops[1], false)
		fl.writeXMMF32(in.Ops[0].Reg, b.Cast(ir.OpFPTrunc, v, ir.F32))
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
		fl.writeOp(in, dst, sz, fl.truncTo(v, sz))
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

// truncTo narrows v to w bytes if needed.
func (fl *fnLifter) truncTo(v ir.Value, w int) ir.Value {
	if w == 8 {
		return v
	}
	return fl.b.Trunc(v, IntType(w))
}

// liftCall translates a direct call using the discovered or runtime-provided
// callee signature (§4.2.1).
func (fl *fnLifter) liftCall(in x86.Inst) error {
	if in.Ops[0].Kind != x86.KindImm {
		return fmt.Errorf("indirect call (unsupported, as in mctoll)")
	}
	target := uint64(in.Ops[0].Imm)
	sym := fl.l.file.SymbolAt(target)
	if sym == nil || (sym.Kind != obj.SymFunc && sym.Kind != obj.SymExtern) {
		return fmt.Errorf("call to unknown target %#x", target)
	}
	callee := fl.l.mod.Func(sym.Name)
	if callee == nil {
		return fmt.Errorf("call to unlifted function %q", sym.Name)
	}
	b := fl.b

	intRegs := []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}
	fpRegs := []x86.Reg{x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5, x86.XMM6, x86.XMM7}
	intIdx, fpIdx := 0, 0
	var args []ir.Value
	for _, pt := range callee.Sig.Params {
		switch t := pt.(type) {
		case *ir.FloatType:
			if t.Bits == 32 {
				args = append(args, fl.readXMMF32(fpRegs[fpIdx]))
			} else {
				args = append(args, fl.readXMMF64(fpRegs[fpIdx]))
			}
			fpIdx++
		case *ir.PtrType:
			raw := fl.readReg64(intRegs[intIdx])
			args = append(args, b.IntToPtr(raw, t))
			intIdx++
		default:
			args = append(args, fl.readReg64(intRegs[intIdx]))
			intIdx++
		}
		if intIdx > len(intRegs) || fpIdx > len(fpRegs) {
			return fmt.Errorf("call to %s exceeds register arguments", sym.Name)
		}
	}
	res := b.Call(callee, args...)
	switch rt := callee.Sig.Ret.(type) {
	case *ir.IntType:
		v := ir.Value(res)
		if rt.Bits < 64 {
			v = b.Zext(res, ir.I64)
		}
		fl.writeReg64(x86.RAX, v)
	case *ir.FloatType:
		if rt.Bits == 32 {
			fl.writeXMMF32(x86.XMM0, res)
		} else {
			fl.writeXMMF64(x86.XMM0, res)
		}
	case *ir.PtrType:
		fl.writeReg64(x86.RAX, b.PtrToInt(res, ir.I64))
	}
	return nil
}
