package arm64

import "fmt"

// String renders the instruction in standard A64 assembly syntax.
func (i Inst) String() string {
	size := i.Size
	if size == 0 {
		size = 8
	}
	n := func(r Reg) string { return r.Name(size) }
	switch i.Op {
	case NOP:
		return "nop"
	case RET:
		return "ret"
	case BR:
		return fmt.Sprintf("br %s", i.Rn)
	case BLR:
		return fmt.Sprintf("blr %s", i.Rn)
	case B, BL:
		return fmt.Sprintf("%s %#x", i.Op, uint64(i.Imm))
	case BCOND:
		return fmt.Sprintf("b.%s %#x", i.Cond, uint64(i.Imm))
	case CBZ, CBNZ:
		return fmt.Sprintf("%s %s, %#x", i.Op, n(i.Rd), uint64(i.Imm))
	case ADD, SUB, SUBS, AND, ORR, EOR, SDIV, UDIV, LSLV, LSRV, ASRV:
		if i.Op == SUBS && i.Rd == XZR {
			return fmt.Sprintf("cmp %s, %s", n(i.Rn), n(i.Rm))
		}
		if i.Op == ORR && i.Rn == XZR {
			return fmt.Sprintf("mov %s, %s", n(i.Rd), n(i.Rm))
		}
		return fmt.Sprintf("%s %s, %s, %s", i.Op, n(i.Rd), n(i.Rn), n(i.Rm))
	case ADDI, SUBI, SUBSI:
		if i.Op == SUBSI && i.Rd == XZR {
			return fmt.Sprintf("cmp %s, #%d", n(i.Rn), i.Imm)
		}
		return fmt.Sprintf("%s %s, %s, #%d", i.Op, n(i.Rd), n(i.Rn), i.Imm)
	case MADD, MSUB:
		if i.Ra == XZR && i.Op == MADD {
			return fmt.Sprintf("mul %s, %s, %s", n(i.Rd), n(i.Rn), n(i.Rm))
		}
		return fmt.Sprintf("%s %s, %s, %s, %s", i.Op, n(i.Rd), n(i.Rn), n(i.Rm), n(i.Ra))
	case LSLI, LSRI, ASRI:
		return fmt.Sprintf("%s %s, %s, #%d", i.Op, n(i.Rd), n(i.Rn), i.Imm)
	case SXTB, SXTH, SXTW, UXTB, UXTH:
		return fmt.Sprintf("%s %s, %s", i.Op, n(i.Rd), i.Rn.Name(4))
	case MOVZ, MOVN, MOVK:
		if i.Shift != 0 {
			return fmt.Sprintf("%s %s, #%d, lsl #%d", i.Op, n(i.Rd), i.Imm, i.Shift*16)
		}
		return fmt.Sprintf("%s %s, #%d", i.Op, n(i.Rd), i.Imm)
	case CSEL, CSINC:
		if i.Op == CSINC && i.Rn == XZR && i.Rm == XZR {
			return fmt.Sprintf("cset %s, %s", n(i.Rd), i.Cond.Invert())
		}
		return fmt.Sprintf("%s %s, %s, %s, %s", i.Op, n(i.Rd), n(i.Rn), n(i.Rm), i.Cond)
	case LDR, STR, LDUR, STUR, LDRSB, LDRSH, LDRSW:
		rt := i.Rd.Name(lsRegSize(i))
		if i.Imm == 0 {
			return fmt.Sprintf("%s %s, [%s]", i.Op, rt, i.Rn)
		}
		return fmt.Sprintf("%s %s, [%s, #%d]", i.Op, rt, i.Rn, i.Imm)
	case LDRR, STRR:
		rt := i.Rd.Name(lsRegSize(i))
		if i.Imm == 1 {
			return fmt.Sprintf("%s %s, [%s, %s, lsl #%d]", i.Op, rt, i.Rn, i.Rm, log2(size))
		}
		return fmt.Sprintf("%s %s, [%s, %s]", i.Op, rt, i.Rn, i.Rm)
	case LDXR, LDAXR:
		return fmt.Sprintf("%s %s, [%s]", i.Op, i.Rd.Name(size), i.Rn)
	case LDAR, STLR:
		// Sub-word widths get the B/H mnemonic suffix and a W register.
		mnem, rsize := i.Op.String(), size
		switch size {
		case 1:
			mnem, rsize = mnem+"b", 4
		case 2:
			mnem, rsize = mnem+"h", 4
		}
		return fmt.Sprintf("%s %s, [%s]", mnem, i.Rd.Name(rsize), i.Rn)
	case STXR, STLXR:
		return fmt.Sprintf("%s %s, %s, [%s]", i.Op, i.Ra.Name(4), i.Rd.Name(size), i.Rn)
	case DMB:
		return fmt.Sprintf("dmb %s", i.Barrier)
	case FADD, FSUB, FMUL, FDIV:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, n(i.Rd), n(i.Rn), n(i.Rm))
	case FSQRT, FMOV, FCVTDS, FCVTSD:
		return fmt.Sprintf("%s %s, %s", i.Op, fcvtName(i.Op, i.Rd, size, true), fcvtName(i.Op, i.Rn, size, false))
	case FCMP:
		return fmt.Sprintf("fcmp %s, %s", n(i.Rn), n(i.Rm))
	case FMOVTOG, FMOVTOF:
		return fmt.Sprintf("fmov %s, %s", i.Rd.Name(size), i.Rn.Name(size))
	case SCVTF:
		return fmt.Sprintf("scvtf %s, %s", i.Rd.Name(size), i.Rn.Name(8))
	case FCVTZS:
		return fmt.Sprintf("fcvtzs %s, %s", i.Rd.Name(8), i.Rn.Name(size))
	}
	return fmt.Sprintf("%s ???", i.Op)
}

func lsRegSize(i Inst) int {
	if i.Rd.IsFP() {
		return i.Size
	}
	switch i.Op {
	case LDRSB, LDRSH, LDRSW:
		return 8
	}
	if i.Size <= 4 {
		return 4
	}
	return 8
}

func fcvtName(op Op, r Reg, size int, isDst bool) string {
	switch op {
	case FCVTDS:
		if isDst {
			return r.Name(8)
		}
		return r.Name(4)
	case FCVTSD:
		if isDst {
			return r.Name(4)
		}
		return r.Name(8)
	}
	return r.Name(size)
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
