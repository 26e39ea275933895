// Package armlifter lifts Arm64 binaries to the IR — the Appendix B
// direction of the paper (Arm → IR → x86). Decoding (internal/mc), CFG
// reconstruction, liveness, §4.1 type discovery and the function-lifting
// frame (internal/machine: symbolic SP tracking, per-register slots with
// block-local value caching, terminators, call marshalling) are the layers
// the x86 lifter uses, driven by this package's AAPCS description. This
// package adds the A64 semantics: eager NZCV flag materialization, XZR,
// and global/function rediscovery from composed MOVZ/MOVK constants.
//
// Arm's LL/SC read-modify-write loops (the canonical
// `dmb; L: ldxr; op; stxr; cbnz L; dmb` sequence emitted by compilers) are
// recognized as idioms and lifted to seq_cst atomicrmw/cmpxchg, matching
// the Appendix B mapping table:
//
//	ld      -> ld.na        DMBLD -> Frm
//	st      -> st.na        DMBST -> Fww
//	RMW     -> RMWsc        DMBFF -> Fsc
//
// The resulting IR compiles with the x86-64 backend, whose Fsc -> MFENCE /
// Frm,Fww -> (nothing) lowering completes the weak-to-strong translation.
package armlifter

import (
	"fmt"

	"lasagne/internal/arm64"
	"lasagne/internal/ir"
	"lasagne/internal/machine"
	"lasagne/internal/obj"
)

// unit is one lifting unit: a plain instruction or a recognized atomic
// idiom spanning several instructions.
type unit struct {
	inst arm64.Inst // valid when kind == unitInst
	kind unitKind

	// Atomic idiom fields.
	rmwOp   ir.RMWOp
	size    int
	addrReg arm64.Reg
	operand arm64.Reg // value register (RMW) or new-value register (CAS)
	expect  arm64.Reg // expected-value register (CAS)
	result  arm64.Reg // register receiving the old value
	addr    uint64
	length  int // bytes covered
}

type unitKind int

const (
	unitInst unitKind = iota
	unitRMW
	unitCAS
)

// frontend is the Arm64 lifter as the shared lifting frame drives it.
var frontend = &machine.Frontend[arm64.Inst, unit]{
	Name:   "armlifter",
	Arch:   "arm64",
	Decode: arm64.DecodeAll,
	Units:  recognizeAtomics,
	ISA:    isa,
	LiftInst: func(fr *machine.Frame[unit], u *unit) error {
		if u.kind != unitInst {
			fnLifter{fr}.liftAtomic(*u)
			return nil
		}
		return fnLifter{fr}.liftInst(u.inst)
	},
	BranchCond: func(fr *machine.Frame[unit], u *unit) ir.Value { return fnLifter{fr}.branchCond(u.inst) },
}

// Lift translates an entire Arm64 object file into an IR module.
func Lift(file *obj.File) (*ir.Module, error) { return machine.Lift(frontend, file) }

// ModuleLifter lifts one Arm64 object in stages (see machine.ModuleLifter);
// declaring a function first collapses its atomic idioms into units.
type ModuleLifter = machine.ModuleLifter[arm64.Inst, unit]

// Begin decodes each function symbol of the object. When bad is non-nil, a
// function that sits outside .text or holds an undecodable word is reported
// through bad and dropped instead of failing the whole object. Object-level
// problems (wrong architecture, missing .text) still return an error.
func Begin(file *obj.File, bad func(sym obj.Symbol, err error)) (*ModuleLifter, error) {
	return machine.Begin(frontend, file, bad)
}

// String prints a plain instruction in assembly syntax.
func (u unit) String() string {
	if u.kind != unitInst {
		return "ldxr/stxr idiom"
	}
	return u.inst.String()
}

// recognizeAtomics scans the instruction stream for the canonical LL/SC
// idioms and collapses them into single units.
//
//	RMW:  DMBFF; L: ldxr Rb,[Ra]; <op> Rc,...; stxr We,Rc,[Ra]; cbnz We,L; DMBFF
//	CAS:  DMBFF; L: ldxr Rb,[Ra]; subs zr,Rb,Rc; b.ne +12; stxr We,Rd,[Ra]; cbnz We,L; DMBFF
func recognizeAtomics(insts []arm64.Inst) ([]unit, error) {
	out := make([]unit, 0, len(insts))
	for i := 0; i < len(insts); i++ {
		in := insts[i]
		if in.Op != arm64.LDXR && in.Op != arm64.LDAXR {
			out = append(out, unit{inst: in})
			continue
		}
		// Try the CAS shape first (it is longer).
		if i+4 < len(insts) {
			cmp, bne, stxr, cbnz := insts[i+1], insts[i+2], insts[i+3], insts[i+4]
			if cmp.Op == arm64.SUBS && cmp.Rd == arm64.XZR && cmp.Rn == in.Rd &&
				bne.Op == arm64.BCOND && bne.Cond == arm64.NE &&
				(stxr.Op == arm64.STXR || stxr.Op == arm64.STLXR) && stxr.Rn == in.Rn &&
				cbnz.Op == arm64.CBNZ && cbnz.Rd == stxr.Ra && uint64(cbnz.Imm) == in.Addr &&
				uint64(bne.Imm) == cbnz.Addr+4 {
				out = append(out, unit{
					kind: unitCAS, size: in.Size,
					addrReg: in.Rn, expect: cmp.Rm, operand: stxr.Rd, result: in.Rd,
					addr: in.Addr, length: 5 * 4,
				})
				i += 4
				continue
			}
		}
		// RMW shape.
		if i+3 < len(insts) {
			op, stxr, cbnz := insts[i+1], insts[i+2], insts[i+3]
			var rmwOp ir.RMWOp
			matched := true
			switch op.Op {
			case arm64.ADD:
				rmwOp = ir.RMWAdd
			case arm64.SUB:
				rmwOp = ir.RMWSub
			case arm64.AND:
				rmwOp = ir.RMWAnd
			case arm64.ORR:
				if op.Rn == arm64.XZR {
					rmwOp = ir.RMWXchg
				} else {
					rmwOp = ir.RMWOr
				}
			case arm64.EOR:
				rmwOp = ir.RMWXor
			default:
				matched = false
			}
			if matched &&
				(stxr.Op == arm64.STXR || stxr.Op == arm64.STLXR) && stxr.Rn == in.Rn && stxr.Rd == op.Rd &&
				cbnz.Op == arm64.CBNZ && cbnz.Rd == stxr.Ra && uint64(cbnz.Imm) == in.Addr {
				operand := op.Rm
				if rmwOp != ir.RMWXchg && op.Rn != in.Rd {
					// Operand on the left instead.
					operand = op.Rn
				}
				out = append(out, unit{
					kind: unitRMW, rmwOp: rmwOp, size: in.Size,
					addrReg: in.Rn, operand: operand, result: in.Rd,
					addr: in.Addr, length: 4 * 4,
				})
				i += 3
				continue
			}
		}
		return nil, fmt.Errorf("unrecognized exclusive-access idiom at %#x", in.Addr)
	}
	return out, nil
}

// isa describes Arm64 under the AAPCS to the shared machine layer. Register
// numbers are the arm64.Reg values: X0-X30, XZR, SP, then D0-D31.
var isa = &machine.ISA[unit]{
	Span: func(u *unit) (uint64, int) {
		if u.kind == unitInst {
			return u.inst.Addr, 4
		}
		return u.addr, u.length
	},
	Flow: func(u *unit) (machine.Flow, uint64) {
		if u.kind != unitInst {
			return machine.Next, 0
		}
		switch in := u.inst; in.Op {
		case arm64.B:
			return machine.Jump, uint64(in.Imm)
		case arm64.BCOND, arm64.CBZ, arm64.CBNZ:
			return machine.CondJump, uint64(in.Imm)
		case arm64.BR:
			return machine.Indirect, 0
		case arm64.RET:
			return machine.Return, 0
		case arm64.BL:
			return machine.Call, 0
		}
		return machine.Next, 0
	},
	UseDef:    unitUseDef,
	IntParams: regRange(arm64.X0, 8),
	FPParams:  regRange(arm64.D0, 8),
	IntRet:    machine.Reg(arm64.X0),
	FPRet:     machine.Reg(arm64.D0),
	RegNames:  machine.RegNames[arm64.Reg](int(arm64.D31) + 1),
	SP:        machine.Reg(arm64.SP),
	Flags:     []string{"nf", "zf", "cf", "vf"},
	Reserves: func(u *unit) int64 {
		if in := &u.inst; u.kind == unitInst && in.Op == arm64.SUBI && in.Rd == arm64.SP && in.Rn == arm64.SP {
			return in.Imm
		}
		return 0
	},
}

func regRange(first arm64.Reg, n int) []machine.Reg {
	out := make([]machine.Reg, n)
	for i := range out {
		out[i] = machine.Reg(first) + machine.Reg(i)
	}
	return out
}

// unitUseDef returns the registers a unit reads and writes (approximate;
// SP and XZR excluded).
func unitUseDef(u *unit) (uses, defs machine.Regs) {
	switch u.kind {
	case unitCAS:
		addRegs(&uses, u.addrReg, u.operand, u.expect)
		addRegs(&defs, u.result)
		return uses, defs
	case unitRMW:
		addRegs(&uses, u.addrReg, u.operand)
		addRegs(&defs, u.result)
		return uses, defs
	}
	in := &u.inst
	switch in.Op {
	case arm64.ADD, arm64.SUB, arm64.SUBS, arm64.AND, arm64.ORR, arm64.EOR,
		arm64.SDIV, arm64.UDIV, arm64.LSLV, arm64.LSRV, arm64.ASRV,
		arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV, arm64.CSEL, arm64.CSINC:
		addRegs(&uses, in.Rn, in.Rm)
		addRegs(&defs, in.Rd)
	case arm64.ADDI, arm64.SUBI, arm64.SUBSI, arm64.LSLI, arm64.LSRI, arm64.ASRI,
		arm64.SXTB, arm64.SXTH, arm64.SXTW, arm64.UXTB, arm64.UXTH,
		arm64.FMOV, arm64.FMOVTOG, arm64.FMOVTOF, arm64.SCVTF, arm64.FCVTZS,
		arm64.FCVTDS, arm64.FCVTSD, arm64.FSQRT,
		arm64.LDR, arm64.LDUR, arm64.LDRSB, arm64.LDRSH, arm64.LDRSW, arm64.LDAR:
		addRegs(&uses, in.Rn)
		addRegs(&defs, in.Rd)
	case arm64.MADD, arm64.MSUB:
		addRegs(&uses, in.Rn, in.Rm, in.Ra)
		addRegs(&defs, in.Rd)
	case arm64.MOVZ, arm64.MOVN:
		addRegs(&defs, in.Rd)
	case arm64.MOVK:
		addRegs(&uses, in.Rd)
		addRegs(&defs, in.Rd)
	case arm64.LDRR:
		addRegs(&uses, in.Rn, in.Rm)
		addRegs(&defs, in.Rd)
	case arm64.STR, arm64.STUR, arm64.STLR:
		addRegs(&uses, in.Rd, in.Rn)
	case arm64.STRR:
		addRegs(&uses, in.Rd, in.Rn, in.Rm)
	case arm64.FCMP:
		addRegs(&uses, in.Rn, in.Rm)
	case arm64.CBZ, arm64.CBNZ:
		addRegs(&uses, in.Rd)
	case arm64.BL:
		// Calls clobber caller-saved registers; argument registers are
		// read before the call (same approximation as the x86 lifter).
		defs = callerSaved
	case arm64.BLR, arm64.BR:
		addRegs(&uses, in.Rn)
	}
	return uses, defs
}

// callerSaved are the registers a call clobbers under the AAPCS, as the
// lifter models it: X0-X18 and D0-D31.
var callerSaved = func() machine.Regs {
	var s machine.Regs
	for r := arm64.X0; r <= arm64.X18; r++ {
		s.Add(machine.Reg(r))
	}
	for r := arm64.D0; r <= arm64.D31; r++ {
		s.Add(machine.Reg(r))
	}
	return s
}()

func addRegs(s *machine.Regs, rs ...arm64.Reg) {
	for _, r := range rs {
		if r != arm64.XZR && r != arm64.SP && r != arm64.RegNone {
			s.Add(machine.Reg(r))
		}
	}
}
