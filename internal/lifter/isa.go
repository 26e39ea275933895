package lifter

import (
	"lasagne/internal/machine"
	"lasagne/internal/x86"
)

// ISA describes x86-64 under the System-V calling convention to the shared
// machine layer. Register numbers are the x86.Reg values (GP then XMM).
var ISA = &machine.ISA[x86.Inst]{
	Span: func(in *x86.Inst) (uint64, int) { return in.Addr, in.Len },
	Flow: func(in *x86.Inst) (machine.Flow, uint64) {
		tgt, direct := in.BranchTarget()
		switch in.Op {
		case x86.JMP:
			if !direct {
				return machine.Indirect, 0
			}
			return machine.Jump, tgt
		case x86.JCC:
			return machine.CondJump, tgt
		case x86.CALL:
			return machine.Call, 0
		case x86.RET:
			return machine.Return, 0
		case x86.UD2:
			return machine.Trap, 0
		}
		return machine.Next, 0
	},
	UseDef:    useDef,
	IntParams: regs(x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9),
	FPParams:  regs(x86.XMM0, x86.XMM1, x86.XMM2, x86.XMM3, x86.XMM4, x86.XMM5, x86.XMM6, x86.XMM7),
	IntRet:    machine.Reg(x86.RAX),
	FPRet:     machine.Reg(x86.XMM0),
	FPParam:   sseParamKind,
	RegNames:  machine.RegNames[x86.Reg](int(x86.XMM15) + 1),
	SP:        machine.Reg(x86.RSP),
	Flags:     []string{"zf", "sf", "cf", "of", "pf"},
	Reserves:  reserves,
}

// reserves returns the stack bytes a static "sub rsp, imm" or a push
// reserves.
func reserves(in *x86.Inst) int64 {
	switch {
	case in.Op == x86.SUB && in.Ops[0].Kind == x86.KindReg && in.Ops[0].Reg == x86.RSP && in.Ops[1].Kind == x86.KindImm:
		return in.Ops[1].Imm
	case in.Op == x86.PUSH:
		return 8
	}
	return 0
}

func regs(rs ...x86.Reg) []machine.Reg {
	out := make([]machine.Reg, len(rs))
	for i, r := range rs {
		out[i] = machine.Reg(r)
	}
	return out
}

// callerSaved are the registers clobbered by a call under System-V.
var callerSaved = func() machine.Regs {
	var s machine.Regs
	for _, r := range []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RSI, x86.RDI, x86.R8, x86.R9, x86.R10, x86.R11} {
		s.Add(machine.Reg(r))
	}
	for r := x86.XMM0; r <= x86.XMM15; r++ {
		s.Add(machine.Reg(r))
	}
	return s
}()

// useDef returns the registers read and written by one instruction. Memory
// operand base/index registers are always uses.
func useDef(in *x86.Inst) (uses, defs machine.Regs) {
	use := func(r x86.Reg) { uses.Add(machine.Reg(r)) }
	def := func(r x86.Reg) { defs.Add(machine.Reg(r)) }
	for _, o := range in.Ops {
		if o.Kind != x86.KindMem {
			continue
		}
		if o.Mem.Base != x86.RegNone && o.Mem.Base != x86.RIP {
			use(o.Mem.Base)
		}
		if o.Mem.Index != x86.RegNone {
			use(o.Mem.Index)
		}
	}
	reg := func(i int) (x86.Reg, bool) {
		if i < len(in.Ops) && in.Ops[i].Kind == x86.KindReg {
			return in.Ops[i].Reg, true
		}
		return 0, false
	}

	switch in.Op {
	case x86.MOV, x86.MOVZX, x86.MOVSX, x86.MOVSXD, x86.LEA,
		x86.MOVSD_X, x86.MOVSS_X, x86.MOVQ, x86.MOVD, x86.MOVAPS, x86.MOVUPS,
		x86.CVTSI2SD, x86.CVTTSD2SI, x86.CVTSS2SD, x86.CVTSD2SS, x86.SETCC:
		// dst := f(src): dst written (if register), src read.
		if r, ok := reg(0); ok {
			def(r)
		}
		if r, ok := reg(1); ok {
			use(r)
		}
	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR,
		x86.SHL, x86.SHR, x86.SAR, x86.NEG, x86.NOT,
		x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.SQRTSD,
		x86.ADDSS, x86.SUBSS, x86.MULSS, x86.DIVSS,
		x86.PXOR, x86.XORPS, x86.ADDPD, x86.MULPD, x86.ADDPS, x86.PADDD,
		x86.CMOVCC:
		// dst := dst op src. An xor/pxor of a register with itself is the
		// conventional zeroing idiom: a pure definition, not a use.
		zeroIdiom := (in.Op == x86.XOR || in.Op == x86.PXOR || in.Op == x86.XORPS) &&
			len(in.Ops) == 2 && in.Ops[0].Kind == x86.KindReg && in.Ops[1].Kind == x86.KindReg &&
			in.Ops[0].Reg == in.Ops[1].Reg
		if r, ok := reg(0); ok {
			def(r)
			if !zeroIdiom {
				use(r)
			}
		}
		if r, ok := reg(1); ok && !zeroIdiom {
			use(r)
		}
	case x86.CMP, x86.TEST, x86.UCOMISD:
		for i := 0; i < 2; i++ {
			if r, ok := reg(i); ok {
				use(r)
			}
		}
	case x86.IMUL:
		if r, ok := reg(0); ok {
			def(r)
			if len(in.Ops) == 2 {
				use(r)
			}
		}
		if r, ok := reg(1); ok {
			use(r)
		}
	case x86.IMUL1, x86.MUL1, x86.IDIV, x86.DIV:
		use(x86.RAX)
		use(x86.RDX)
		def(x86.RAX)
		def(x86.RDX)
		if r, ok := reg(0); ok {
			use(r)
		}
	case x86.CQO, x86.CDQ:
		use(x86.RAX)
		def(x86.RDX)
	case x86.PUSH:
		if r, ok := reg(0); ok {
			use(r)
		}
		use(x86.RSP)
		def(x86.RSP)
	case x86.POP:
		if r, ok := reg(0); ok {
			def(r)
		}
		use(x86.RSP)
		def(x86.RSP)
	case x86.XCHG, x86.XADD:
		for i := 0; i < 2; i++ {
			if r, ok := reg(i); ok {
				use(r)
				def(r)
			}
		}
	case x86.CMPXCHG:
		use(x86.RAX)
		def(x86.RAX)
		if r, ok := reg(0); ok {
			use(r)
			def(r)
		}
		if r, ok := reg(1); ok {
			use(r)
		}
	case x86.CALL:
		// Calls clobber all caller-saved registers. Argument registers are
		// not modeled as uses here; parameter discovery relies on reads
		// that occur before the call (mctoll behaves equivalently because
		// compilers load argument registers immediately before calls).
		defs = callerSaved
		if r, ok := reg(0); ok {
			use(r)
		}
	}
	// Shift by CL reads RCX.
	if (in.Op == x86.SHL || in.Op == x86.SHR || in.Op == x86.SAR) &&
		len(in.Ops) == 2 && in.Ops[1].Kind == x86.KindReg {
		use(x86.RCX)
	}
	return uses, defs
}

// sseParamKind derives an XMM parameter's width from the first scalar
// instruction that names the register (§4.1: scalar instructions
// determine float vs double).
func sseParamKind(f *machine.Function[x86.Inst], r machine.Reg) machine.ParamKind {
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			for _, o := range in.Ops {
				if o.Kind != x86.KindReg || o.Reg != x86.Reg(r) {
					continue
				}
				switch in.Op {
				case x86.MOVSS_X, x86.ADDSS, x86.SUBSS, x86.MULSS, x86.DIVSS, x86.CVTSS2SD:
					return machine.ParamF32
				case x86.MOVSD_X, x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.UCOMISD, x86.CVTSD2SS:
					return machine.ParamF64
				}
			}
		}
	}
	return machine.ParamF64
}
