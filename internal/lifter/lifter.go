// Package lifter translates x86-64 machine functions into IR (§4.2 of the
// paper). It holds what is particular to x86-64: the System-V ISA
// description (isa.go), the instruction semantics, the eager flag
// computations and the condition-code table. Decoding, CFG reconstruction,
// type discovery and the function-lifting frame (stack frame, register
// slots, terminators, call marshalling) are internal/machine's, shared with
// the Arm64 lifter. Together they mirror mctoll's behaviour:
//
//   - registers are tracked as SSA values within a block and communicated
//     between blocks through per-register stack slots (mem2reg later
//     promotes them);
//   - processor status flags are lifted eagerly into i1 slots, including
//     the parity flag's bit-twiddling network — this is the "unnecessarily
//     lifted code" that the Opt configuration removes (§9.2);
//   - the stack frame is reconstructed as a byte-array alloca (§4.2.3) and
//     RSP/RBP-relative addresses are emitted as integer arithmetic on
//     ptrtoint(%stacktop), exactly the raw form that the §5 IR refinement
//     rewrites into getelementptr form;
//   - immediates that fall inside data or function symbols are rediscovered
//     as global/function references;
//   - concurrency primitives follow the Fig. 8a x86-to-IR mapping: LOCK
//     RMWs become seq_cst atomicrmw/cmpxchg and MFENCE becomes Fsc. The
//     Frm/Fww fences for plain loads and stores are inserted by the
//     separate fence-placement pass (internal/fences).
package lifter

import (
	"errors"
	"fmt"

	"lasagne/internal/ir"
	"lasagne/internal/machine"
	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// frontend is the x86-64 lifter as the shared lifting frame drives it.
var frontend = &machine.Frontend[x86.Inst, x86.Inst]{
	Name:   "lifter",
	Arch:   "x86-64",
	Decode: x86.DecodeAll,
	Units:  func(insts []x86.Inst) ([]x86.Inst, error) { return insts, nil },
	ISA:    ISA,
	LiftInst: func(fr *machine.Frame[x86.Inst], in *x86.Inst) error {
		return fnLifter{fr}.liftInst(*in)
	},
	BranchCond: func(fr *machine.Frame[x86.Inst], in *x86.Inst) ir.Value {
		return fnLifter{fr}.cond(*in, in.Cond)
	},
}

// Lift translates an entire x86-64 object file into an IR module.
func Lift(file *obj.File) (*ir.Module, error) { return machine.Lift(frontend, file) }

// ModuleLifter lifts one x86-64 object in stages (see machine.ModuleLifter).
// Untranslatable operand shapes make LiftFunc panic with a
// *machine.InstrError; callers that want containment wrap the call in
// diag.Guard.
type ModuleLifter = machine.ModuleLifter[x86.Inst, x86.Inst]

// BeginTolerant disassembles the object and prepares the module shell. When
// bad is non-nil, a function with undecodable bytes is reported through bad
// and dropped from the stream list instead of failing the whole object.
func BeginTolerant(file *obj.File, bad func(sym obj.Symbol, err error)) (*ModuleLifter, error) {
	return machine.Begin(frontend, file, bad)
}

// Flag indices, in the order of ISA.Flags.
const (
	fZF = iota
	fSF
	fCF
	fOF
	fPF
)

// fnLifter gives the x86-64 semantics their view of the lifting frame.
type fnLifter struct{ *machine.Frame[x86.Inst] }

func (fl fnLifter) readReg64(r x86.Reg) ir.Value     { return fl.Read(machine.Reg(r)) }
func (fl fnLifter) writeReg64(r x86.Reg, v ir.Value) { fl.Write(machine.Reg(r), v) }
func (fl fnLifter) known(r x86.Reg) (int64, bool)    { return fl.Known(machine.Reg(r)) }

// readRegW reads the low w bytes of a register as an iW value.
func (fl fnLifter) readRegW(r x86.Reg, w int) ir.Value { return fl.TruncTo(fl.readReg64(r), w) }

// writeRegW writes an iW value into a register with x86 merge semantics
// (32-bit writes zero the upper half, narrower writes merge).
func (fl fnLifter) writeRegW(r x86.Reg, w int, v ir.Value) {
	switch w {
	case 8:
		fl.writeReg64(r, v)
	case 4:
		fl.writeReg64(r, fl.B.Zext(v, ir.I64))
	default:
		old := fl.readReg64(r)
		mask := int64(1)<<(uint(w)*8) - 1
		cleared := fl.B.And(old, ir.I64Const(^mask))
		ext := fl.B.Zext(v, ir.I64)
		fl.writeReg64(r, fl.B.Or(cleared, ext))
	}
}

// symbolize turns an immediate into a global/function reference when it
// falls inside a known symbol (§4: global value discovery).
func (fl fnLifter) symbolize(v int64) ir.Value {
	if p := fl.SymbolRef(v); p != nil {
		return p
	}
	return ir.I64Const(v)
}

// memAddr computes the effective address of a memory operand as an i64.
func (fl fnLifter) memAddr(in x86.Inst, m x86.Mem) ir.Value {
	if m.Base == x86.RIP {
		return fl.symbolize(int64(in.Addr) + int64(in.Len) + int64(m.Disp))
	}
	var addr ir.Value
	if m.Base != x86.RegNone {
		if off, ok := fl.known(m.Base); ok && m.Index == x86.RegNone {
			return fl.FrameAddr(off + int64(m.Disp))
		}
		addr = fl.readReg64(m.Base)
	}
	if m.Index != x86.RegNone {
		idx := fl.readReg64(m.Index)
		if m.Scale > 1 {
			idx = fl.B.Mul(idx, ir.I64Const(int64(m.Scale)))
		}
		if addr == nil {
			addr = idx
		} else {
			addr = fl.B.Add(addr, idx)
		}
	}
	if addr == nil {
		return fl.symbolize(int64(m.Disp))
	}
	if m.Disp != 0 {
		addr = fl.B.Add(addr, ir.I64Const(int64(m.Disp)))
	}
	return addr
}

// loadMem loads w bytes from a memory operand.
func (fl fnLifter) loadMem(in x86.Inst, m x86.Mem, w int) ir.Value {
	addr := fl.memAddr(in, m)
	p := fl.B.IntToPtr(addr, ir.PointerTo(machine.IntType(w)))
	return fl.B.Load(p)
}

// storeMem stores an iW value to a memory operand.
func (fl fnLifter) storeMem(in x86.Inst, m x86.Mem, w int, v ir.Value) {
	addr := fl.memAddr(in, m)
	p := fl.B.IntToPtr(addr, ir.PointerTo(machine.IntType(w)))
	fl.B.Store(v, p)
}

// readOp reads an operand at width w.
func (fl fnLifter) readOp(in x86.Inst, o x86.Operand, w int) ir.Value {
	switch o.Kind {
	case x86.KindReg:
		return fl.readRegW(o.Reg, w)
	case x86.KindImm:
		if w == 8 {
			return fl.symbolize(o.Imm)
		}
		return ir.IntConst(machine.IntType(w), o.Imm)
	case x86.KindMem:
		return fl.loadMem(in, o.Mem, w)
	}
	panic(&machine.InstrError{Addr: in.Addr, Inst: in.String(), Err: errors.New("unreadable operand")})
}

// writeOp writes v (iW) to a register or memory operand.
func (fl fnLifter) writeOp(in x86.Inst, o x86.Operand, w int, v ir.Value) {
	switch o.Kind {
	case x86.KindReg:
		fl.writeRegW(o.Reg, w, v)
	case x86.KindMem:
		fl.storeMem(in, o.Mem, w, v)
	default:
		panic(&machine.InstrError{Addr: in.Addr, Inst: in.String(), Err: errors.New("unwritable operand")})
	}
}

// setParity lifts the parity-flag network: PF = 1 iff the low byte of r has
// an even number of set bits. This eager expansion mirrors mctoll.
func (fl fnLifter) setParity(r ir.Value) {
	byteV := r
	if ir.IntBits(r.Type()) > 8 {
		byteV = fl.B.Trunc(r, ir.I8)
	}
	x := fl.B.Xor(byteV, fl.B.Bin(ir.OpLShr, byteV, ir.IntConst(ir.I8, 4)))
	x = fl.B.Xor(x, fl.B.Bin(ir.OpLShr, x, ir.IntConst(ir.I8, 2)))
	x = fl.B.Xor(x, fl.B.Bin(ir.OpLShr, x, ir.IntConst(ir.I8, 1)))
	bit := fl.B.And(x, ir.IntConst(ir.I8, 1))
	fl.SetFlag(fPF, fl.B.ICmp(ir.PredEQ, bit, ir.IntConst(ir.I8, 0)))
}

// flagsSub sets flags for a-b (CMP/SUB/NEG/CMPXCHG).
func (fl fnLifter) flagsSub(a, b, r ir.Value) {
	zero := ir.IntConst(r.Type().(*ir.IntType), 0)
	fl.SetFlag(fZF, fl.B.ICmp(ir.PredEQ, a, b))
	fl.SetFlag(fSF, fl.B.ICmp(ir.PredSLT, r, zero))
	fl.SetFlag(fCF, fl.B.ICmp(ir.PredULT, a, b))
	x1 := fl.B.Xor(a, b)
	x2 := fl.B.Xor(a, r)
	fl.SetFlag(fOF, fl.B.ICmp(ir.PredSLT, fl.B.And(x1, x2), zero))
	fl.setParity(r)
}

// flagsAdd sets flags for a+b.
func (fl fnLifter) flagsAdd(a, b, r ir.Value) {
	zero := ir.IntConst(r.Type().(*ir.IntType), 0)
	fl.SetFlag(fZF, fl.B.ICmp(ir.PredEQ, r, zero))
	fl.SetFlag(fSF, fl.B.ICmp(ir.PredSLT, r, zero))
	fl.SetFlag(fCF, fl.B.ICmp(ir.PredULT, r, a))
	nx := fl.B.Xor(fl.B.Xor(a, b), ir.IntConst(r.Type().(*ir.IntType), -1))
	x2 := fl.B.Xor(a, r)
	fl.SetFlag(fOF, fl.B.ICmp(ir.PredSLT, fl.B.And(nx, x2), zero))
	fl.setParity(r)
}

// flagsLogic sets flags for logical results.
func (fl fnLifter) flagsLogic(r ir.Value) {
	zero := ir.IntConst(r.Type().(*ir.IntType), 0)
	fl.SetFlag(fZF, fl.B.ICmp(ir.PredEQ, r, zero))
	fl.SetFlag(fSF, fl.B.ICmp(ir.PredSLT, r, zero))
	fl.SetFlag(fCF, ir.I1Const(false))
	fl.SetFlag(fOF, ir.I1Const(false))
	fl.setParity(r)
}

// cond materializes an i1 for an x86 condition code from the flag slots.
func (fl fnLifter) cond(in x86.Inst, cc x86.Cond) ir.Value {
	not := func(v ir.Value) ir.Value { return fl.B.Xor(v, ir.I1Const(true)) }
	switch cc {
	case x86.CondE:
		return fl.Flag(fZF)
	case x86.CondNE:
		return not(fl.Flag(fZF))
	case x86.CondB:
		return fl.Flag(fCF)
	case x86.CondAE:
		return not(fl.Flag(fCF))
	case x86.CondBE:
		return fl.B.Or(fl.Flag(fCF), fl.Flag(fZF))
	case x86.CondA:
		return not(fl.B.Or(fl.Flag(fCF), fl.Flag(fZF)))
	case x86.CondS:
		return fl.Flag(fSF)
	case x86.CondNS:
		return not(fl.Flag(fSF))
	case x86.CondP:
		return fl.Flag(fPF)
	case x86.CondNP:
		return not(fl.Flag(fPF))
	case x86.CondL:
		return fl.B.Xor(fl.Flag(fSF), fl.Flag(fOF))
	case x86.CondGE:
		return not(fl.B.Xor(fl.Flag(fSF), fl.Flag(fOF)))
	case x86.CondLE:
		return fl.B.Or(fl.Flag(fZF), fl.B.Xor(fl.Flag(fSF), fl.Flag(fOF)))
	case x86.CondG:
		return not(fl.B.Or(fl.Flag(fZF), fl.B.Xor(fl.Flag(fSF), fl.Flag(fOF))))
	case x86.CondO:
		return fl.Flag(fOF)
	case x86.CondNO:
		return not(fl.Flag(fOF))
	}
	panic(&machine.InstrError{Addr: in.Addr, Inst: in.String(), Err: fmt.Errorf("unsupported condition code %d", int(cc))})
}

// XMM registers' slots hold the raw low 64 bits as i64.

func (fl fnLifter) readXMM(r x86.Reg, w int) ir.Value     { return fl.ReadFP(machine.Reg(r), w) }
func (fl fnLifter) writeXMM(r x86.Reg, w int, v ir.Value) { fl.WriteFP(machine.Reg(r), w, v) }

// readFPOp reads an xmm-or-memory operand as a float of w bytes.
func (fl fnLifter) readFPOp(in x86.Inst, o x86.Operand, w int) ir.Value {
	if o.Kind == x86.KindReg {
		return fl.readXMM(o.Reg, w)
	}
	p := fl.B.IntToPtr(fl.memAddr(in, o.Mem), ir.PointerTo(machine.FloatType(w)))
	return fl.B.Load(p)
}
