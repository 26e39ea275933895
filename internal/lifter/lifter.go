// Package lifter translates x86-64 machine functions into IR (§4.2 of the
// paper). It mirrors mctoll's behaviour:
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
	"fmt"
	"maps"

	"lasagne/internal/ir"
	"lasagne/internal/machine"
	"lasagne/internal/mc"
	"lasagne/internal/obj"
	"lasagne/internal/rt"
	"lasagne/internal/x86"
)

// InstrError is a typed lifting failure attributed to one machine
// instruction. The operand/condition helpers deep inside the lifter panic
// with it when they meet a shape they cannot translate; the fault-tolerant
// pipeline's recover boundary (diag.Guard) converts the panic back into an
// error, and Address lets diagnostics report where in the binary the
// untranslatable instruction sits.
type InstrError struct {
	Addr   uint64
	Op     string
	Detail string
}

func (e *InstrError) Error() string {
	return fmt.Sprintf("lifter: %s at %#x: %s", e.Op, e.Addr, e.Detail)
}

// Address returns the machine address of the offending instruction
// (the diag.Addresser contract).
func (e *InstrError) Address() uint64 { return e.Addr }

// Shell returns the module a lifter fills for file, whatever its
// architecture: every runtime builtin declared, plus one [size x i8] global
// per data symbol, initialized from .data where the symbol lies inside it.
func Shell(file *obj.File) *ir.Module {
	mod := ir.NewModule(file.Entry + ".lifted")
	rt.Declare(mod)
	data := file.Section(".data")
	for _, s := range file.Symbols {
		if s.Kind != obj.SymData {
			continue
		}
		g := mod.NewGlobal(s.Name, ir.ArrayOf(ir.I8, int(s.Size)))
		if data != nil && s.Addr >= data.Addr && s.Addr+s.Size <= data.Addr+uint64(len(data.Data)) {
			g.Init = append([]byte(nil), data.Data[s.Addr-data.Addr:s.Addr-data.Addr+s.Size]...)
		}
	}
	return mod
}

// SymbolRef rediscovers the global or function that addr points into (§4:
// global value discovery) and emits its address as an i64 at b: a data
// symbol at any offset, a function only at its entry. It returns nil when
// addr names neither.
func SymbolRef(b *ir.Builder, mod *ir.Module, file *obj.File, addr int64) ir.Value {
	sym := file.SymbolAt(uint64(addr))
	if sym == nil {
		return nil
	}
	switch sym.Kind {
	case obj.SymData:
		g := mod.Global(sym.Name)
		if g == nil {
			return nil
		}
		base := b.PtrToInt(b.Bitcast(g, ir.PointerTo(ir.I8)), ir.I64)
		if off := addr - int64(sym.Addr); off != 0 {
			return b.Add(base, ir.I64Const(off))
		}
		return base
	case obj.SymFunc, obj.SymExtern:
		if uint64(addr) != sym.Addr {
			return nil
		}
		if fn := mod.Func(sym.Name); fn != nil {
			return b.PtrToInt(b.Bitcast(fn, ir.PointerTo(ir.I8)), ir.I64)
		}
	}
	return nil
}

// IntType returns the integer type of a given byte width (1, 2, 4; any
// other width is i64).
func IntType(w int) *ir.IntType {
	switch w {
	case 1:
		return ir.I8
	case 2:
		return ir.I16
	case 4:
		return ir.I32
	}
	return ir.I64
}

// Lift translates an entire x86-64 object file into an IR module.
func Lift(file *obj.File) (*ir.Module, error) {
	ml, err := BeginTolerant(file, nil)
	if err != nil {
		return nil, err
	}
	for _, s := range ml.Streams() {
		if err := ml.DeclareFunc(s); err != nil {
			return nil, err
		}
	}
	for _, s := range ml.Streams() {
		if err := ml.LiftFunc(s.Sym.Name); err != nil {
			return nil, fmt.Errorf("lifter: @%s: %w", s.Sym.Name, err)
		}
	}
	if err := ir.Verify(ml.Module()); err != nil {
		return nil, fmt.Errorf("lifter: produced invalid IR: %w", err)
	}
	return ml.Module(), nil
}

// ModuleLifter lifts one object incrementally so the fault-tolerant
// pipeline can wrap each function in its own recover boundary:
// BeginTolerant disassembles and builds the module Shell, DeclareFunc (or
// Declare, by position) reconstructs one function's CFG and signature, and
// LiftFunc translates one body.
type ModuleLifter struct {
	l       *lifter
	streams []mc.Stream[x86.Inst]
}

// BeginTolerant disassembles the object and prepares the module shell. When
// bad is non-nil, a function with undecodable bytes is reported through bad
// and dropped from the stream list instead of failing the whole object.
func BeginTolerant(file *obj.File, bad func(sym obj.Symbol, err error)) (*ModuleLifter, error) {
	streams, err := mc.Decode(file, "x86-64", x86.DecodeAll, bad)
	if err != nil {
		return nil, err
	}
	l := &lifter{file: file, mod: Shell(file), mfuncs: map[string]*machine.Function[x86.Inst]{}}
	return &ModuleLifter{l: l, streams: streams}, nil
}

// Streams returns the per-function instruction streams in object order.
func (ml *ModuleLifter) Streams() []mc.Stream[x86.Inst] { return ml.streams }

// Names returns the streams' function names in object order.
func (ml *ModuleLifter) Names() []string { return mc.Names(ml.streams) }

// Declare is DeclareFunc for the i-th stream.
func (ml *ModuleLifter) Declare(i int) error { return ml.DeclareFunc(ml.streams[i]) }

// Module returns the module under construction.
func (ml *ModuleLifter) Module() *ir.Module { return ml.l.mod }

// DeclareFunc runs phase 1 for one function: CFG reconstruction and type
// discovery, creating the (still empty) IR function. All declarations must
// happen before any LiftFunc so call instructions can resolve their
// callees.
func (ml *ModuleLifter) DeclareFunc(s mc.Stream[x86.Inst]) error {
	mf, err := machine.Build(ISA, s)
	if err != nil {
		return err
	}
	ml.l.mfuncs[mf.Name] = mf
	ml.l.mod.NewFunc(mf.Name, mf.Type())
	return nil
}

// LiftFunc runs phase 2 for one declared function. Untranslatable operand
// shapes panic with a typed *InstrError; callers that want containment wrap
// the call in diag.Guard.
func (ml *ModuleLifter) LiftFunc(name string) error {
	mf := ml.l.mfuncs[name]
	if mf == nil {
		return fmt.Errorf("lifter: function %q was never declared", name)
	}
	return ml.l.liftFunc(mf)
}

type lifter struct {
	file   *obj.File
	mod    *ir.Module
	mfuncs map[string]*machine.Function[x86.Inst]
}

// Flag indices.
const (
	fZF = iota
	fSF
	fCF
	fOF
	fPF
	numFlags
)

// fnLifter holds per-function lifting state.
type fnLifter struct {
	l  *lifter
	mf *machine.Function[x86.Inst]
	f  *ir.Func
	b  *ir.Builder

	irBlocks map[uint64]*ir.Block
	regSlot  map[x86.Reg]*ir.Instr
	flagSlot [numFlags]*ir.Instr
	stack    *ir.Instr // alloca [M x i8]
	stackTop ir.Value  // i8* to the frame base

	// Per-block register value cache.
	regVal map[x86.Reg]ir.Value

	// Symbolic frame tracking for RSP/RBP: reg = framebase + off.
	spKnown map[x86.Reg]bool
	spOff   map[x86.Reg]int64
	// Post-entry snapshot used as the initial state of later blocks.
	snapKnown map[x86.Reg]bool
	snapOff   map[x86.Reg]int64
}

func (l *lifter) liftFunc(mf *machine.Function[x86.Inst]) error {
	f := l.mod.Func(mf.Name)
	fl := &fnLifter{
		l: l, mf: mf, f: f,
		irBlocks: map[uint64]*ir.Block{},
		regSlot:  map[x86.Reg]*ir.Instr{},
		spKnown:  map[x86.Reg]bool{},
		spOff:    map[x86.Reg]int64{},
	}

	// Frame size: total static sub plus push room plus slack.
	var frame int64 = 64
	for _, b := range mf.Blocks {
		for _, in := range b.Insts {
			if in.Op == x86.SUB && in.Ops[0].Kind == x86.KindReg && in.Ops[0].Reg == x86.RSP && in.Ops[1].Kind == x86.KindImm {
				frame += in.Ops[1].Imm
			}
			if in.Op == x86.PUSH {
				frame += 8
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
	fl.flagSlot[fZF].Nam, fl.flagSlot[fSF].Nam = "zf", "sf"
	fl.flagSlot[fCF].Nam, fl.flagSlot[fOF].Nam = "cf", "of"
	fl.flagSlot[fPF].Nam = "pf"

	// RSP starts near the top of the frame; RBP is unknown (caller's).
	fl.spKnown[x86.RSP] = true
	fl.spOff[x86.RSP] = frame - 16

	// IR blocks for every machine block.
	for _, mb := range mf.Blocks {
		fl.irBlocks[mb.Start] = f.NewBlock(fmt.Sprintf("bb_%x", mb.Start))
	}

	// Parameters land in their conventional registers.
	fl.regVal = map[x86.Reg]ir.Value{}
	for i, p := range mf.Params {
		pv, r := f.Params[i], x86.Reg(p.Reg)
		switch p.Kind {
		case machine.ParamInt:
			fl.writeReg64(r, pv)
		case machine.ParamF64:
			fl.writeReg64(r, fl.b.Bitcast(pv, ir.I64))
		case machine.ParamF32:
			bits := fl.b.Bitcast(pv, &ir.IntType{Bits: 32})
			fl.writeReg64(r, fl.b.Zext(bits, ir.I64))
		}
	}
	fl.b.Br(fl.irBlocks[mf.Blocks[0].Start])

	// Lift blocks in address order; the entry block runs first so its
	// post-prologue frame state can seed the others.
	for i, mb := range mf.Blocks {
		fl.b = ir.NewBuilder(fl.irBlocks[mb.Start])
		fl.regVal = map[x86.Reg]ir.Value{}
		if i == 0 {
			// Parameters were cached via the entry prologue stores; the
			// cache was cleared, so they reload from slots as needed.
		} else {
			fl.spKnown = maps.Clone(fl.snapKnown)
			fl.spOff = maps.Clone(fl.snapOff)
		}
		if err := fl.liftBlock(mb); err != nil {
			return err
		}
		if i == 0 {
			fl.snapKnown = maps.Clone(fl.spKnown)
			fl.snapOff = maps.Clone(fl.spOff)
		}
	}
	return nil
}

// slot returns (creating on demand) the i64 stack slot of a register. Slots
// are allocated in the entry block.
func (fl *fnLifter) slot(r x86.Reg) *ir.Instr {
	if s, ok := fl.regSlot[r]; ok {
		return s
	}
	entry := fl.f.Entry()
	s := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PointerTo(ir.I64), Elem: ir.I64, Nam: r.String()}
	entry.InsertBefore(s, entry.Instrs[0])
	fl.regSlot[r] = s
	return s
}

// readReg64 returns the full 64-bit value of a register.
func (fl *fnLifter) readReg64(r x86.Reg) ir.Value {
	if fl.spKnown[r] {
		return fl.frameAddr(fl.spOff[r])
	}
	if v, ok := fl.regVal[r]; ok {
		return v
	}
	v := fl.b.Load(fl.slot(r))
	fl.regVal[r] = v
	return v
}

// writeReg64 assigns a 64-bit value to a register (write-through to the
// slot so other blocks observe it).
func (fl *fnLifter) writeReg64(r x86.Reg, v ir.Value) {
	delete(fl.spKnown, r)
	fl.regVal[r] = v
	fl.b.Store(v, fl.slot(r))
}

// frameAddr materializes framebase+off as raw pointer arithmetic — the
// exact pattern of Fig. 5 that IR refinement later rewrites.
func (fl *fnLifter) frameAddr(off int64) ir.Value {
	tos := fl.b.PtrToInt(fl.stackTop, ir.I64)
	if off == 0 {
		return tos
	}
	return fl.b.Add(tos, ir.I64Const(off))
}

// readRegW reads the low w bytes of a register as an iW value.
func (fl *fnLifter) readRegW(r x86.Reg, w int) ir.Value {
	v := fl.readReg64(r)
	if w == 8 {
		return v
	}
	return fl.b.Trunc(v, IntType(w))
}

// writeRegW writes an iW value into a register with x86 merge semantics
// (32-bit writes zero the upper half, narrower writes merge).
func (fl *fnLifter) writeRegW(r x86.Reg, w int, v ir.Value) {
	switch w {
	case 8:
		fl.writeReg64(r, v)
	case 4:
		fl.writeReg64(r, fl.b.Zext(v, ir.I64))
	default:
		old := fl.readReg64(r)
		mask := int64(1)<<(uint(w)*8) - 1
		cleared := fl.b.And(old, ir.I64Const(^mask))
		ext := fl.b.Zext(v, ir.I64)
		fl.writeReg64(r, fl.b.Or(cleared, ext))
	}
}

// symbolize turns an immediate into a global/function reference when it
// falls inside a known symbol (§4: global value discovery).
func (fl *fnLifter) symbolize(v int64) ir.Value {
	if p := SymbolRef(fl.b, fl.l.mod, fl.l.file, v); p != nil {
		return p
	}
	return ir.I64Const(v)
}

// memAddr computes the effective address of a memory operand as an i64.
func (fl *fnLifter) memAddr(in x86.Inst, m x86.Mem) ir.Value {
	if m.Base == x86.RIP {
		return fl.symbolize(int64(in.Addr) + int64(in.Len) + int64(m.Disp))
	}
	var addr ir.Value
	if m.Base != x86.RegNone {
		if fl.spKnown[m.Base] && m.Index == x86.RegNone {
			return fl.frameAddr(fl.spOff[m.Base] + int64(m.Disp))
		}
		addr = fl.readReg64(m.Base)
	}
	if m.Index != x86.RegNone {
		idx := fl.readReg64(m.Index)
		if m.Scale > 1 {
			idx = fl.b.Mul(idx, ir.I64Const(int64(m.Scale)))
		}
		if addr == nil {
			addr = idx
		} else {
			addr = fl.b.Add(addr, idx)
		}
	}
	if addr == nil {
		return fl.symbolize(int64(m.Disp))
	}
	if m.Disp != 0 {
		addr = fl.b.Add(addr, ir.I64Const(int64(m.Disp)))
	}
	return addr
}

// loadMem loads w bytes from a memory operand.
func (fl *fnLifter) loadMem(in x86.Inst, m x86.Mem, w int) ir.Value {
	addr := fl.memAddr(in, m)
	p := fl.b.IntToPtr(addr, ir.PointerTo(IntType(w)))
	return fl.b.Load(p)
}

// storeMem stores an iW value to a memory operand.
func (fl *fnLifter) storeMem(in x86.Inst, m x86.Mem, w int, v ir.Value) {
	addr := fl.memAddr(in, m)
	p := fl.b.IntToPtr(addr, ir.PointerTo(IntType(w)))
	fl.b.Store(v, p)
}

// readOp reads an operand at width w.
func (fl *fnLifter) readOp(in x86.Inst, o x86.Operand, w int) ir.Value {
	switch o.Kind {
	case x86.KindReg:
		return fl.readRegW(o.Reg, w)
	case x86.KindImm:
		if w == 8 {
			return fl.symbolize(o.Imm)
		}
		return ir.IntConst(IntType(w), o.Imm)
	case x86.KindMem:
		return fl.loadMem(in, o.Mem, w)
	}
	panic(&InstrError{Addr: in.Addr, Op: in.Op.String(), Detail: "unreadable operand"})
}

// writeOp writes v (iW) to a register or memory operand.
func (fl *fnLifter) writeOp(in x86.Inst, o x86.Operand, w int, v ir.Value) {
	switch o.Kind {
	case x86.KindReg:
		fl.writeRegW(o.Reg, w, v)
	case x86.KindMem:
		fl.storeMem(in, o.Mem, w, v)
	default:
		panic(&InstrError{Addr: in.Addr, Op: in.Op.String(), Detail: "unwritable operand"})
	}
}

// Flag helpers.

func (fl *fnLifter) setFlag(idx int, v ir.Value) { fl.b.Store(v, fl.flagSlot[idx]) }
func (fl *fnLifter) getFlag(idx int) ir.Value    { return fl.b.Load(fl.flagSlot[idx]) }

// setParity lifts the parity-flag network: PF = 1 iff the low byte of r has
// an even number of set bits. This eager expansion mirrors mctoll.
func (fl *fnLifter) setParity(r ir.Value) {
	byteV := r
	if ir.IntBits(r.Type()) > 8 {
		byteV = fl.b.Trunc(r, ir.I8)
	}
	x := fl.b.Xor(byteV, fl.b.Bin(ir.OpLShr, byteV, ir.IntConst(ir.I8, 4)))
	x = fl.b.Xor(x, fl.b.Bin(ir.OpLShr, x, ir.IntConst(ir.I8, 2)))
	x = fl.b.Xor(x, fl.b.Bin(ir.OpLShr, x, ir.IntConst(ir.I8, 1)))
	bit := fl.b.And(x, ir.IntConst(ir.I8, 1))
	fl.setFlag(fPF, fl.b.ICmp(ir.PredEQ, bit, ir.IntConst(ir.I8, 0)))
}

// flagsSub sets flags for a-b (CMP/SUB/NEG/CMPXCHG).
func (fl *fnLifter) flagsSub(a, b, r ir.Value) {
	zero := ir.IntConst(r.Type().(*ir.IntType), 0)
	fl.setFlag(fZF, fl.b.ICmp(ir.PredEQ, a, b))
	fl.setFlag(fSF, fl.b.ICmp(ir.PredSLT, r, zero))
	fl.setFlag(fCF, fl.b.ICmp(ir.PredULT, a, b))
	x1 := fl.b.Xor(a, b)
	x2 := fl.b.Xor(a, r)
	fl.setFlag(fOF, fl.b.ICmp(ir.PredSLT, fl.b.And(x1, x2), zero))
	fl.setParity(r)
}

// flagsAdd sets flags for a+b.
func (fl *fnLifter) flagsAdd(a, b, r ir.Value) {
	zero := ir.IntConst(r.Type().(*ir.IntType), 0)
	fl.setFlag(fZF, fl.b.ICmp(ir.PredEQ, r, zero))
	fl.setFlag(fSF, fl.b.ICmp(ir.PredSLT, r, zero))
	fl.setFlag(fCF, fl.b.ICmp(ir.PredULT, r, a))
	nx := fl.b.Xor(fl.b.Xor(a, b), ir.IntConst(r.Type().(*ir.IntType), -1))
	x2 := fl.b.Xor(a, r)
	fl.setFlag(fOF, fl.b.ICmp(ir.PredSLT, fl.b.And(nx, x2), zero))
	fl.setParity(r)
}

// flagsLogic sets flags for logical results.
func (fl *fnLifter) flagsLogic(r ir.Value) {
	zero := ir.IntConst(r.Type().(*ir.IntType), 0)
	fl.setFlag(fZF, fl.b.ICmp(ir.PredEQ, r, zero))
	fl.setFlag(fSF, fl.b.ICmp(ir.PredSLT, r, zero))
	fl.setFlag(fCF, ir.I1Const(false))
	fl.setFlag(fOF, ir.I1Const(false))
	fl.setParity(r)
}

// cond materializes an i1 for an x86 condition code from the flag slots.
func (fl *fnLifter) cond(in x86.Inst, cc x86.Cond) ir.Value {
	not := func(v ir.Value) ir.Value { return fl.b.Xor(v, ir.I1Const(true)) }
	switch cc {
	case x86.CondE:
		return fl.getFlag(fZF)
	case x86.CondNE:
		return not(fl.getFlag(fZF))
	case x86.CondB:
		return fl.getFlag(fCF)
	case x86.CondAE:
		return not(fl.getFlag(fCF))
	case x86.CondBE:
		return fl.b.Or(fl.getFlag(fCF), fl.getFlag(fZF))
	case x86.CondA:
		return not(fl.b.Or(fl.getFlag(fCF), fl.getFlag(fZF)))
	case x86.CondS:
		return fl.getFlag(fSF)
	case x86.CondNS:
		return not(fl.getFlag(fSF))
	case x86.CondP:
		return fl.getFlag(fPF)
	case x86.CondNP:
		return not(fl.getFlag(fPF))
	case x86.CondL:
		return fl.b.Xor(fl.getFlag(fSF), fl.getFlag(fOF))
	case x86.CondGE:
		return not(fl.b.Xor(fl.getFlag(fSF), fl.getFlag(fOF)))
	case x86.CondLE:
		return fl.b.Or(fl.getFlag(fZF), fl.b.Xor(fl.getFlag(fSF), fl.getFlag(fOF)))
	case x86.CondG:
		return not(fl.b.Or(fl.getFlag(fZF), fl.b.Xor(fl.getFlag(fSF), fl.getFlag(fOF))))
	case x86.CondO:
		return fl.getFlag(fOF)
	case x86.CondNO:
		return not(fl.getFlag(fOF))
	}
	panic(&InstrError{Addr: in.Addr, Op: in.Op.String(), Detail: fmt.Sprintf("unsupported condition code %d", int(cc))})
}

// XMM helpers: XMM slots hold the raw low 64 bits as i64.

func (fl *fnLifter) readXMMF64(r x86.Reg) ir.Value {
	return fl.b.Bitcast(fl.readReg64(r), ir.F64)
}

func (fl *fnLifter) writeXMMF64(r x86.Reg, v ir.Value) {
	fl.writeReg64(r, fl.b.Bitcast(v, ir.I64))
}

func (fl *fnLifter) readXMMF32(r x86.Reg) ir.Value {
	bits := fl.b.Trunc(fl.readReg64(r), &ir.IntType{Bits: 32})
	return fl.b.Bitcast(bits, ir.F32)
}

func (fl *fnLifter) writeXMMF32(r x86.Reg, v ir.Value) {
	bits := fl.b.Bitcast(v, &ir.IntType{Bits: 32})
	fl.writeReg64(r, fl.b.Zext(bits, ir.I64))
}

// readFPOp reads an xmm-or-memory operand as a float of the given width.
func (fl *fnLifter) readFPOp(in x86.Inst, o x86.Operand, f32 bool) ir.Value {
	if o.Kind == x86.KindReg {
		if f32 {
			return fl.readXMMF32(o.Reg)
		}
		return fl.readXMMF64(o.Reg)
	}
	addr := fl.memAddr(in, o.Mem)
	ty := ir.Type(ir.F64)
	if f32 {
		ty = ir.F32
	}
	p := fl.b.IntToPtr(addr, ir.PointerTo(ty))
	return fl.b.Load(p)
}
