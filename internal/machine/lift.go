package machine

import (
	"fmt"

	"lasagne/internal/ir"
	"lasagne/internal/mc"
	"lasagne/internal/obj"
	"lasagne/internal/rt"
)

// The function-lifting frame (§4.2) is everything about turning a machine
// Function into an IR body that does not depend on what an instruction
// means: the byte-array stack frame (§4.2.3), per-register slots with
// block-local value caching, flag slots, parameter homing, terminators and
// call marshalling.

// Frontend is one input ISA's lifter as the frame drives it. R is the
// decoded instruction and I the unit a lifter translates (an instruction,
// or a group of them such as an LL/SC idiom).
type Frontend[R any, I fmt.Stringer] struct {
	Name   string // prefixes the lifter's errors
	Arch   string // the object architecture it accepts
	Decode func(code []byte, base uint64) ([]R, error)
	// Units groups one function's decoded instructions into lifting units.
	Units func(insts []R) ([]I, error)
	ISA   *ISA[I]
	// LiftInst translates a unit that does not end its block; BranchCond
	// returns the i1 a CondJump takes its target on.
	LiftInst   func(fr *Frame[I], in *I) error
	BranchCond func(fr *Frame[I], in *I) ir.Value
}

// InstrError is a lifting failure attributed to one machine instruction:
// the error a lifter returns for an instruction it cannot translate, or
// the value it panics with when a helper deep inside it meets an operand
// shape it cannot translate (the fault-tolerant pipeline's recover boundary,
// diag.Guard, turns the panic back into an error). Address lets diagnostics
// report where in the binary the instruction sits.
type InstrError struct {
	Addr uint64
	Inst string // the instruction's assembly text
	Err  error
}

func (e *InstrError) Error() string { return fmt.Sprintf("at %#x (%s): %v", e.Addr, e.Inst, e.Err) }

// Unwrap returns the underlying error.
func (e *InstrError) Unwrap() error { return e.Err }

// Address returns the instruction's address (the diag.Addresser contract).
func (e *InstrError) Address() uint64 { return e.Addr }

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

// FloatType returns the float type of a given byte width (4; any other
// width is f64).
func FloatType(w int) *ir.FloatType {
	if w == 4 {
		return ir.F32
	}
	return ir.F64
}

// RegNames returns the names of registers 0..n-1 of a lifter's register
// type, for ISA.RegNames.
func RegNames[R interface {
	~int
	String() string
}](n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = R(i).String()
	}
	return names
}

// Lift translates an entire object file into an IR module.
func Lift[R any, I fmt.Stringer](fe *Frontend[R, I], file *obj.File) (*ir.Module, error) {
	ml, err := Begin(fe, file, nil)
	if err != nil {
		return nil, err
	}
	for i := range ml.streams {
		if err := ml.Declare(i); err != nil {
			return nil, err
		}
	}
	for _, name := range ml.Names() {
		if err := ml.LiftFunc(name); err != nil {
			return nil, fmt.Errorf("%s: @%s: %w", fe.Name, name, err)
		}
	}
	if err := ir.Verify(ml.mod); err != nil {
		return nil, fmt.Errorf("%s: produced invalid IR: %w", fe.Name, err)
	}
	return ml.mod, nil
}

// ModuleLifter lifts one object in stages so the fault-tolerant pipeline
// can wrap each function in its own recover boundary: Begin decodes every
// function and builds the module shell, DeclareFunc (or Declare, by
// position) groups one function into units, reconstructs its CFG and
// signature and creates the still empty IR function, and LiftFunc
// translates one declared body.
type ModuleLifter[R any, I fmt.Stringer] struct {
	fe      *Frontend[R, I]
	file    *obj.File
	mod     *ir.Module
	streams []mc.Stream[R]          // decoded functions, object order
	funcs   map[string]*Function[I] // declared functions
}

// Begin decodes each function symbol of the object and prepares the module
// shell. When bad is non-nil, a function that sits outside .text or holds
// undecodable bytes is reported through bad and dropped instead of failing
// the whole object. Object-level problems (wrong architecture, missing
// .text) still return an error.
func Begin[R any, I fmt.Stringer](fe *Frontend[R, I], file *obj.File, bad func(sym obj.Symbol, err error)) (*ModuleLifter[R, I], error) {
	streams, err := mc.Decode(file, fe.Arch, fe.Decode, bad)
	if err != nil {
		return nil, err
	}
	return &ModuleLifter[R, I]{fe: fe, file: file, mod: shell(file), streams: streams, funcs: map[string]*Function[I]{}}, nil
}

// shell returns the module a lifter fills for file, whatever its
// architecture: every runtime builtin declared, plus one [size x i8] global
// per data symbol, initialized from .data where the symbol lies inside it.
func shell(file *obj.File) *ir.Module {
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

// Streams returns the per-function instruction streams in object order.
func (ml *ModuleLifter[R, I]) Streams() []mc.Stream[R] { return ml.streams }

// Names returns the streams' function names in object order.
func (ml *ModuleLifter[R, I]) Names() []string { return mc.Names(ml.streams) }

// Module returns the module under construction.
func (ml *ModuleLifter[R, I]) Module() *ir.Module { return ml.mod }

// Declare is DeclareFunc for the i-th stream.
func (ml *ModuleLifter[R, I]) Declare(i int) error { return ml.DeclareFunc(ml.streams[i]) }

// DeclareFunc prepares one decoded function. All declarations must happen
// before any LiftFunc so calls can resolve their callees.
func (ml *ModuleLifter[R, I]) DeclareFunc(s mc.Stream[R]) error {
	units, err := ml.fe.Units(s.Insts)
	if err != nil {
		return fmt.Errorf("%s: %s: %w", ml.fe.Name, s.Sym.Name, err)
	}
	mf, err := Build(ml.fe.ISA, mc.Stream[I]{Sym: s.Sym, Insts: units})
	if err != nil {
		return err
	}
	ml.funcs[mf.Name] = mf
	ml.mod.NewFunc(mf.Name, mf.Type())
	return nil
}

// frameOff is what the frame knows of a register: whether it holds the
// frame base plus off.
type frameOff struct {
	known bool
	off   int64
}

// Frame is the per-function lifting state a lifter's semantics work on.
// Every per-register slice is indexed by Reg and sized by ISA.RegNames.
type Frame[I fmt.Stringer] struct {
	B *ir.Builder // positioned in the block being lifted

	isa      *ISA[I]
	lift     func(fr *Frame[I], in *I) error
	cond     func(fr *Frame[I], in *I) ir.Value
	file     *obj.File
	mod      *ir.Module
	entry    *ir.Block // the function's entry block, which holds the allocas
	ret      RetKind
	blocks   []*ir.Block // the IR block of each machine block
	slots    []*ir.Instr // register slots, created on demand in the entry block
	vals     []ir.Value  // register values cached in the current block
	offs     []frameOff  // registers known to hold frame base + offset
	snap     []frameOff  // offs after the entry block: every other block starts from it
	flags    []*ir.Instr // the ISA's flag slots
	stackTop ir.Value    // i8* to the frame base
}

// LiftFunc translates one declared function's body. Functions may be
// lifted concurrently: each only writes its own IR function.
func (ml *ModuleLifter[R, I]) LiftFunc(name string) error {
	mf := ml.funcs[name]
	if mf == nil {
		return fmt.Errorf("%s: function %q was never declared", ml.fe.Name, name)
	}
	isa, f, n := ml.fe.ISA, ml.mod.Func(name), len(ml.fe.ISA.RegNames)
	offs := make([]frameOff, 2*n)
	fr := &Frame[I]{isa: isa, lift: ml.fe.LiftInst, cond: ml.fe.BranchCond, file: ml.file, mod: ml.mod,
		ret: mf.Ret, blocks: make([]*ir.Block, len(mf.Blocks)), slots: make([]*ir.Instr, n),
		vals: make([]ir.Value, n), offs: offs[:n], snap: offs[n:], flags: make([]*ir.Instr, len(isa.Flags))}

	// Frame size: what the instructions reserve, plus slack.
	var frame int64 = 64
	for _, b := range mf.Blocks {
		for i := range b.Insts {
			frame += isa.Reserves(&b.Insts[i])
		}
	}
	frame = (frame + 15) &^ 15

	fr.entry = f.NewBlock("entry")
	fr.B = ir.NewBuilder(fr.entry)
	stack := fr.B.Alloca(ir.ArrayOf(ir.I8, int(frame)))
	stack.Nam = "stack"
	top := fr.B.Bitcast(stack, ir.PointerTo(ir.I8))
	top.Nam = "stacktop"
	fr.stackTop = top
	for i, nam := range isa.Flags {
		fr.flags[i] = fr.B.Alloca(ir.I1)
		fr.flags[i].Nam = nam
	}
	// The stack pointer starts near the top of the frame.
	fr.offs[isa.SP] = frameOff{known: true, off: frame - 16}

	for k, mb := range mf.Blocks {
		fr.blocks[k] = f.NewBlock(fmt.Sprintf("bb_%x", mb.Start))
	}

	// Parameters land in their conventional registers.
	for i, p := range mf.Params {
		switch pv := f.Params[i]; p.Kind {
		case ParamInt:
			fr.Write(p.Reg, pv)
		case ParamF64:
			fr.WriteFP(p.Reg, 8, pv)
		case ParamF32:
			fr.WriteFP(p.Reg, 4, pv)
		}
	}
	fr.B.Br(fr.blocks[0])

	// Lift blocks in address order; the entry block runs first so its
	// post-prologue frame state can seed the others.
	for k, mb := range mf.Blocks {
		fr.B.SetBlock(fr.blocks[k])
		clear(fr.vals)
		if k > 0 {
			copy(fr.offs, fr.snap)
		}
		if err := fr.liftBlock(mb); err != nil {
			return err
		}
		if k == 0 {
			copy(fr.snap, fr.offs)
		}
	}
	return nil
}

// liftBlock translates one machine block into its IR block. The CFG builder
// has already rejected indirect jumps, conditional branches without a
// fall-through and blocks that fall off the end.
func (fr *Frame[I]) liftBlock(mb *Block[I]) error {
	for i := range mb.Insts {
		in := &mb.Insts[i]
		switch fl, _ := fr.isa.Flow(in); fl {
		case Jump:
			fr.B.Br(fr.blocks[mb.Succs[0].index])
			return nil
		case CondJump:
			c := fr.cond(fr, in)
			fr.B.CondBr(c, fr.blocks[mb.Succs[0].index], fr.blocks[mb.Succs[1].index])
			return nil
		case Return:
			switch fr.ret {
			case RetInt:
				fr.B.Ret(fr.Read(fr.isa.IntRet))
			case RetF64:
				fr.B.Ret(fr.ReadFP(fr.isa.FPRet, 8))
			default:
				fr.B.Ret(nil)
			}
			return nil
		case Trap:
			fr.B.Unreachable()
			return nil
		}
		if err := fr.lift(fr, in); err != nil {
			addr, _ := fr.isa.Span(in)
			return &InstrError{Addr: addr, Inst: (*in).String(), Err: err}
		}
	}
	// Fallthrough into the next block.
	fr.B.Br(fr.blocks[mb.Succs[0].index])
	return nil
}

// slot returns (creating on demand) the i64 stack slot of a register. Slots
// are allocated in the entry block.
func (fr *Frame[I]) slot(r Reg) *ir.Instr {
	if s := fr.slots[r]; s != nil {
		return s
	}
	s := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PointerTo(ir.I64), Elem: ir.I64, Nam: fr.isa.RegNames[r]}
	fr.entry.InsertBefore(s, fr.entry.Instrs[0])
	fr.slots[r] = s
	return s
}

// Read returns the full 64-bit value of a register.
func (fr *Frame[I]) Read(r Reg) ir.Value {
	if o := fr.offs[r]; o.known {
		return fr.FrameAddr(o.off)
	}
	if v := fr.vals[r]; v != nil {
		return v
	}
	v := fr.B.Load(fr.slot(r))
	fr.vals[r] = v
	return v
}

// Write assigns a 64-bit value to a register, writing through to its slot
// so other blocks observe it.
func (fr *Frame[I]) Write(r Reg, v ir.Value) {
	fr.offs[r].known = false
	fr.vals[r] = v
	fr.B.Store(v, fr.slot(r))
}

// Known reports whether r holds the frame base plus a known offset, and
// the offset.
func (fr *Frame[I]) Known(r Reg) (off int64, ok bool) { return fr.offs[r].off, fr.offs[r].known }

// SetKnown records that r holds the frame base plus off. Nothing is
// emitted: reads of r materialize the address (FrameAddr).
func (fr *Frame[I]) SetKnown(r Reg, off int64) {
	fr.offs[r] = frameOff{known: true, off: off}
	fr.vals[r] = nil
}

// FrameAddr materializes framebase+off as raw pointer arithmetic: the exact
// pattern of Fig. 5 that IR refinement later rewrites.
func (fr *Frame[I]) FrameAddr(off int64) ir.Value {
	tos := fr.B.PtrToInt(fr.stackTop, ir.I64)
	if off == 0 {
		return tos
	}
	return fr.B.Add(tos, ir.I64Const(off))
}

// SetFlag stores an i1 into the i-th of the ISA's flag slots; Flag loads it.
func (fr *Frame[I]) SetFlag(i int, v ir.Value) { fr.B.Store(v, fr.flags[i]) }
func (fr *Frame[I]) Flag(i int) ir.Value       { return fr.B.Load(fr.flags[i]) }

// TruncTo narrows an i64 to w bytes if needed.
func (fr *Frame[I]) TruncTo(v ir.Value, w int) ir.Value {
	if w == 8 {
		return v
	}
	return fr.B.Trunc(v, IntType(w))
}

// ReadFP reads a float of w bytes (see FloatType) from an FP register,
// whose slot holds the raw low 64 bits as i64.
func (fr *Frame[I]) ReadFP(r Reg, w int) ir.Value {
	v := fr.Read(r)
	if w == 4 {
		v = fr.B.Trunc(v, ir.I32)
	}
	return fr.B.Bitcast(v, FloatType(w))
}

// WriteFP writes a float of w bytes to an FP register (see ReadFP).
func (fr *Frame[I]) WriteFP(r Reg, w int, v ir.Value) {
	if w == 4 {
		fr.Write(r, fr.B.Zext(fr.B.Bitcast(v, ir.I32), ir.I64))
		return
	}
	fr.Write(r, fr.B.Bitcast(v, ir.I64))
}

// SymbolRef rediscovers the global or function that addr points into (§4:
// global value discovery) and emits its address as an i64: a data symbol
// at any offset, a function only at its entry. It returns nil when addr
// names neither.
func (fr *Frame[I]) SymbolRef(addr int64) ir.Value {
	sym := fr.file.SymbolAt(uint64(addr))
	if sym == nil {
		return nil
	}
	b := fr.B
	switch sym.Kind {
	case obj.SymData:
		g := fr.mod.Global(sym.Name)
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
		if fn := fr.mod.Func(sym.Name); fn != nil {
			return b.PtrToInt(b.Bitcast(fn, ir.PointerTo(ir.I8)), ir.I64)
		}
	}
	return nil
}

// Call lifts a direct call to target with the callee's discovered or
// runtime signature (§4.2.1): the arguments come from the parameter
// registers in ABI order, the result goes to the return register.
func (fr *Frame[I]) Call(target uint64) error {
	sym := fr.file.SymbolAt(target)
	if sym == nil || (sym.Kind != obj.SymFunc && sym.Kind != obj.SymExtern) {
		return fmt.Errorf("call to unknown target %#x", target)
	}
	callee := fr.mod.Func(sym.Name)
	if callee == nil {
		return fmt.Errorf("call to unlifted function %q", sym.Name)
	}
	b, ints, fps := fr.B, fr.isa.IntParams, fr.isa.FPParams
	args := make([]ir.Value, 0, len(callee.Sig.Params))
	for _, pt := range callee.Sig.Params {
		regs := &ints
		if _, ok := pt.(*ir.FloatType); ok {
			regs = &fps
		}
		if len(*regs) == 0 {
			return fmt.Errorf("call to %s exceeds register arguments", sym.Name)
		}
		r := (*regs)[0]
		*regs = (*regs)[1:]
		switch t := pt.(type) {
		case *ir.FloatType:
			args = append(args, fr.ReadFP(r, t.Bits/8))
		case *ir.PtrType:
			args = append(args, b.IntToPtr(fr.Read(r), t))
		default:
			args = append(args, fr.Read(r))
		}
	}
	res := b.Call(callee, args...)
	switch ret := callee.Sig.Ret.(type) {
	case *ir.IntType:
		v := ir.Value(res)
		if ret.Bits < 64 {
			v = b.Zext(res, ir.I64)
		}
		fr.Write(fr.isa.IntRet, v)
	case *ir.FloatType:
		fr.WriteFP(fr.isa.FPRet, ret.Bits/8, res)
	case *ir.PtrType:
		fr.Write(fr.isa.IntRet, b.PtrToInt(res, ir.I64))
	}
	return nil
}
