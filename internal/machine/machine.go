// Package machine implements the MachineInstr lifting layer (Fig. 4) for
// both input ISAs: it reconstructs control-flow graphs from decoded
// instruction streams, computes block liveness, and performs the
// function-type discovery of §4.1 — live-register analysis against the
// calling convention to recover parameter lists and return types that
// were erased by compilation. It also holds the function-lifting frame
// (lift.go) that turns a machine function into an IR body, and the staged
// module lifter both lifters drive it through. The layer is generic over
// the instruction type; each lifter describes its ISA with an ISA value
// and supplies its instruction semantics in a Frontend (the x86-64 lifter
// over x86.Inst under System V, the Arm64 lifter over its
// instruction-or-LL/SC-idiom units under the AAPCS).
package machine

import (
	"fmt"
	"sort"

	"lasagne/internal/ir"
	"lasagne/internal/mc"
)

// Reg is a dense register number: an ISA numbers the registers its UseDef
// reports from 0 up to 127.
type Reg uint8

// Regs is a set of registers.
type Regs [2]uint64

// Add puts r in the set.
func (s *Regs) Add(r Reg) { s[r>>6] |= 1 << (r & 63) }

// Has reports whether r is in the set.
func (s *Regs) Has(r Reg) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// Flow is how an instruction passes control on.
type Flow int

const (
	Next     Flow = iota // falls through to the next instruction
	Call                 // a call: falls through, clobbering what UseDef says
	Jump                 // a direct jump to its target
	CondJump             // a direct conditional branch: its target, else the next instruction
	Indirect             // a jump through a register (unsupported, as in mctoll)
	Return               // a return
	Trap                 // ends its block with no successor (x86 ud2)
)

// ISA describes one instruction set to the shared layer; I is the unit the
// lifter translates.
type ISA[I any] struct {
	// Span returns an instruction's address and length in bytes.
	Span func(in *I) (addr uint64, n int)
	// Flow classifies an instruction; target is the destination of a Jump
	// or CondJump.
	Flow func(in *I) (f Flow, target uint64)
	// UseDef returns the registers an instruction reads and writes.
	UseDef func(in *I) (uses, defs Regs)
	// The calling convention: parameter registers in ABI order and the
	// return registers.
	IntParams, FPParams []Reg
	IntRet, FPRet       Reg
	// FPParam returns the kind of f's FP parameter r; nil makes every FP
	// parameter an f64.
	FPParam func(f *Function[I], r Reg) ParamKind

	// What the lifting frame needs: each register's slot name (the length
	// is the register count), the stack pointer, the flag slots' names in
	// allocation order, and the stack bytes an instruction reserves.
	RegNames []string
	SP       Reg
	Flags    []string
	Reserves func(in *I) int64
}

// Block is one basic block of machine instructions.
type Block[I any] struct {
	Start uint64
	Insts []I
	// Succs lists the jump or branch target first, then the fall-through.
	Succs []*Block[I]

	index        int  // position in Function.Blocks
	use, def, in Regs // liveness: upward-exposed uses, definitions, live-in
}

// ParamKind distinguishes integer/pointer parameters from FP ones.
type ParamKind int

const (
	ParamInt ParamKind = iota
	ParamF64
	ParamF32
)

// Param is one discovered parameter with its source register.
type Param struct {
	Reg  Reg
	Kind ParamKind
}

// RetKind is the discovered return type.
type RetKind int

const (
	RetVoid RetKind = iota
	RetInt
	RetF64
)

// Function is a machine function with a CFG and a discovered type.
type Function[I any] struct {
	Name   string
	Entry  uint64
	Blocks []*Block[I] // in address order; the entry block first
	Params []Param
	Ret    RetKind
}

// Build reconstructs the CFG of one decoded function, computes its block
// liveness and discovers its type.
func Build[I any](isa *ISA[I], s mc.Stream[I]) (*Function[I], error) {
	if len(s.Insts) == 0 {
		return nil, fmt.Errorf("machine: %s is empty", s.Sym.Name)
	}
	f := &Function[I]{Name: s.Sym.Name, Entry: s.Sym.Addr}
	if err := f.buildCFG(isa, s); err != nil {
		return nil, err
	}
	f.liveness(isa)
	f.discoverParams(isa)
	f.discoverReturn(isa)
	return f, nil
}

// Type returns the discovered signature.
func (f *Function[I]) Type() *ir.FuncType {
	sig := &ir.FuncType{Ret: ir.Void}
	for _, p := range f.Params {
		sig.Params = append(sig.Params, [...]ir.Type{ParamInt: ir.I64, ParamF64: ir.F64, ParamF32: ir.F32}[p.Kind])
	}
	switch f.Ret {
	case RetInt:
		sig.Ret = ir.I64
	case RetF64:
		sig.Ret = ir.F64
	}
	return sig
}

func (f *Function[I]) buildCFG(isa *ISA[I], s mc.Stream[I]) error {
	insts := s.Insts
	end := s.Sym.Addr + s.Sym.Size
	addr := func(i int) uint64 { a, _ := isa.Span(&insts[i]); return a }
	// Leaders: the entry, every branch target, and the instruction after
	// each one that ends a block. leader[len(insts)] closes the last block.
	leader := make([]bool, len(insts)+1)
	leader[0], leader[len(insts)] = true, true
	for i := range insts {
		switch fl, tgt := isa.Flow(&insts[i]); fl {
		case Jump, CondJump:
			if tgt < s.Sym.Addr || tgt >= end {
				return fmt.Errorf("machine: %s: branch to %#x outside function", f.Name, tgt)
			}
			j := sort.Search(len(insts), func(j int) bool { return addr(j) >= tgt })
			if j == len(insts) || addr(j) != tgt {
				return fmt.Errorf("machine: %s: no block at %#x", f.Name, tgt)
			}
			leader[j], leader[i+1] = true, true
		case Indirect:
			return fmt.Errorf("machine: %s: indirect jump at %#x (dynamic jumps are unsupported, as in mctoll)", f.Name, addr(i))
		case Return, Trap:
			leader[i+1] = true
		}
	}
	// Split into blocks, which come out in address order.
	n := 0
	for _, l := range leader[:len(insts)] {
		if l {
			n++
		}
	}
	blocks := make([]Block[I], 0, n)
	for lo := 0; lo < len(insts); {
		hi := lo + 1
		for !leader[hi] {
			hi++
		}
		blocks = append(blocks, Block[I]{Start: addr(lo), Insts: insts[lo:hi:hi], index: len(blocks)})
		lo = hi
	}
	f.Blocks = make([]*Block[I], len(blocks))
	for k := range blocks {
		f.Blocks[k] = &blocks[k]
	}
	// Successor edges. Blocks tile the function, so a fall-through goes to
	// the next block, and the last block has none.
	edges := make([]*Block[I], 2*len(blocks))
	for k, b := range f.Blocks {
		last := &b.Insts[len(b.Insts)-1]
		b.Succs = edges[2*k : 2*k : 2*k+2]
		fl, tgt := isa.Flow(last)
		if fl == Jump || fl == CondJump {
			b.Succs = append(b.Succs, f.Blocks[sort.Search(len(blocks), func(j int) bool { return blocks[j].Start >= tgt })])
		}
		if fl == Jump || fl == Return || fl == Trap {
			continue
		}
		if k+1 == len(blocks) {
			if fl == CondJump {
				a, _ := isa.Span(last)
				return fmt.Errorf("machine: %s: conditional branch at %#x without fallthrough", f.Name, a)
			}
			return fmt.Errorf("machine: %s: block at %#x falls off the end", f.Name, b.Start)
		}
		b.Succs = append(b.Succs, f.Blocks[k+1])
	}
	return nil
}

// liveness computes each block's live-in registers by the usual backward
// fixpoint over bitsets.
func (f *Function[I]) liveness(isa *ISA[I]) {
	for _, b := range f.Blocks {
		for i := range b.Insts {
			uses, defs := isa.UseDef(&b.Insts[i])
			for w := range uses {
				b.use[w] |= uses[w] &^ b.def[w]
				b.def[w] |= defs[w]
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			var out Regs
			for _, s := range b.Succs {
				for w := range out {
					out[w] |= s.in[w]
				}
			}
			for w := range out {
				if in := b.use[w] | out[w]&^b.def[w]; in != b.in[w] {
					b.in[w], changed = in, true
				}
			}
		}
	}
}

// discoverParams applies §4.1: a parameter register that is live-in at the
// entry block is a parameter. The ABIs' prefix property holds (a compiler
// never passes an argument in the second register without also using the
// first), so discovery stops at the first register that is not live.
func (f *Function[I]) discoverParams(isa *ISA[I]) {
	live := &f.Blocks[0].in
	for _, r := range isa.IntParams {
		if !live.Has(r) {
			break
		}
		f.Params = append(f.Params, Param{Reg: r, Kind: ParamInt})
	}
	for _, r := range isa.FPParams {
		if !live.Has(r) {
			break
		}
		kind := ParamF64
		if isa.FPParam != nil {
			kind = isa.FPParam(f, r)
		}
		f.Params = append(f.Params, Param{Reg: r, Kind: kind})
	}
}

// discoverReturn applies the §4.1 heuristic: walk backwards from each
// return; a definition of the integer (or FP) return register before any
// call indicates a return value.
func (f *Function[I]) discoverReturn(isa *ISA[I]) {
	for _, b := range f.Blocks {
		if fl, _ := isa.Flow(&b.Insts[len(b.Insts)-1]); fl != Return {
			continue
		}
		for i := len(b.Insts) - 2; i >= 0; i-- {
			in := &b.Insts[i]
			if fl, _ := isa.Flow(in); fl == Call {
				break
			}
			_, defs := isa.UseDef(in)
			if defs.Has(isa.IntRet) {
				f.Ret = RetInt
				break
			}
			if defs.Has(isa.FPRet) {
				f.Ret = RetF64
				break
			}
		}
	}
}
