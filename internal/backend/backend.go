// Package backend lowers IR modules to machine code. It contains two
// targets sharing one design:
//
//   - the x86-64 target implements the IR-to-x86 mapping (non-atomic
//     accesses become plain MOVs, RMWsc becomes LOCK-prefixed operations,
//     Fsc becomes MFENCE, Frm/Fww need no instruction under TSO), and is
//     used to produce the input binaries that the lifter consumes;
//   - the Arm64 target implements the paper's IR-to-Arm mapping scheme
//     (Fig. 8b): Frm→DMB ISHLD, Fww→DMB ISHST, Fsc→DMB ISH, and
//     RMWsc→DMB ISH; LL/SC loop; DMB ISH.
//
// Both targets allocate registers with one linear scan (regalloc.go):
// block liveness, one conservative interval per value over the block
// layout, and a pool per register class. The pools hold callee-saved
// registers, so values survive calls and never meet argument setup,
// results or scratch registers: Arm64 uses X19-X28 and D8-D15, x86-64 RBX
// and R12-R15. System V saves no XMM register, so x86-64 FP values take
// XMM8-XMM15 only when their interval contains no call. A value that gets
// no register keeps a frame slot. Frame addresses (allocas and constant offsets from
// them) are recomputed from SP or RBP at each use, and a compare that only
// feeds the branch after it stays in the flags. Phis become parallel moves
// at the end of each predecessor, with an edge stub when both successors
// of a conditional branch have phis, and a branch to the next block falls
// through. The prologue saves only the callee-saved registers the function
// uses (on Arm64 x30 too, when it calls) and gives every parameter a home,
// so a lifter still sees each argument register read at entry.
package backend

import (
	"fmt"

	"lasagne/internal/ir"
	"lasagne/internal/obj"
	"lasagne/internal/rt"
)

// Compile lowers m for the named architecture ("x86-64" or "arm64").
func Compile(m *ir.Module, arch string) (*obj.File, error) {
	switch arch {
	case "x86-64":
		return compileX86(m)
	case "arm64":
		return compileArm64(m)
	}
	return nil, fmt.Errorf("backend: unknown architecture %q", arch)
}

// dataLayout assigns addresses to globals and builds the .data image.
type dataLayout struct {
	addr map[string]uint64
	data []byte
}

// layoutGlobals places each global at the next 16-byte boundary. The image
// is sized first and allocated once; it ends where the last global does.
func layoutGlobals(m *ir.Module) *dataLayout {
	dl := &dataLayout{addr: make(map[string]uint64, len(m.Globals))}
	off, end := 0, 0
	for _, g := range m.Globals {
		off = (off + 15) &^ 15
		dl.addr[g.Name] = obj.DataBase + uint64(off)
		off += g.Elem.Size()
		end = max(end, off)
	}
	if end > 0 {
		dl.data = make([]byte, end)
	}
	for _, g := range m.Globals {
		at := int(dl.addr[g.Name] - obj.DataBase)
		copy(dl.data[at:at+g.Elem.Size()], g.Init)
	}
	return dl
}

// frameInfo assigns frame offsets. Offsets are relative to the frame base
// (low address of the frame region) and 8-byte aligned; alloca storage is
// 16-byte aligned. The tables are indexed by value ID (ir.ValueIDs); -1
// means the value has no such storage.
type frameInfo struct {
	ids  ir.ValueIDs
	slot []int64 // result slot of values
	bulk []int64 // alloca storage
	size int64
}

// slotOf returns v's result slot.
func (fr *frameInfo) slotOf(v ir.Value) (int64, bool) {
	if id := fr.ids.Of(v); id >= 0 && fr.slot[id] >= 0 {
		return fr.slot[id], true
	}
	return 0, false
}

// frameOff returns v's offset from the frame base when v is a frame
// address.
func (fr *frameInfo) frameOff(v ir.Value) (int64, bool) {
	in, ok := v.(*ir.Instr)
	if !ok || !isFrameAddr(in) {
		return 0, false
	}
	var off int64
	for ; in.Op != ir.OpAlloca; in = in.Args[0].(*ir.Instr) {
		if in.Op == ir.OpGEP {
			c, _, _ := gepConstOffset(in)
			off += c
		}
	}
	return off + fr.bulk[fr.ids.Of(in)], true
}

// buildFrame lays out f's frame: a slot for each value ra marks (spilled
// values and unused parameters) and the storage of each alloca.
func buildFrame(f *ir.Func, ra *allocation) (*frameInfo, error) {
	ids := ir.NewValueIDs(f)
	fr := &frameInfo{ids: ids, slot: make([]int64, ids.N()), bulk: make([]int64, ids.N())}
	for i := range fr.slot {
		fr.slot[i], fr.bulk[i] = -1, -1
	}
	off := int64(0)
	take := func(n int64, align int64) int64 {
		off = (off + align - 1) &^ (align - 1)
		a := off
		off += n
		return a
	}
	for _, p := range f.Params {
		if ra.slot[ids.Of(p)] {
			fr.slot[ids.Of(p)] = take(8, 8)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			id := ids.Of(in)
			if !ir.IsVoid(in.Ty) {
				if ir.IsVector(in.Ty) {
					return nil, fmt.Errorf("backend: vector value %s reaches codegen (run scalarization)", in.Ref())
				}
				if id < 0 {
					return nil, fmt.Errorf("backend: value %s has no valid ID", in.Ref())
				}
				if ra.slot[id] {
					fr.slot[id] = take(8, 8)
				}
			}
			if in.Op == ir.OpAlloca {
				n := int64(1)
				if len(in.Args) == 1 {
					c, ok := ir.ConstIntValue(in.Args[0])
					if !ok {
						return nil, fmt.Errorf("backend: dynamic alloca in @%s", f.Name)
					}
					n = c
				}
				fr.bulk[id] = take(n*int64(in.Elem.Size()), 16)
			}
		}
	}
	fr.size = (off + 15) &^ 15
	return fr, nil
}

// fixupKind identifies how a recorded fixup patches the image.
type fixupKind int

const (
	fixRel32  fixupKind = iota // x86 call/jmp rel32 at pos..pos+4, relative to pos+4
	fixAbs64                   // x86 movabs imm64
	fixBL                      // arm64 BL imm26 at the word at pos
	fixMovSeq                  // arm64 movz/movk/movk 48-bit address at words pos, pos+4, pos+8
)

// fixup records an unresolved symbol reference in the encoded image.
type fixup struct {
	pos    int // byte offset within .text
	kind   fixupKind
	target string // symbol name
}

// symbolAddrs builds the final symbol table: functions laid out at their
// recorded offsets, globals from the data layout, externs at PLT slots.
func symbolAddrs(m *ir.Module, funcOff map[string]int, funcSize map[string]int, dl *dataLayout) ([]obj.Symbol, map[string]uint64) {
	var syms []obj.Symbol
	addr := make(map[string]uint64)
	for _, f := range m.Funcs {
		if f.External {
			idx := rt.Index(f.Name)
			if idx < 0 {
				continue // unreferenced non-runtime extern
			}
			a := uint64(obj.PLTBase + idx*obj.PLTSlot)
			addr[f.Name] = a
			syms = append(syms, obj.Symbol{Name: f.Name, Kind: obj.SymExtern, Addr: a, Size: obj.PLTSlot})
			continue
		}
		a := uint64(obj.TextBase + funcOff[f.Name])
		addr[f.Name] = a
		syms = append(syms, obj.Symbol{Name: f.Name, Kind: obj.SymFunc, Addr: a, Size: uint64(funcSize[f.Name])})
	}
	for _, g := range m.Globals {
		a := dl.addr[g.Name]
		addr[g.Name] = a
		syms = append(syms, obj.Symbol{Name: g.Name, Kind: obj.SymData, Addr: a, Size: uint64(g.Elem.Size())})
	}
	return syms, addr
}
