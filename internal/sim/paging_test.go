package sim

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"lasagne/internal/addrspace"
	"lasagne/internal/arm64"
	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// flatMem is the reference the paged address space is checked against: a
// flat MemSize-byte memory with the simulator's bounds rule, an access
// faulting unless all of its bytes lie below MemSize.
type flatMem []byte

func (f flatMem) load(addr uint64, n int) (uint64, bool) {
	if addr >= MemSize || uint64(n) > MemSize-addr {
		return 0, false
	}
	var b [8]byte
	copy(b[:], f[addr:addr+uint64(n)])
	return binary.LittleEndian.Uint64(b[:]), true
}

func (f flatMem) store(addr uint64, n int, v uint64) bool {
	if addr >= MemSize || uint64(n) > MemSize-addr {
		return false
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	copy(f[addr:addr+uint64(n)], b[:n])
	return true
}

// pageEdges are the accessed addresses: every start from 8 bytes before a
// page boundary to 1 byte past it, at the first boundary and at the one
// where the heap begins, and every start from 8 bytes before the top of
// memory to the top itself.
func pageEdges() []uint64 {
	var out []uint64
	for _, b := range []uint64{addrspace.PageSize, HeapBase} {
		for a := b - 8; a <= b+1; a++ {
			out = append(out, a)
		}
	}
	for a := uint64(MemSize - 8); a <= MemSize; a++ {
		out = append(out, a)
	}
	return out
}

// The kinds of access a boundary form makes, and what the flat model
// expects of each: a load returns the old value; a store writes the
// operand; an xadd writes old+operand and returns old; a cmpxchg (given
// the old value to compare) writes the operand.
const (
	accLoad = iota
	accStore
	accXadd
	accCmpxchg
)

// boundaryForm is one memory instruction of the boundary test. Arm forms
// address through X1 (or SP), store X2 and load into X0, with STXR's
// status in X3; x86 forms address through RBX, store RCX (XMM1 for
// MOVSD), load into RAX (XMM0) and compare against RAX.
type boundaryForm struct {
	name    string
	arch    string
	code    []byte
	size    int
	kind    int
	viaSP   bool // Arm: the base register is SP
	monitor bool // Arm: arm the exclusive monitor at the address first
	xmm     bool // x86: the result register is XMM0
}

func armBoundaryForms(t *testing.T) []boundaryForm {
	type I = arm64.Inst
	X0, X1, X2, X3, SP := arm64.X0, arm64.X1, arm64.X2, arm64.X3, arm64.SP
	var out []boundaryForm
	add := func(in I, kind int, monitor bool) {
		w, err := arm64.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, boundaryForm{name: fmt.Sprintf("%v/%d", in.Op, in.Size), arch: "arm64",
			code: binary.LittleEndian.AppendUint32(nil, w), size: in.Size, kind: kind,
			viaSP: in.Rn == SP, monitor: monitor})
		if in.Rn == SP {
			out[len(out)-1].name += "/sp"
		}
	}
	for _, sz := range []int{1, 2, 4, 8} {
		add(I{Op: arm64.LDR, Size: sz, Rd: X0, Rn: X1}, accLoad, false)
		add(I{Op: arm64.STR, Size: sz, Rd: X2, Rn: X1}, accStore, false)
		add(I{Op: arm64.LDAR, Size: sz, Rd: X0, Rn: X1}, accLoad, false)
		add(I{Op: arm64.STLR, Size: sz, Rd: X2, Rn: X1}, accStore, false)
	}
	// The threaded engine's hand-inlined fast paths: LDR through a general
	// register, LDR and STR through SP.
	add(I{Op: arm64.LDR, Size: 8, Rd: X0, Rn: SP}, accLoad, false)
	add(I{Op: arm64.STR, Size: 8, Rd: X2, Rn: SP}, accStore, false)
	for _, sz := range []int{4, 8} {
		add(I{Op: arm64.LDXR, Size: sz, Rd: X0, Rn: X1}, accLoad, false)
		add(I{Op: arm64.STXR, Size: sz, Rd: X2, Rn: X1, Ra: X3}, accStore, true)
	}
	return out
}

func x86BoundaryForms(t *testing.T) []boundaryForm {
	type I = x86.Inst
	R, RAX, RBX, RCX := x86.RegOp, x86.RAX, x86.RBX, x86.RCX
	at := x86.MemOp(RBX, 0)
	var out []boundaryForm
	add := func(in I, size, kind int) {
		code, err := x86.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%v/%d", in.Op, size)
		if in.Lock {
			name = "lock " + name
		}
		out = append(out, boundaryForm{name: name, arch: "x86-64", code: code, size: size, kind: kind})
	}
	locked := func(in I) I { in.Lock = true; return in }
	for _, sz := range []int{1, 2, 4, 8} {
		if sz >= 4 {
			add(x86.NewInst(x86.MOV, sz, R(RAX), at), sz, accLoad)
		} else {
			add(I{Op: x86.MOVZX, Size: 8, SrcSize: sz, Ops: []x86.Operand{R(RAX), at}}, sz, accLoad)
		}
		add(x86.NewInst(x86.MOV, sz, at, R(RCX)), sz, accStore)
		add(locked(x86.NewInst(x86.XADD, sz, at, R(RCX))), sz, accXadd)
		add(locked(x86.NewInst(x86.CMPXCHG, sz, at, R(RCX))), sz, accCmpxchg)
	}
	add(x86.NewInst(x86.MOVSD_X, 0, R(x86.XMM0), at), 8, accLoad)
	out[len(out)-1].xmm = true
	add(x86.NewInst(x86.MOVSD_X, 0, at, R(x86.XMM1)), 8, accStore)
	return out
}

// boundaryStep runs f's one instruction on a fresh CPU of m with the
// address, the operand and the comparison value in place, and returns the
// result register: the loaded value, xadd's old value, cmpxchg's RAX, or
// STXR's status.
func boundaryStep(m *Machine, f boundaryForm, threaded bool, addr, val, old uint64) (uint64, error) {
	var err error
	if f.arch == "arm64" {
		c := &arm64CPU{m: m, pc: obj.TextBase}
		c.x[1], c.x[2], c.x[3] = addr, val, ^uint64(0)
		if f.viaSP {
			c.sp = addr
		}
		m.armCPUs = []*arm64CPU{c}
		m.monitors = 0
		if f.monitor {
			c.setMonitor(addr)
		}
		if threaded {
			_, err = m.armUnit(c, m.armProg)
		} else {
			err = c.Step()
		}
		if f.monitor {
			return c.x[3], err
		}
		return c.x[0], err
	}
	c := &x86CPU{m: m, rip: obj.TextBase}
	c.regs[x86.RBX], c.regs[x86.RCX], c.regs[x86.RAX] = addr, val, old
	c.xmm[1][0] = val
	m.x86CPUs = []*x86CPU{c}
	if threaded {
		_, err = m.x86Unit(c, m.x86Prog)
	} else {
		err = c.Step()
	}
	switch {
	case f.kind == accXadd:
		return c.regs[x86.RCX], err
	case f.xmm:
		return c.xmm[0][0], err
	}
	return c.regs[x86.RAX], err
}

// TestPageBoundaryAccesses checks the paged memory against a flat
// MemSize-byte model under both engines: every boundary form, at every
// start address around two page boundaries and the top of memory, on
// pages never written and on pages filled with a pattern. The result
// register, the fault and the bytes around the address must match the
// model, and a load from pages never written must allocate none.
func TestPageBoundaryAccesses(t *testing.T) {
	forms := append(armBoundaryForms(t), x86BoundaryForms(t)...)
	flat := make(flatMem, MemSize)
	const val = 0x8877665544332211
	const span = 16 // bytes compared on each side of the address
	for _, f := range forms {
		for _, addr := range pageEdges() {
			lo, hi := max(addr, span)-span, min(addr+span, MemSize)
			for _, filled := range []bool{false, true} {
				for _, threaded := range []bool{false, true} {
					m := vecMachine(f.arch, f.code)
					clear(flat[lo:hi])
					if filled {
						for a := lo; a < hi; a++ {
							flat[a] = byte(0xA0 + a - lo)
						}
						m.Mem.Write(lo, flat[lo:hi])
					}
					pages := m.Mem.Pages()
					old, inBounds := flat.load(addr, f.size)
					got, err := boundaryStep(m, f, threaded, addr, val, old)

					where := fmt.Sprintf("%s at %#x (filled %v, threaded %v)", f.name, addr, filled, threaded)
					// Sub-word x86 results keep the register's upper
					// bits, so results compare in the access width.
					mask := ^uint64(0) >> (64 - 8*f.size)
					want, check := old, true
					switch f.kind {
					case accStore:
						flat.store(addr, f.size, val)
						want, check = 0, f.monitor // STXR's success status
					case accCmpxchg:
						flat.store(addr, f.size, val)
					case accXadd:
						flat.store(addr, f.size, old+val)
					}
					if !inBounds {
						if err == nil || !strings.Contains(err.Error(), "out of bounds") {
							t.Errorf("%s: error %v, want an out-of-bounds fault", where, err)
						}
					} else if err != nil {
						t.Errorf("%s: unexpected error %v", where, err)
					} else if check && got&mask != want&mask {
						t.Errorf("%s: result %#x, flat model %#x", where, got, want)
					}
					mem := make([]byte, hi-lo)
					m.Mem.Read(lo, mem)
					if string(mem) != string(flat[lo:hi]) {
						t.Errorf("%s: bytes [%#x, %#x) are %x, flat model %x", where, lo, hi, mem, flat[lo:hi])
					}
					if f.kind == accLoad && m.Mem.Pages() != pages {
						t.Errorf("%s: load allocated %d pages", where, m.Mem.Pages()-pages)
					}
				}
			}
		}
	}
}
