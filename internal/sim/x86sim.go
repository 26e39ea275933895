package sim

import (
	"fmt"
	"math/bits"

	"lasagne/internal/x86"
)

// x86CPU is one simulated x86-64 hardware thread.
type x86CPU struct {
	m    *Machine
	regs [16]uint64
	xmm  [16][2]uint64
	rip  uint64

	zf, sf, of, cf, pf bool

	clock   int64
	icount  int64
	done    bool
	joining bool
}

func newX86CPU(m *Machine, entry, arg, stackTop uint64, clock int64) (*x86CPU, error) {
	c := &x86CPU{m: m, rip: entry, clock: clock}
	c.regs[x86.RSP] = stackTop
	c.regs[x86.RDI] = arg
	// Push the sentinel return address.
	c.regs[x86.RSP] -= 8
	if err := m.store(c.regs[x86.RSP], 8, sentinel); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *x86CPU) Done() bool        { return c.done }
func (c *x86CPU) Clock() int64      { return c.clock }
func (c *x86CPU) InstrCount() int64 { return c.icount }
func (c *x86CPU) Joining() bool     { return c.joining }
func (c *x86CPU) SetClock(v int64)  { c.clock = v; c.joining = false }

func maskFor(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(uint(size)*8) - 1
}

func (c *x86CPU) readReg(r x86.Reg, size int) uint64 {
	return c.regs[r] & maskFor(size)
}

// writeReg follows x86 semantics: 32-bit writes zero the upper half,
// 8/16-bit writes merge.
func (c *x86CPU) writeReg(r x86.Reg, size int, v uint64) {
	switch size {
	case 8:
		c.regs[r] = v
	case 4:
		c.regs[r] = v & 0xFFFFFFFF
	default:
		m := maskFor(size)
		c.regs[r] = c.regs[r]&^m | v&m
	}
}

func signBit(v uint64, size int) bool {
	return v>>(uint(size)*8-1)&1 != 0
}

func (c *x86CPU) setLogicFlags(res uint64, size int) {
	res &= maskFor(size)
	c.zf = res == 0
	c.sf = signBit(res, size)
	c.pf = bits.OnesCount8(uint8(res))%2 == 0
	c.cf, c.of = false, false
}

func (c *x86CPU) setAddFlags(a, b, res uint64, size int) {
	m := maskFor(size)
	a, b, res = a&m, b&m, res&m
	c.zf = res == 0
	c.sf = signBit(res, size)
	c.pf = bits.OnesCount8(uint8(res))%2 == 0
	c.cf = res < a
	c.of = signBit(a, size) == signBit(b, size) && signBit(res, size) != signBit(a, size)
}

func (c *x86CPU) setSubFlags(a, b, res uint64, size int) {
	m := maskFor(size)
	a, b, res = a&m, b&m, res&m
	c.zf = res == 0
	c.sf = signBit(res, size)
	c.pf = bits.OnesCount8(uint8(res))%2 == 0
	c.cf = a < b
	c.of = signBit(a, size) != signBit(b, size) && signBit(res, size) != signBit(a, size)
}

func (c *x86CPU) cond(cc x86.Cond) bool {
	switch cc {
	case x86.CondO:
		return c.of
	case x86.CondNO:
		return !c.of
	case x86.CondB:
		return c.cf
	case x86.CondAE:
		return !c.cf
	case x86.CondE:
		return c.zf
	case x86.CondNE:
		return !c.zf
	case x86.CondBE:
		return c.cf || c.zf
	case x86.CondA:
		return !c.cf && !c.zf
	case x86.CondS:
		return c.sf
	case x86.CondNS:
		return !c.sf
	case x86.CondP:
		return c.pf
	case x86.CondNP:
		return !c.pf
	case x86.CondL:
		return c.sf != c.of
	case x86.CondGE:
		return c.sf == c.of
	case x86.CondLE:
		return c.zf || c.sf != c.of
	case x86.CondG:
		return !c.zf && c.sf == c.of
	}
	return false
}

func (c *x86CPU) pop() (uint64, error) {
	v, err := c.m.load(c.regs[x86.RSP], 8)
	c.regs[x86.RSP] += 8
	return v, err
}

func memTouched(ops []x86.Operand) bool {
	for _, o := range ops {
		if o.Kind == x86.KindMem {
			return true
		}
	}
	return false
}

// stepPLT dispatches the builtin whose PLT slot rip points at. Both engines
// route runtime calls through it so spawn/join/print semantics and cycle
// charging are shared.
func (c *x86CPU) stepPLT(idx int) error {
	intArgs := []uint64{c.regs[x86.RDI], c.regs[x86.RSI], c.regs[x86.RDX]}
	fpArgs := []uint64{c.xmm[0][0]}
	r, fr, isFP, joining, err := c.m.callBuiltin(idx, c.clock, intArgs, fpArgs)
	if err != nil {
		return err
	}
	if isFP {
		c.xmm[0][0] = fr
	} else {
		c.regs[x86.RAX] = r
	}
	ret, err := c.pop()
	if err != nil {
		return err
	}
	c.rip = ret
	c.clock += CostCall
	c.joining = joining
	if joining {
		// Retry the join by staying before the return: the builtin
		// has already "returned"; mark blocked until others finish.
	}
	return nil
}

// Step executes one instruction or builtin call: the reference engine's
// scheduling unit.
func (c *x86CPU) Step() error {
	if idx := pltIndex(c.rip); idx >= 0 {
		return c.stepPLT(idx)
	}
	u, err := c.m.x86Uop(c.rip)
	if err != nil {
		return err
	}
	return u(c)
}

// x86Uop returns the compiled uop at rip. A rip outside .text reports a
// fetch error. An offset the linear sweep did not reach (a jump into the
// middle of an instruction, or past a decode error) is decoded, compiled
// and memoized in the shared program; CPUs within a machine step one at a
// time.
func (m *Machine) x86Uop(rip uint64) (x86Uop, error) {
	if rip < m.textAddr || rip >= m.textEnd {
		return nil, fmt.Errorf("sim: x86 fetch outside .text at %#x", rip)
	}
	off := rip - m.textAddr
	if u := m.x86Prog.uops[off]; u != nil {
		return u, nil
	}
	in, err := x86.Decode(m.text[off:], rip)
	if err != nil {
		return nil, err
	}
	u := compileX86Uop(in)
	m.x86Prog.uops[off] = u
	return u, nil
}
