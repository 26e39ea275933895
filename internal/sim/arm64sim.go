package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"lasagne/internal/arm64"
)

// arm64CPU is one simulated Arm64 hardware thread.
type arm64CPU struct {
	m  *Machine
	x  [31]uint64 // X0-X30
	sp uint64
	v  [32]uint64 // D registers (low 64 bits)
	pc uint64

	flagN, flagZ, flagC, flagV bool

	exclAddr  uint64
	exclValid bool

	clock   int64
	icount  int64
	done    bool
	joining bool
}

func newArm64CPU(m *Machine, entry, arg, stackTop uint64, clock int64) (*arm64CPU, error) {
	c := &arm64CPU{m: m, pc: entry, clock: clock}
	c.sp = stackTop &^ 15
	c.x[0] = arg
	c.x[30] = sentinel
	return c, nil
}

func (c *arm64CPU) Done() bool        { return c.done }
func (c *arm64CPU) Clock() int64      { return c.clock }
func (c *arm64CPU) InstrCount() int64 { return c.icount }
func (c *arm64CPU) Joining() bool     { return c.joining }
func (c *arm64CPU) SetClock(v int64)  { c.clock = v; c.joining = false }

func (c *arm64CPU) setSubFlags(a, b uint64, size int) {
	var res uint64
	if size == 4 {
		a, b = a&0xFFFFFFFF, b&0xFFFFFFFF
		res = (a - b) & 0xFFFFFFFF
		c.flagN = res>>31&1 != 0
		c.flagV = (a>>31 != b>>31) && (res>>31 != a>>31)
	} else {
		res = a - b
		c.flagN = res>>63&1 != 0
		c.flagV = (a>>63 != b>>63) && (res>>63 != a>>63)
	}
	c.flagZ = res == 0
	c.flagC = a >= b
}

func (c *arm64CPU) cond(cc arm64.Cond) bool {
	switch cc {
	case arm64.EQ:
		return c.flagZ
	case arm64.NE:
		return !c.flagZ
	case arm64.HS:
		return c.flagC
	case arm64.LO:
		return !c.flagC
	case arm64.MI:
		return c.flagN
	case arm64.PL:
		return !c.flagN
	case arm64.VS:
		return c.flagV
	case arm64.VC:
		return !c.flagV
	case arm64.HI:
		return c.flagC && !c.flagZ
	case arm64.LS:
		return !c.flagC || c.flagZ
	case arm64.GE:
		return c.flagN == c.flagV
	case arm64.LT:
		return c.flagN != c.flagV
	case arm64.GT:
		return !c.flagZ && c.flagN == c.flagV
	case arm64.LE:
		return c.flagZ || c.flagN != c.flagV
	case arm64.AL:
		return true
	}
	return false
}

// stepPLT dispatches the builtin whose PLT slot the pc points at. Both
// engines route runtime calls through it so spawn/join/print semantics and
// cycle charging are shared.
func (c *arm64CPU) stepPLT(idx int) error {
	intArgs := []uint64{c.x[0], c.x[1], c.x[2]}
	fpArgs := []uint64{c.v[0]}
	r, fr, isFP, joining, err := c.m.callBuiltin(idx, c.clock, intArgs, fpArgs)
	if err != nil {
		return err
	}
	if isFP {
		c.v[0] = fr
	} else {
		c.x[0] = r
	}
	c.pc = c.x[30]
	c.clock += CostCall
	c.joining = joining
	return nil
}

// Step executes one instruction or builtin call: the reference engine's
// scheduling unit.
func (c *arm64CPU) Step() error {
	if idx := pltIndex(c.pc); idx >= 0 {
		return c.stepPLT(idx)
	}
	u, err := c.m.armUop(c.pc)
	if err != nil {
		return err
	}
	return u(c)
}

// armUop returns the compiled uop at pc. A pc outside .text reports a fetch
// error and an undecodable word its decode error. A misaligned pc inside
// .text decodes the word at that address and compiles it for this one
// step.
func (m *Machine) armUop(pc uint64) (armUop, error) {
	if pc < m.textAddr || pc+4 > m.textEnd {
		return nil, fmt.Errorf("sim: arm64 fetch outside .text at %#x", pc)
	}
	off := pc - m.textAddr
	if off%4 == 0 {
		if u := m.armProg.uops[off/4]; u != nil {
			return u, nil
		}
	}
	in, err := arm64.Decode(binary.LittleEndian.Uint32(m.text[off:]), pc)
	if err != nil {
		return nil, err
	}
	return compileArmUop(in), nil
}

// setMonitor arms the exclusive monitor, keeping the machine-wide count of
// live monitors (Machine.monitors) in sync so stores can skip the
// invalidation scan entirely while no monitor is armed.
func (c *arm64CPU) setMonitor(addr uint64) {
	if !c.exclValid {
		c.m.monitors++
	}
	c.exclAddr, c.exclValid = addr, true
}

// clearMonitor disarms the exclusive monitor and maintains the live count.
func (c *arm64CPU) clearMonitor() {
	if c.exclValid {
		c.m.monitors--
		c.exclValid = false
	}
}

// fval reads an FP register as a float64 (f32 registers are widened).
func (c *arm64CPU) fval(r arm64.Reg, size int) float64 {
	bits := c.v[r-arm64.D0]
	if size == 4 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

// setF writes an FP result at the given width.
func (c *arm64CPU) setF(r arm64.Reg, size int, v float64) {
	if size == 4 {
		c.v[r-arm64.D0] = uint64(math.Float32bits(float32(v)))
	} else {
		c.v[r-arm64.D0] = math.Float64bits(v)
	}
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
