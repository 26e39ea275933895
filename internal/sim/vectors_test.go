package sim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// Per-instruction golden vectors. Every instruction form the encoders
// accept is encoded, decoded back, and executed one step from a fixed set
// of machine states under both engines: the reference engine's Step and the
// threaded engine's dispatch unit. Both must leave identical observations,
// and the SHA-256 of the reference observations over all states must equal
// the form's digest in testdata/vectors.golden. That table was recorded
// from the stepper's own instruction switch before the compiled closures
// became the only semantics, so it pins register, flag, memory, pc, cycle,
// instruction-count, monitor and error-string behavior across the change.
//
// Regenerate the table only for a deliberate semantic change:
//
//	go test ./internal/sim -run TestInstructionVectors -update-vectors

var updateVectors = flag.Bool("update-vectors", false, "rewrite testdata/vectors.golden from the current semantics")

const (
	vecGolden = "testdata/vectors.golden"
	// vecWindow is the observed low memory window. State values that are
	// valid addresses stay below 0x100 (or within 8 bytes of the top of
	// memory), and every store form's displacement keeps its address
	// (plus 16 bytes) inside the window (or vecTop), so no in-bounds store
	// goes unobserved.
	vecWindow = 4096
	// vecCanary is the span next to each observed span that is checked to
	// stay zero.
	vecCanary = 64 << 10
	// vecTop is the observed span at the top of memory, zero in every
	// state, which the top-of-memory register values and absolute-address
	// forms hit to test the bounds edge.
	vecTop = 512
	// vecClock is every state's starting clock.
	vecClock = 1000
)

// vecState is one initial machine state. Arm uses gp[0..30] as X0–X30 and
// gp[31] as SP, fp[i][0] as D<i>; x86 uses gp[0..15] and fp[0..15] as XMM
// lanes. flags holds NZCV (Arm) or ZF SF OF CF PF (x86) in its low bits.
type vecState struct {
	gp    [32]uint64
	fp    [32][2]uint64
	flags uint8
	// monitor arms the exclusive monitor of the stepping Arm CPU and of a
	// second "peer" CPU at gp[1], so stores show their invalidations.
	monitor bool
	mem     []byte
}

// vecObs is everything one step may change.
type vecObs struct {
	gp            [32]uint64
	fp            [32][2]uint64
	flags         [5]bool
	pc            uint64
	clock, icount int64
	done, joining bool
	excl          [2]uint64
	exclValid     [2]bool
	monitors      int
	mem           string // changed window bytes as offset/value pairs
	err           string
}

func (o *vecObs) appendTo(b []byte) []byte {
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	t := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, v := range o.gp {
		u(v)
	}
	for _, v := range o.fp {
		u(v[0])
		u(v[1])
	}
	for _, v := range o.flags {
		t(v)
	}
	u(o.pc)
	u(uint64(o.clock))
	u(uint64(o.icount))
	t(o.done)
	t(o.joining)
	u(o.excl[0])
	u(o.excl[1])
	t(o.exclValid[0])
	t(o.exclValid[1])
	u(uint64(o.monitors))
	u(uint64(len(o.mem)))
	b = append(b, o.mem...)
	u(uint64(len(o.err)))
	return append(b, o.err...)
}

// Register values. regVals are in-bounds addresses only when below 0x100
// or at MemSize-8 and MemSize-7, the last addresses an 8-byte access may
// and may not start at; memVals adds sub-word edges that would be
// in-bounds but unobserved addresses, so they appear only in memory.
var (
	regVals = []uint64{
		0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, // 0, -1, INT64_MIN, INT64_MAX
		0xFFFFFFFF80000000, 0x80000000, 0x7FFFFFFF, 0xFFFFFFFF, // INT32 edges
		0xFFFFFFFFFFFF8000, 0xFFFFFFFF00007FFF, 0xFFFFFFFFFFFFFF80, // INT16/INT8 edges
		0x80, 0x7F, 0xFF,
		7, 8, 15, 16, 31, 32, 63, 64, // shift counts 0/1/width-1/width
		sentinel, 0x3FF0000000000000, 0x3F800000, // 1.0 as double and float bits
		MemSize - 8, MemSize - 7,
	}
	memVals  = append([]uint64{0x7FFF, 0x8000, 0xFFFF}, regVals...)
	pairVals = []uint64{0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, 0xFFFFFFFF80000000, 0x7FFFFFFF}
)

func fillWords(v uint64) []byte {
	mem := make([]byte, vecWindow)
	for i := 0; i < vecWindow; i += 8 {
		binary.LittleEndian.PutUint64(mem[i:], v)
	}
	return mem
}

// vecStates builds the state set: uniform edge values, small aligned
// registers over edge-valued memory, every ordered pair of the main edges on
// alternating registers (dividend/divisor, value/count), and seeded
// random states. Arm gets each state twice, monitor disarmed and armed.
func vecStates(arm bool) []vecState {
	var out []vecState
	for i, v := range regVals {
		s := vecState{flags: uint8(i), mem: fillWords(v)}
		for r := range s.gp {
			s.gp[r] = v
			s.fp[r] = [2]uint64{v, v}
		}
		out = append(out, s)
	}
	for i, v := range memVals {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		s := vecState{flags: uint8(rng.Intn(32)), mem: fillWords(v)}
		for r := range s.gp {
			s.gp[r] = uint64(rng.Intn(32)) * 8 // aligned, so loads see v
			s.fp[r] = [2]uint64{v, ^v}
		}
		out = append(out, s)
	}
	for i, a := range pairVals {
		for j, b := range pairVals {
			s := vecState{flags: uint8(i*7 + j), mem: fillWords(b)}
			for r := range s.gp {
				v := a
				if r%2 == 1 {
					v = b
				}
				s.gp[r] = v
				s.fp[r] = [2]uint64{v, a ^ b}
			}
			out = append(out, s)
		}
	}
	specials := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e300, -1e-300, math.Inf(1), math.Inf(-1), math.NaN(), 9.3e18, -9.3e18, 2.5}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := vecState{flags: uint8(rng.Intn(32)), mem: make([]byte, vecWindow)}
		rng.Read(s.mem)
		for r := range s.gp {
			switch rng.Intn(3) {
			case 0:
				s.gp[r] = rng.Uint64()
			case 1:
				s.gp[r] = uint64(rng.Intn(64))
			default:
				s.gp[r] = regVals[rng.Intn(len(regVals))]
			}
			for k := range s.fp[r] {
				switch rng.Intn(3) {
				case 0:
					s.fp[r][k] = rng.Uint64()
				case 1:
					s.fp[r][k] = math.Float64bits(specials[rng.Intn(len(specials))])
				default:
					s.fp[r][k] = uint64(math.Float32bits(float32(specials[rng.Intn(len(specials))]))) |
						uint64(math.Float32bits(float32(rng.NormFloat64())))<<32
				}
			}
		}
		out = append(out, s)
	}
	if arm {
		n := len(out)
		for _, s := range out[:n] {
			s.monitor = true
			out = append(out, s)
		}
	}
	return out
}

// vecMachine returns a fresh machine running one form's code.
func vecMachine(arch string, code []byte) *Machine {
	m := &Machine{Out: &strings.Builder{}, NThreads: 4, MaxSteps: DefaultMaxSteps, heapTop: HeapBase}
	loadForm(m, arch, code)
	return m
}

// loadForm loads one form's code at obj.TextBase into m, clearing what an
// earlier form left there, and compiles it.
func loadForm(m *Machine, arch string, code []byte) {
	m.File = &obj.File{Arch: arch, Entry: "main", Sections: []obj.Section{
		{Name: ".text", Addr: obj.TextBase, Data: code},
	}}
	var text [64]byte
	copy(text[:], code)
	m.Mem.Write(obj.TextBase, text[:])
	m.compile()
}

var vecZeroTop [vecTop]byte

// resetMem loads s's window and clears the top span.
func resetMem(m *Machine, s *vecState) {
	m.Mem.Write(0, s.mem)
	m.Mem.Write(MemSize-vecTop, vecZeroTop[:])
}

// memDiff lists the bytes that changed in both observed spans.
func memDiff(m *Machine, s *vecState) string {
	var win [vecWindow]byte
	var top [vecTop]byte
	m.Mem.Read(0, win[:])
	m.Mem.Read(MemSize-vecTop, top[:])
	return spanDiff(win[:], s.mem, 0) + spanDiff(top[:], vecZeroTop[:], MemSize-vecTop)
}

func spanDiff(got, want []byte, base int) string {
	if bytes.Equal(got, want) {
		return ""
	}
	var b []byte
	for i := range got {
		if got[i] != want[i] {
			b = binary.LittleEndian.AppendUint32(b, uint32(base+i))
			b = append(b, got[i])
		}
	}
	return string(b)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// stepArm runs one step of the form on a fresh CPU in state s, under the
// reference engine (Step) or the threaded one (its dispatch unit).
func stepArm(m *Machine, s *vecState, threaded bool) vecObs {
	resetMem(m, s)
	c := &arm64CPU{m: m, pc: obj.TextBase, clock: vecClock}
	peer := &arm64CPU{m: m}
	copy(c.x[:], s.gp[:31])
	c.sp = s.gp[31]
	for i := range c.v {
		c.v[i] = s.fp[i][0]
	}
	c.flagN, c.flagZ, c.flagC, c.flagV = s.flags&1 != 0, s.flags&2 != 0, s.flags&4 != 0, s.flags&8 != 0
	m.armCPUs = []*arm64CPU{c, peer}
	m.monitors = 0
	if s.monitor {
		c.setMonitor(s.gp[1])
		peer.setMonitor(s.gp[1])
	}
	var err error
	if threaded {
		_, err = m.armUnit(c, m.armProg)
	} else {
		err = c.Step()
	}
	o := vecObs{pc: c.pc, clock: c.clock, icount: c.icount, done: c.done, joining: c.joining,
		excl: [2]uint64{c.exclAddr, peer.exclAddr}, exclValid: [2]bool{c.exclValid, peer.exclValid},
		monitors: m.monitors, mem: memDiff(m, s), err: errString(err)}
	copy(o.gp[:], c.x[:])
	o.gp[31] = c.sp
	for i, v := range c.v {
		o.fp[i][0] = v
	}
	o.flags = [5]bool{c.flagN, c.flagZ, c.flagC, c.flagV}
	return o
}

func stepX86(m *Machine, s *vecState, threaded bool) vecObs {
	resetMem(m, s)
	c := &x86CPU{m: m, rip: obj.TextBase, clock: vecClock}
	copy(c.regs[:], s.gp[:16])
	copy(c.xmm[:], s.fp[:16])
	c.zf, c.sf, c.of, c.cf, c.pf = s.flags&1 != 0, s.flags&2 != 0, s.flags&4 != 0, s.flags&8 != 0, s.flags&16 != 0
	m.x86CPUs = []*x86CPU{c}
	var err error
	if threaded {
		_, err = m.x86Unit(c, m.x86Prog)
	} else {
		err = c.Step()
	}
	o := vecObs{pc: c.rip, clock: c.clock, icount: c.icount, done: c.done, joining: c.joining,
		mem: memDiff(m, s), err: errString(err)}
	copy(o.gp[:], c.regs[:])
	copy(o.fp[:], c.xmm[:])
	o.flags = [5]bool{c.zf, c.sf, c.of, c.cf, c.pf}
	return o
}

type vecForm struct {
	name string
	arch string
	code []byte
	// nanWidth is 4 or 8 for commutative float arithmetic (add, multiply):
	// when both operands are NaN, which payload the result carries depends
	// on how the Go compiler orders the operands, so the observation maps
	// every NaN of that width in the FP registers to one quiet NaN.
	nanWidth int
}

// canonNaN rewrites NaN float lanes of width w in place.
func canonNaN(fp *[32][2]uint64, w int) {
	for i := range fp {
		for k, v := range fp[i] {
			if w == 8 {
				if math.IsNaN(math.Float64frombits(v)) {
					fp[i][k] = 0x7FF8000000000000
				}
				continue
			}
			for sh := 0; sh < 64; sh += 32 {
				if f := math.Float32frombits(uint32(v >> sh)); f != f {
					v = v&^(0xFFFFFFFF<<sh) | 0x7FC00000<<sh
				}
			}
			fp[i][k] = v
		}
	}
}

// vecDigest runs every state through both engines on m, the machine every
// form shares, reports the first disagreement, and returns the digest of
// the reference observations. Stray stores — outside the observed spans —
// must leave the canary spans next to them zero and allocate no page.
func vecDigest(t *testing.T, f vecForm, states []vecState, m *Machine, canary []byte) string {
	loadForm(m, f.arch, f.code)
	resetMem(m, &states[0])
	pages := m.Mem.Pages()
	step := stepX86
	if f.arch == "arm64" {
		step = stepArm
	}
	h := sha256.New()
	var buf []byte
	for i := range states {
		ref := step(m, &states[i], false)
		thr := step(m, &states[i], true)
		if f.nanWidth != 0 {
			canonNaN(&ref.fp, f.nanWidth)
			canonNaN(&thr.fp, f.nanWidth)
		}
		if ref != thr {
			t.Errorf("%s, state %d: engines disagree\nreference: %+v\nthreaded:  %+v", f.name, i, ref, thr)
			return ""
		}
		buf = ref.appendTo(buf[:0])
		h.Write(buf)
	}
	low := canary[:vecCanary-vecWindow]
	m.Mem.Read(vecWindow, low)
	stray := !isZero(low)
	high := canary[:vecCanary-vecTop]
	m.Mem.Read(MemSize-vecCanary, high)
	if stray || !isZero(high) || m.Mem.Pages() != pages {
		t.Fatalf("%s: a store landed outside the observed windows", f.name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func isZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Arm64 forms.

func armForms(t *testing.T) []vecForm {
	type I = arm64.Inst
	const (
		X0, X1, X2, X3, X4, X29, X30 = arm64.X0, arm64.X1, arm64.X2, arm64.X3, arm64.X4, arm64.X29, arm64.X30
		XZR, SP, D0, D1, D2, D3, D31 = arm64.XZR, arm64.SP, arm64.D0, arm64.D1, arm64.D2, arm64.D3, arm64.D31
	)
	var ins []I
	add := func(in ...I) { ins = append(ins, in...) }
	sizes := []int{4, 8}
	triples := [][3]arm64.Reg{{X1, X2, X3}, {X0, X30, X29}, {XZR, X2, X3}, {X1, XZR, X3}, {X1, X2, XZR}, {X3, X3, X3}}
	pairs := [][2]arm64.Reg{{X1, X2}, {X30, X0}, {XZR, X2}, {X1, XZR}}

	add(I{Op: arm64.NOP})
	for _, b := range []arm64.Barrier{arm64.BarrierISH, arm64.BarrierISHLD, arm64.BarrierISHST} {
		add(I{Op: arm64.DMB, Barrier: b})
	}
	for _, op := range []arm64.Op{arm64.ADD, arm64.SUB, arm64.AND, arm64.ORR, arm64.EOR, arm64.SUBS,
		arm64.MADD, arm64.MSUB, arm64.SDIV, arm64.UDIV, arm64.LSLV, arm64.LSRV, arm64.ASRV} {
		for _, sz := range sizes {
			for _, r := range triples {
				add(I{Op: op, Size: sz, Rd: r[0], Rn: r[1], Rm: r[2], Ra: X4})
			}
			if op == arm64.MADD || op == arm64.MSUB {
				add(I{Op: op, Size: sz, Rd: X1, Rn: X2, Rm: X3, Ra: XZR})
			}
		}
	}
	for _, op := range []arm64.Op{arm64.ADDI, arm64.SUBI, arm64.SUBSI} {
		for _, sz := range sizes {
			for _, r := range [][2]arm64.Reg{{X1, X2}, {SP, SP}, {X1, SP}, {SP, X2}, {XZR, X2}} {
				for _, imm := range []int64{0, 1, 4095} {
					add(I{Op: op, Size: sz, Rd: r[0], Rn: r[1], Imm: imm})
				}
			}
		}
	}
	for _, sz := range sizes {
		w := int64(sz * 8)
		for _, r := range pairs {
			for _, sh := range []int64{1, w - 1} {
				add(I{Op: arm64.LSLI, Size: sz, Rd: r[0], Rn: r[1], Imm: sh})
			}
			for _, sh := range []int64{0, 1, w - 1} {
				add(I{Op: arm64.LSRI, Size: sz, Rd: r[0], Rn: r[1], Imm: sh},
					I{Op: arm64.ASRI, Size: sz, Rd: r[0], Rn: r[1], Imm: sh})
			}
			add(I{Op: arm64.SXTB, Size: sz, Rd: r[0], Rn: r[1]}, I{Op: arm64.SXTH, Size: sz, Rd: r[0], Rn: r[1]},
				I{Op: arm64.SXTW, Size: 8, Rd: r[0], Rn: r[1]},
				I{Op: arm64.UXTB, Size: 4, Rd: r[0], Rn: r[1]}, I{Op: arm64.UXTH, Size: 4, Rd: r[0], Rn: r[1]})
		}
		for _, op := range []arm64.Op{arm64.MOVZ, arm64.MOVN, arm64.MOVK} {
			for sh := 0; sh < sz/2; sh++ {
				for _, imm := range []int64{0, 0xFFFF, 0x8001} {
					add(I{Op: op, Size: sz, Rd: X1, Imm: imm, Shift: sh})
				}
			}
			add(I{Op: op, Size: sz, Rd: XZR, Imm: 0x8001, Shift: 1})
		}
		for cc := arm64.Cond(0); cc < 16; cc++ {
			add(I{Op: arm64.CSEL, Size: sz, Cond: cc, Rd: X1, Rn: X2, Rm: X3},
				I{Op: arm64.CSINC, Size: sz, Cond: cc, Rd: X1, Rn: X2, Rm: X3})
		}
		for _, op := range []arm64.Op{arm64.CSEL, arm64.CSINC} {
			add(I{Op: op, Size: sz, Cond: arm64.NE, Rd: XZR, Rn: X2, Rm: X3},
				I{Op: op, Size: sz, Cond: arm64.EQ, Rd: X1, Rn: XZR, Rm: XZR})
		}
	}

	// Loads and stores. Store offsets stay small (see vecWindow); loads
	// also take the largest encodable offset.
	for _, sz := range []int{1, 2, 4, 8} {
		for _, rd := range []arm64.Reg{X1, XZR, X30, D1, D31} {
			for _, rn := range []arm64.Reg{X2, SP} {
				for _, imm := range []int64{0, int64(sz), int64(8 * sz)} {
					add(I{Op: arm64.LDR, Size: sz, Rd: rd, Rn: rn, Imm: imm},
						I{Op: arm64.STR, Size: sz, Rd: rd, Rn: rn, Imm: imm})
				}
				add(I{Op: arm64.LDR, Size: sz, Rd: rd, Rn: rn, Imm: int64(4095 * sz)})
				for _, imm := range []int64{-256, -1, 0, 255} {
					add(I{Op: arm64.LDUR, Size: sz, Rd: rd, Rn: rn, Imm: imm},
						I{Op: arm64.STUR, Size: sz, Rd: rd, Rn: rn, Imm: imm})
				}
				for _, rm := range []arm64.Reg{X3, XZR} {
					for _, scaled := range []int64{0, 1} {
						add(I{Op: arm64.LDRR, Size: sz, Rd: rd, Rn: rn, Rm: rm, Imm: scaled},
							I{Op: arm64.STRR, Size: sz, Rd: rd, Rn: rn, Rm: rm, Imm: scaled})
					}
				}
			}
		}
		for _, rd := range []arm64.Reg{X2, XZR} {
			for _, rn := range []arm64.Reg{X1, SP} {
				add(I{Op: arm64.LDAR, Size: sz, Rd: rd, Rn: rn}, I{Op: arm64.STLR, Size: sz, Rd: rd, Rn: rn})
			}
		}
	}
	for k, op := range []arm64.Op{arm64.LDRSB, arm64.LDRSH, arm64.LDRSW} {
		scale := int64(1) << k
		for _, rd := range []arm64.Reg{X1, XZR} {
			for _, rn := range []arm64.Reg{X2, SP} {
				for _, imm := range []int64{0, scale, 4095 * scale} {
					add(I{Op: op, Size: int(scale), Rd: rd, Rn: rn, Imm: imm})
				}
			}
		}
	}
	for _, sz := range sizes {
		for _, rn := range []arm64.Reg{X1, SP} {
			for _, rd := range []arm64.Reg{X2, XZR} {
				add(I{Op: arm64.LDXR, Size: sz, Rd: rd, Rn: rn}, I{Op: arm64.LDAXR, Size: sz, Rd: rd, Rn: rn})
				for _, ra := range []arm64.Reg{X3, XZR, X1} {
					add(I{Op: arm64.STXR, Size: sz, Rd: rd, Rn: rn, Ra: ra}, I{Op: arm64.STLXR, Size: sz, Rd: rd, Rn: rn, Ra: ra})
				}
			}
		}
	}

	// Branches. Offsets are relative to the form's own address.
	for _, off := range []int64{8, -4, 0} {
		add(I{Op: arm64.B, Imm: off}, I{Op: arm64.BL, Imm: off})
	}
	for cc := arm64.Cond(0); cc < 16; cc++ {
		add(I{Op: arm64.BCOND, Cond: cc, Imm: 8})
	}
	for _, sz := range sizes {
		for _, rd := range []arm64.Reg{X1, XZR} {
			add(I{Op: arm64.CBZ, Size: sz, Rd: rd, Imm: 8}, I{Op: arm64.CBNZ, Size: sz, Rd: rd, Imm: 8})
		}
	}
	for _, rn := range []arm64.Reg{X1, X30, XZR} {
		add(I{Op: arm64.BR, Rn: rn}, I{Op: arm64.BLR, Rn: rn})
	}
	add(I{Op: arm64.RET, Rn: X30})

	// Scalar floating point.
	for _, sz := range sizes {
		for _, op := range []arm64.Op{arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV} {
			add(I{Op: op, Size: sz, Rd: D1, Rn: D2, Rm: D3}, I{Op: op, Size: sz, Rd: D0, Rn: D0, Rm: D0})
		}
		add(I{Op: arm64.FSQRT, Size: sz, Rd: D1, Rn: D2},
			I{Op: arm64.FCMP, Size: sz, Rn: D1, Rm: D2}, I{Op: arm64.FCMP, Size: sz, Rn: D1, Rm: D1},
			I{Op: arm64.FMOV, Size: sz, Rd: D1, Rn: D31})
		for _, r := range []arm64.Reg{X1, XZR} {
			add(I{Op: arm64.FMOVTOG, Size: sz, Rd: r, Rn: D2}, I{Op: arm64.FMOVTOF, Size: sz, Rd: D2, Rn: r},
				I{Op: arm64.SCVTF, Size: sz, Rd: D1, Rn: r}, I{Op: arm64.FCVTZS, Size: sz, Rd: r, Rn: D1})
		}
	}
	add(I{Op: arm64.FCVTDS, Rd: D1, Rn: D2}, I{Op: arm64.FCVTSD, Rd: D1, Rn: D2})

	var out []vecForm
	seen := map[uint32]bool{}
	for _, in := range ins {
		w, err := arm64.Encode(in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		if seen[w] {
			continue
		}
		seen[w] = true
		dec, err := arm64.Decode(w, obj.TextBase)
		if err != nil {
			t.Fatalf("decode %08x (%+v): %v", w, in, err)
		}
		f := vecForm{
			name: fmt.Sprintf("arm64 %08x %s", w, dec),
			arch: "arm64",
			code: binary.LittleEndian.AppendUint32(nil, w),
		}
		if dec.Op == arm64.FADD || dec.Op == arm64.FMUL {
			f.nanWidth = dec.Size
		}
		out = append(out, f)
	}
	return out
}

// x86-64 forms.

func x86Forms(t *testing.T) []vecForm {
	type I = x86.Inst
	R := x86.RegOp
	imm := x86.ImmOp
	const (
		RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = x86.RAX, x86.RCX, x86.RDX, x86.RBX, x86.RSP, x86.RBP, x86.RSI, x86.RDI
		R8, R9, R12, R13, R15                  = x86.R8, x86.R9, x86.R12, x86.R13, x86.R15
	)
	// Memory shapes: base, disp8/disp32, RBP/R13 bases (explicit disp),
	// RSP/R12 bases (SIB), base+index*scale, index only, absolute, and
	// RIP-relative targets in the window and out of bounds.
	inWindow := x86.RIPRel(int32(0x100 - obj.TextBase))
	allMems := []x86.Operand{
		x86.MemOp(RBX, 0), x86.MemOp(RBX, 8), x86.MemOp(RBX, -8), x86.MemOp(RBP, 0),
		x86.MemOp(RSP, 16), x86.MemOp(R12, 0), x86.MemOp(R13, 0x100),
		x86.MemSIB(RBX, RSI, 1, 0), x86.MemSIB(RBX, RSI, 2, 4), x86.MemSIB(R12, R9, 4, -4),
		x86.MemSIB(RBP, RDI, 8, 0x100), x86.MemSIB(x86.RegNone, RSI, 8, 0x200),
		x86.MemSIB(x86.RegNone, x86.RegNone, 1, 0x300), inWindow, x86.RIPRel(0x7FFFFFF0),
	}
	mems := []x86.Operand{x86.MemOp(RBX, 8), x86.MemSIB(R12, R9, 4, -4), inWindow}
	sizes := []int{1, 2, 4, 8}
	regPairs := func(sz int) [][2]x86.Reg {
		if sz == 1 {
			return [][2]x86.Reg{{RAX, RCX}, {RSI, RDI}, {R8, RSP}}
		}
		return [][2]x86.Reg{{RAX, RCX}, {R9, R12}, {RCX, RCX}}
	}
	immsFor := func(sz int) []int64 {
		if sz == 1 {
			return []int64{0, -1, 0x7F}
		}
		return []int64{0, -1, 0x7F, -0x80000000}
	}
	var ins []I
	add := func(in ...I) { ins = append(ins, in...) }
	locked := func(in I) I { in.Lock = true; return in }

	add(I{Op: x86.NOP}, I{Op: x86.UD2}, I{Op: x86.MFENCE}, I{Op: x86.RET}, I{Op: x86.CQO}, I{Op: x86.CDQ})
	for _, sz := range sizes {
		for _, p := range regPairs(sz) {
			add(x86.NewInst(x86.MOV, sz, R(p[0]), R(p[1])))
		}
		for _, v := range immsFor(sz) {
			add(x86.NewInst(x86.MOV, sz, R(RAX), imm(v)), x86.NewInst(x86.MOV, sz, x86.MemOp(RBX, 8), imm(v)))
		}
		for _, mo := range allMems {
			add(x86.NewInst(x86.MOV, sz, R(RCX), mo), x86.NewInst(x86.MOV, sz, mo, R(RCX)))
		}
		if sz >= 2 {
			for _, mo := range allMems {
				add(x86.NewInst(x86.LEA, sz, R(RAX), mo))
			}
			for _, src := range []int{1, 2} {
				for _, s := range append([]x86.Operand{R(RCX), R(RSI)}, mems...) {
					add(I{Op: x86.MOVZX, Size: sz, SrcSize: src, Ops: []x86.Operand{R(RAX), s}},
						I{Op: x86.MOVSX, Size: sz, SrcSize: src, Ops: []x86.Operand{R(RAX), s}})
				}
			}
		}
	}
	add(x86.NewInst(x86.MOV, 8, R(R15), imm(0x123456789A)), x86.NewInst(x86.MOV, 8, R(RAX), imm(-1<<40)))
	for _, s := range append([]x86.Operand{R(RCX)}, mems...) {
		add(I{Op: x86.MOVSXD, Size: 8, SrcSize: 4, Ops: []x86.Operand{R(RAX), s}})
	}

	for _, op := range []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST} {
		for _, sz := range sizes {
			for _, p := range regPairs(sz) {
				add(x86.NewInst(op, sz, R(p[0]), R(p[1])))
			}
			add(locked(x86.NewInst(op, sz, R(RAX), R(RCX))))
			for _, v := range immsFor(sz) {
				add(x86.NewInst(op, sz, R(RAX), imm(v)), x86.NewInst(op, sz, x86.MemOp(RBX, 8), imm(v)))
			}
			add(locked(x86.NewInst(op, sz, x86.MemOp(RBX, 8), imm(3))))
			for _, mo := range mems {
				add(x86.NewInst(op, sz, mo, R(RCX)), locked(x86.NewInst(op, sz, mo, R(RCX))))
				if op != x86.TEST {
					add(x86.NewInst(op, sz, R(RCX), mo))
				}
			}
		}
	}

	for _, sz := range []int{2, 4, 8} {
		for _, s := range append([]x86.Operand{R(RCX), R(RAX)}, mems...) {
			add(x86.NewInst(x86.IMUL, sz, R(RAX), s))
			for _, v := range []int64{0, -1, 7, 0x12345, -0x80000000} {
				add(x86.NewInst(x86.IMUL, sz, R(RAX), s, imm(v)))
			}
		}
	}
	for _, op := range []x86.Op{x86.IMUL1, x86.MUL1, x86.IDIV, x86.DIV, x86.NEG, x86.NOT} {
		for _, sz := range sizes {
			for _, s := range append([]x86.Operand{R(RCX), R(RAX), R(RSI)}, mems...) {
				add(x86.NewInst(op, sz, s))
			}
			if op == x86.NEG || op == x86.NOT {
				add(locked(x86.NewInst(op, sz, x86.MemOp(RBX, 8))), locked(x86.NewInst(op, sz, R(RCX))))
			}
		}
	}
	for _, op := range []x86.Op{x86.SHL, x86.SHR, x86.SAR} {
		for _, sz := range sizes {
			w := int64(sz * 8)
			for _, d := range append([]x86.Operand{R(RAX), R(RCX), R(RSI)}, mems...) {
				add(x86.NewInst(op, sz, d, R(RCX)))
				for _, n := range []int64{0, 1, w - 1, w, 63, 64} {
					add(x86.NewInst(op, sz, d, imm(n)))
				}
			}
		}
	}

	for _, r := range []x86.Reg{RAX, R12, RSP} {
		add(x86.NewInst(x86.PUSH, 8, R(r)), x86.NewInst(x86.POP, 8, R(r)))
	}
	for _, v := range []int64{5, -1} {
		add(x86.NewInst(x86.PUSH, 8, imm(v)))
	}
	for _, op := range []x86.Op{x86.XCHG, x86.CMPXCHG, x86.XADD} {
		for _, sz := range sizes {
			for _, p := range regPairs(sz) {
				add(x86.NewInst(op, sz, R(p[0]), R(p[1])))
			}
			for _, mo := range mems {
				add(x86.NewInst(op, sz, mo, R(RCX)), locked(x86.NewInst(op, sz, mo, R(RCX))))
			}
			add(locked(x86.NewInst(op, sz, R(RBX), R(RCX))))
		}
	}

	// Control flow: rel32 immediates are relative to the next instruction.
	for _, op := range []x86.Op{x86.JMP, x86.CALL} {
		for _, rel := range []int64{0, 16, -5} {
			add(x86.NewInst(op, 0, imm(rel)))
		}
		for _, s := range append([]x86.Operand{R(RAX), R(RSP), x86.MemOp(RSP, 0)}, mems...) {
			add(x86.NewInst(op, 0, s))
		}
	}
	for cc := x86.Cond(0); cc < 16; cc++ {
		add(I{Op: x86.JCC, Cond: cc, Ops: []x86.Operand{imm(16)}})
		for _, d := range []x86.Operand{R(RAX), R(RSI), x86.MemOp(RBX, 8)} {
			add(I{Op: x86.SETCC, Cond: cc, Size: 1, Ops: []x86.Operand{d}})
		}
		add(I{Op: x86.CMOVCC, Cond: cc, Size: 8, Ops: []x86.Operand{R(RAX), R(RCX)}},
			I{Op: x86.CMOVCC, Cond: cc, Size: 4, Ops: []x86.Operand{R(RAX), x86.MemOp(RBX, 8)}})
	}
	for _, sz := range []int{2, 4, 8} {
		for _, s := range append([]x86.Operand{R(RCX)}, mems...) {
			add(I{Op: x86.CMOVCC, Cond: x86.CondNE, Size: sz, Ops: []x86.Operand{R(RAX), s}})
		}
	}

	// The top of memory: accesses that end exactly at MemSize, overrun it
	// by a byte, or (16-byte moves) fault on their second half.
	for _, k := range []int32{16, 12, 8, 7, 4, 3, 2, 1, 0} {
		top := x86.MemSIB(x86.RegNone, x86.RegNone, 1, MemSize-k)
		for _, sz := range sizes {
			add(x86.NewInst(x86.MOV, sz, R(RCX), top), x86.NewInst(x86.MOV, sz, top, R(RCX)))
		}
		add(x86.NewInst(x86.ADD, 8, top, R(RCX)),
			x86.NewInst(x86.MOVAPS, 0, x86.RegOp(x86.XMM1), top), x86.NewInst(x86.MOVAPS, 0, top, x86.RegOp(x86.XMM1)),
			x86.NewInst(x86.MOVSD_X, 0, top, x86.RegOp(x86.XMM1)), x86.NewInst(x86.ADDSD, 0, x86.RegOp(x86.XMM1), top))
	}

	// SSE, scalar and packed, low and high XMM registers.
	X := func(i int) x86.Operand { return R(x86.XMM0 + x86.Reg(i)) }
	xpairs := [][2]x86.Operand{{X(1), X(2)}, {X(9), X(15)}, {X(0), X(0)}}
	for _, op := range []x86.Op{x86.MOVSD_X, x86.MOVSS_X, x86.MOVAPS, x86.MOVUPS} {
		for _, p := range xpairs {
			add(x86.NewInst(op, 0, p[0], p[1]))
		}
		for _, mo := range mems {
			add(x86.NewInst(op, 0, X(1), mo), x86.NewInst(op, 0, mo, X(9)))
		}
	}
	for _, op := range []x86.Op{x86.MOVQ, x86.MOVD} {
		for _, g := range []x86.Reg{RAX, R9} {
			add(x86.NewInst(op, 0, X(1), R(g)), x86.NewInst(op, 0, R(g), X(9)))
		}
		for _, mo := range mems {
			add(x86.NewInst(op, 0, X(1), mo), x86.NewInst(op, 0, mo, X(9)))
		}
	}
	for _, op := range []x86.Op{x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.SQRTSD,
		x86.ADDSS, x86.SUBSS, x86.MULSS, x86.DIVSS, x86.UCOMISD, x86.CVTSS2SD, x86.CVTSD2SS,
		x86.XORPS, x86.PXOR, x86.ADDPD, x86.MULPD, x86.ADDPS, x86.PADDD} {
		for _, p := range xpairs {
			add(x86.NewInst(op, 0, p[0], p[1]))
		}
		for _, mo := range mems {
			add(x86.NewInst(op, 0, X(9), mo))
		}
	}
	for _, sz := range []int{4, 8} {
		for _, s := range append([]x86.Operand{R(RCX), R(R12)}, mems...) {
			add(x86.NewInst(x86.CVTSI2SD, sz, X(1), s))
		}
		for _, s := range append([]x86.Operand{X(2), X(15)}, mems...) {
			add(x86.NewInst(x86.CVTTSD2SI, sz, R(RAX), s))
		}
	}

	var out []vecForm
	seen := map[string]bool{}
	emit := func(code []byte) {
		if seen[string(code)] {
			return
		}
		seen[string(code)] = true
		dec, err := x86.Decode(code, obj.TextBase)
		if err != nil || dec.Len != len(code) {
			t.Fatalf("decode % x: %v (len %d)", code, err, dec.Len)
		}
		f := vecForm{name: fmt.Sprintf("x86 % x %s", code, dec), arch: "x86-64", code: code}
		switch dec.Op {
		case x86.ADDSD, x86.MULSD, x86.ADDPD, x86.MULPD:
			f.nanWidth = 8
		case x86.ADDSS, x86.MULSS, x86.ADDPS:
			f.nanWidth = 4
		}
		out = append(out, f)
	}
	for _, in := range ins {
		code, err := x86.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		emit(code)
	}
	// Shapes only the decoder produces: PUSH r/m64 (FF /6, encoded as the
	// JMP r/m64 form FF /4 with the ModRM reg field patched) and 16-bit
	// integer<->double conversions.
	for _, mo := range append([]x86.Operand{x86.MemOp(RSP, 16), x86.MemOp(RSP, 0)}, mems...) {
		code, err := x86.Encode(x86.NewInst(x86.JMP, 0, mo))
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.IndexByte(code, 0xFF)
		code[at+1] |= 0x10
		emit(code)
	}
	emit([]byte{0x66, 0xF2, 0x0F, 0x2A, 0xC1}) // cvtsi2sd xmm0, cx
	emit([]byte{0x66, 0xF2, 0x0F, 0x2C, 0xC1}) // cvttsd2si ax, xmm1
	return out
}

func readVectorGolden(t *testing.T) map[string]string {
	f, err := os.Open(vecGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-vectors)", err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", vecGolden, sc.Text())
		}
		golden[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestInstructionVectors checks every instruction form under both engines
// against the recorded per-form digests. Short mode checks every 16th
// form.
func TestInstructionVectors(t *testing.T) {
	forms := append(armForms(t), x86Forms(t)...)
	armStates, x86States := vecStates(true), vecStates(false)
	m, canary := vecMachine("arm64", nil), make([]byte, vecCanary)

	// Float-to-integer conversions of NaN and out-of-range values are
	// implementation-defined in Go; the table records amd64's results.
	checkGolden := runtime.GOARCH == "amd64" || *updateVectors
	var golden map[string]string
	if checkGolden && !*updateVectors {
		golden = readVectorGolden(t)
	}
	var table bytes.Buffer
	checked := 0
	for i, f := range forms {
		if testing.Short() && !*updateVectors && i%16 != 0 {
			continue
		}
		states := x86States
		if f.arch == "arm64" {
			states = armStates
		}
		d := vecDigest(t, f, states, m, canary)
		if d == "" {
			continue
		}
		checked++
		fmt.Fprintf(&table, "%s %s\n", d, f.name)
		if golden == nil {
			continue
		}
		if want, ok := golden[f.name]; !ok {
			t.Errorf("%s: no recorded digest", f.name)
		} else if d != want {
			t.Errorf("%s: digest %s, recorded %s", f.name, d, want)
		}
		delete(golden, f.name)
	}
	if *updateVectors {
		if t.Failed() {
			t.Fatal("engines disagree; not writing the table")
		}
		if err := os.WriteFile(vecGolden, table.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", checked, vecGolden)
		return
	}
	if golden != nil && !testing.Short() {
		for name := range golden {
			t.Errorf("%s: recorded form no longer generated", name)
		}
	}
	t.Logf("%d forms checked (%d generated)", checked, len(forms))
}
