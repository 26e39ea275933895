package sim

import (
	"encoding/binary"

	"lasagne/internal/arm64"
	"lasagne/internal/x86"
)

// Superblock fusion: a straight-line run of *thread-local* instructions —
// instructions that read and write only this thread's registers — executes
// as one scheduler step. Local operations commute with every operation of
// every other thread, so batching them cannot change which thread performs
// the next memory access, fence, atomic, branch decision, or builtin call,
// nor the clocks at which those interaction points occur: the deterministic
// interleaving is preserved bit for bit. Every interaction instruction
// remains its own scheduler step, exactly where the reference engine
// preempts.
//
// A local instruction must additionally be infallible (no decode, memory,
// or trap error) and fall through to pc+inst.Len, so a fused block runs to
// completion without intermediate error or control-flow checks.

// armLocal reports whether an arm64 op is thread-local and infallible.
// Memory ops (including exclusives and acquire/release), DMB, and all
// branches are interaction points. SDIV/UDIV are local: A64 division by
// zero yields zero rather than trapping.
func armLocal(op arm64.Op) bool {
	switch op {
	case arm64.NOP,
		arm64.ADD, arm64.SUB, arm64.AND, arm64.ORR, arm64.EOR,
		arm64.SUBS, arm64.ADDI, arm64.SUBI, arm64.SUBSI,
		arm64.MADD, arm64.MSUB, arm64.SDIV, arm64.UDIV,
		arm64.LSLV, arm64.LSRV, arm64.ASRV,
		arm64.LSLI, arm64.LSRI, arm64.ASRI,
		arm64.SXTB, arm64.SXTH, arm64.SXTW, arm64.UXTB, arm64.UXTH,
		arm64.MOVZ, arm64.MOVN, arm64.MOVK,
		arm64.CSEL, arm64.CSINC,
		arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV, arm64.FSQRT,
		arm64.FCMP, arm64.FMOV, arm64.FMOVTOG, arm64.FMOVTOF,
		arm64.SCVTF, arm64.FCVTZS, arm64.FCVTDS, arm64.FCVTSD:
		return true
	}
	return false
}

// x86Local reports whether an x86 instruction is thread-local and
// infallible. Any memory operand (except LEA, which only computes the
// address), any LOCK prefix, stack ops (PUSH/POP/CALL/RET touch memory),
// faulting ops (UD2, IDIV/DIV), fences, and branches are interaction
// points. Ops outside the whitelist (in particular anything the
// interpreter would reject as unhandled) never fuse.
func x86Local(in x86.Inst) bool {
	if in.Op == x86.LEA {
		return true
	}
	if in.Lock || memTouched(in.Ops) {
		return false
	}
	switch in.Op {
	case x86.NOP, x86.MOV, x86.MOVZX, x86.MOVSX, x86.MOVSXD,
		x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST,
		x86.IMUL, x86.IMUL1, x86.MUL1, x86.NEG, x86.NOT,
		x86.SHL, x86.SHR, x86.SAR, x86.CQO, x86.CDQ,
		x86.SETCC, x86.CMOVCC, x86.XCHG, x86.CMPXCHG, x86.XADD,
		x86.MOVSD_X, x86.MOVSS_X, x86.MOVQ, x86.MOVD, x86.MOVAPS, x86.MOVUPS,
		x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.SQRTSD,
		x86.ADDSS, x86.SUBSS, x86.MULSS, x86.DIVSS,
		x86.UCOMISD, x86.CVTSI2SD, x86.CVTTSD2SI, x86.CVTSS2SD, x86.CVTSD2SS,
		x86.PXOR, x86.XORPS, x86.ADDPD, x86.MULPD, x86.ADDPS, x86.PADDD:
		return true
	}
	return false
}

// compile decodes .text and compiles it into the machine's program in one
// pass. Arm64 words decode independently; x86 is swept linearly from the
// section start (the backends emit pure instruction streams, so every sweep
// boundary is a real instruction start). Words that do not decode keep a
// nil uop, and x86 offsets the sweep could not reach are compiled on demand
// (Machine.x86Uop).
func (m *Machine) compile() {
	text := m.File.Section(".text")
	if text == nil {
		return
	}
	m.text = text.Data
	m.textAddr = text.Addr
	m.textEnd = text.Addr + uint64(len(text.Data))
	switch m.File.Arch {
	case "arm64":
		m.compileArm()
	case "x86-64":
		m.compileX86()
	}
}

// compileArm builds one uop per decodable word, plus the fusible-run
// lengths via a single backward scan (fuse[i] = fuse[i+1]+1 for local
// instructions).
func (m *Machine) compileArm() {
	n := len(m.text) / 4
	p := &armProg{uops: make([]armUop, n), fuse: make([]int32, n)}
	for i := n - 1; i >= 0; i-- {
		in, err := arm64.Decode(binary.LittleEndian.Uint32(m.text[i*4:]), m.textAddr+uint64(i*4))
		if err != nil {
			continue
		}
		p.uops[i] = compileArmUop(in)
		if armLocal(in.Op) {
			f := int32(1)
			if i+1 < n {
				f += p.fuse[i+1]
			}
			p.fuse[i] = f
		}
	}
	m.armProg = p
}

// compileX86 sweeps .text forward compiling each instruction start, then
// computes the fusible-run lengths backward over the starts.
func (m *Machine) compileX86() {
	n := len(m.text)
	p := &x86Prog{uops: make([]x86Uop, n), fuse: make([]int32, n)}
	type start struct {
		off, next int
		local     bool
	}
	var starts []start
	for off := 0; off < n; {
		in, err := x86.Decode(m.text[off:], m.textAddr+uint64(off))
		if err != nil || in.Len <= 0 {
			break
		}
		p.uops[off] = compileX86Uop(in)
		starts = append(starts, start{off, off + in.Len, x86Local(in)})
		off += in.Len
	}
	for i := len(starts) - 1; i >= 0; i-- {
		if s := starts[i]; s.local {
			f := int32(1)
			if s.next < n {
				f += p.fuse[s.next]
			}
			p.fuse[s.off] = f
		}
	}
	m.x86Prog = p
}
