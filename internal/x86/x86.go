// Package x86 models the x86-64 instruction subset used by the Lasagne
// pipeline: general-purpose and SSE instructions with genuine machine
// encodings (REX prefixes, ModRM/SIB addressing, immediates). The package
// provides an encoder (used by the compiler backend to produce input
// binaries) and a decoder (used by the binary lifter's disassembler stage).
package x86

import "fmt"

// Reg identifies an architectural register. The numeric values of the
// general-purpose registers and the XMM registers match their hardware
// encodings.
type Reg int

// General purpose registers (hardware encoding order).
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// XMM registers.
	XMM0
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15
	// RIP is usable only as a memory base (RIP-relative addressing).
	RIP
	// RegNone marks an absent register in memory operands.
	RegNone Reg = -1
)

// NumGP and NumXMM are the register file sizes.
const (
	NumGP  = 16
	NumXMM = 16
)

var gpNames = [...]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// IsGP reports whether r is a general-purpose register.
func (r Reg) IsGP() bool { return r >= RAX && r <= R15 }

// IsXMM reports whether r is an SSE register.
func (r Reg) IsXMM() bool { return r >= XMM0 && r <= XMM15 }

// Enc returns the 4-bit hardware encoding of the register.
func (r Reg) Enc() int {
	if r.IsXMM() {
		return int(r - XMM0)
	}
	return int(r)
}

func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r == RIP:
		return "rip"
	case r.IsGP():
		return gpNames[r]
	case r.IsXMM():
		return fmt.Sprintf("xmm%d", r-XMM0)
	}
	return fmt.Sprintf("reg(%d)", int(r))
}

// Name returns the conventional name of a GP register at a given width.
func (r Reg) Name(size int) string {
	if !r.IsGP() {
		return r.String()
	}
	base := gpNames[r]
	switch size {
	case 8:
		return base
	case 4:
		if r >= R8 {
			return base + "d"
		}
		switch r {
		case RAX:
			return "eax"
		case RCX:
			return "ecx"
		case RDX:
			return "edx"
		case RBX:
			return "ebx"
		case RSP:
			return "esp"
		case RBP:
			return "ebp"
		case RSI:
			return "esi"
		case RDI:
			return "edi"
		}
	case 2:
		if r >= R8 {
			return base + "w"
		}
		return base[1:]
	case 1:
		if r >= R8 {
			return base + "b"
		}
		switch r {
		case RAX:
			return "al"
		case RCX:
			return "cl"
		case RDX:
			return "dl"
		case RBX:
			return "bl"
		case RSP:
			return "spl"
		case RBP:
			return "bpl"
		case RSI:
			return "sil"
		case RDI:
			return "dil"
		}
	}
	return base
}

// Op is an instruction mnemonic.
type Op int

const (
	BAD Op = iota
	// Data movement.
	MOV
	MOVZX
	MOVSX
	MOVSXD
	LEA
	PUSH
	POP
	XCHG
	// Integer ALU.
	ADD
	SUB
	AND
	OR
	XOR
	CMP
	TEST
	IMUL  // two- or three-operand forms
	IMUL1 // one-operand RDX:RAX form
	MUL1
	IDIV
	DIV
	NEG
	NOT
	SHL
	SHR
	SAR
	CQO
	CDQ
	// Control flow.
	JMP
	JCC
	CALL
	RET
	SETCC
	CMOVCC
	// Atomics / concurrency.
	CMPXCHG
	XADD
	MFENCE
	// SSE scalar FP.
	MOVSD_X // movsd xmm form
	MOVSS_X
	MOVQ // xmm <-> r/m64
	MOVD // xmm <-> r/m32
	ADDSD
	SUBSD
	MULSD
	DIVSD
	ADDSS
	SUBSS
	MULSS
	DIVSS
	SQRTSD
	UCOMISD
	CVTSI2SD
	CVTTSD2SI
	CVTSS2SD
	CVTSD2SS
	// SSE packed.
	MOVAPS
	MOVUPS
	XORPS
	PXOR
	ADDPD
	MULPD
	ADDPS
	PADDD
	// Misc.
	NOP
	UD2
)

var opNames = map[Op]string{
	MOV: "mov", MOVZX: "movzx", MOVSX: "movsx", MOVSXD: "movsxd", LEA: "lea",
	PUSH: "push", POP: "pop", XCHG: "xchg",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor", CMP: "cmp",
	TEST: "test", IMUL: "imul", IMUL1: "imul", MUL1: "mul", IDIV: "idiv", DIV: "div",
	NEG: "neg", NOT: "not", SHL: "shl", SHR: "shr", SAR: "sar", CQO: "cqo", CDQ: "cdq",
	JMP: "jmp", JCC: "j", CALL: "call", RET: "ret", SETCC: "set", CMOVCC: "cmov",
	CMPXCHG: "cmpxchg", XADD: "xadd", MFENCE: "mfence",
	MOVSD_X: "movsd", MOVSS_X: "movss", MOVQ: "movq", MOVD: "movd",
	ADDSD: "addsd", SUBSD: "subsd", MULSD: "mulsd", DIVSD: "divsd",
	ADDSS: "addss", SUBSS: "subss", MULSS: "mulss", DIVSS: "divss", SQRTSD: "sqrtsd",
	UCOMISD: "ucomisd", CVTSI2SD: "cvtsi2sd", CVTTSD2SI: "cvttsd2si",
	CVTSS2SD: "cvtss2sd", CVTSD2SS: "cvtsd2ss",
	MOVAPS: "movaps", MOVUPS: "movups", XORPS: "xorps", PXOR: "pxor",
	ADDPD: "addpd", MULPD: "mulpd", ADDPS: "addps", PADDD: "paddd",
	NOP: "nop", UD2: "ud2",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Cond is a condition code for Jcc/SETcc/CMOVcc, matching the hardware
// encoding (tttn field).
type Cond int

const (
	CondO  Cond = 0x0
	CondNO Cond = 0x1
	CondB  Cond = 0x2
	CondAE Cond = 0x3
	CondE  Cond = 0x4
	CondNE Cond = 0x5
	CondBE Cond = 0x6
	CondA  Cond = 0x7
	CondS  Cond = 0x8
	CondNS Cond = 0x9
	CondP  Cond = 0xa
	CondNP Cond = 0xb
	CondL  Cond = 0xc
	CondGE Cond = 0xd
	CondLE Cond = 0xe
	CondG  Cond = 0xf
)

var condNames = [...]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return "?"
}

// Negate inverts the condition.
func (c Cond) Negate() Cond { return c ^ 1 }

// OperandKind discriminates the Operand union.
type OperandKind int

const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// Mem is a memory reference: [Base + Index*Scale + Disp]. A RIP base
// denotes RIP-relative addressing.
type Mem struct {
	Base  Reg
	Index Reg
	Scale int // 1, 2, 4 or 8
	Disp  int32
}

// Operand is an instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int64
	Mem  Mem
}

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp returns a [base+disp] memory operand.
func MemOp(base Reg, disp int32) Operand {
	return Operand{Kind: KindMem, Mem: Mem{Base: base, Index: RegNone, Scale: 1, Disp: disp}}
}

// MemSIB returns a full [base + index*scale + disp] memory operand.
func MemSIB(base, index Reg, scale int, disp int32) Operand {
	return Operand{Kind: KindMem, Mem: Mem{Base: base, Index: index, Scale: scale, Disp: disp}}
}

// RIPRel returns a RIP-relative memory operand with the given displacement
// (filled in relative to the end of the instruction).
func RIPRel(disp int32) Operand {
	return Operand{Kind: KindMem, Mem: Mem{Base: RIP, Index: RegNone, Scale: 1, Disp: disp}}
}

// Inst is one decoded or to-be-encoded instruction.
type Inst struct {
	Op   Op
	Cond Cond // JCC/SETCC/CMOVCC
	Lock bool // LOCK prefix
	// Size is the operation width in bytes for integer instructions
	// (1, 2, 4 or 8). For SSE instructions the width is implied by Op.
	Size int
	// SrcSize is the source width for MOVZX/MOVSX.
	SrcSize int
	Ops     []Operand

	// Decoder metadata.
	Addr uint64 // address of the first byte
	Len  int    // encoded length in bytes
}

// NewInst constructs an instruction with operands.
func NewInst(op Op, size int, ops ...Operand) Inst {
	return Inst{Op: op, Size: size, Ops: ops}
}

// IsTerminator reports whether the instruction ends a basic block.
func (i *Inst) IsTerminator() bool {
	switch i.Op {
	case JMP, JCC, RET, UD2:
		return true
	}
	return false
}

// BranchTarget returns the target address of a direct branch. The decoder
// stores targets as absolute addresses in the immediate operand.
func (i *Inst) BranchTarget() (uint64, bool) {
	switch i.Op {
	case JMP, JCC, CALL:
		if len(i.Ops) == 1 && i.Ops[0].Kind == KindImm {
			return uint64(i.Ops[0].Imm), true
		}
	}
	return 0, false
}
