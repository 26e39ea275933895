// Package arm64 models the A64 instruction subset targeted by the Lasagne
// pipeline, with genuine 32-bit instruction encodings. It covers integer
// data processing, loads/stores, exclusive (LL/SC) accesses, the three DMB
// barriers used by the IR-to-Arm mapping (DMB ISH, DMB ISHLD, DMB ISHST),
// branches and scalar floating point.
package arm64

import "fmt"

// Reg identifies an A64 register. X0-X30 are the general-purpose registers;
// XZR and SP share hardware encoding 31 and are distinguished here by
// context. D0-D31 are the FP/SIMD registers (used as S registers for
// 32-bit floats).
type Reg int

const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29 // frame pointer
	X30 // link register
	XZR
	SP
	D0
	D1
	D2
	D3
	D4
	D5
	D6
	D7
	D8
	D9
	D10
	D11
	D12
	D13
	D14
	D15
	D16
	D17
	D18
	D19
	D20
	D21
	D22
	D23
	D24
	D25
	D26
	D27
	D28
	D29
	D30
	D31
	RegNone Reg = -1
)

// IsGP reports whether r is a general-purpose register (including XZR/SP).
func (r Reg) IsGP() bool { return r >= X0 && r <= SP }

// IsFP reports whether r is an FP register.
func (r Reg) IsFP() bool { return r >= D0 && r <= D31 }

// Enc returns the 5-bit hardware encoding.
func (r Reg) Enc() uint32 {
	switch {
	case r == XZR || r == SP:
		return 31
	case r.IsFP():
		return uint32(r - D0)
	default:
		return uint32(r)
	}
}

func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r == XZR:
		return "xzr"
	case r == SP:
		return "sp"
	case r.IsFP():
		return fmt.Sprintf("d%d", r-D0)
	case r == X29:
		return "x29"
	case r == X30:
		return "x30"
	default:
		return fmt.Sprintf("x%d", int(r))
	}
}

// Name returns the register name at an operand width (w/x, s/d).
func (r Reg) Name(size int) string {
	if r.IsFP() {
		if size == 4 {
			return fmt.Sprintf("s%d", r-D0)
		}
		return fmt.Sprintf("d%d", r-D0)
	}
	if size == 4 && r != SP {
		if r == XZR {
			return "wzr"
		}
		return fmt.Sprintf("w%d", int(r))
	}
	return r.String()
}

// Cond is an A64 condition code (hardware encoding).
type Cond int

const (
	EQ Cond = 0x0
	NE Cond = 0x1
	HS Cond = 0x2 // unsigned >=
	LO Cond = 0x3 // unsigned <
	MI Cond = 0x4
	PL Cond = 0x5
	VS Cond = 0x6
	VC Cond = 0x7
	HI Cond = 0x8 // unsigned >
	LS Cond = 0x9 // unsigned <=
	GE Cond = 0xa
	LT Cond = 0xb
	GT Cond = 0xc
	LE Cond = 0xd
	AL Cond = 0xe
)

var condNames = [...]string{
	"eq", "ne", "hs", "lo", "mi", "pl", "vs", "vc",
	"hi", "ls", "ge", "lt", "gt", "le", "al", "nv",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return "?"
}

// Invert returns the opposite condition.
func (c Cond) Invert() Cond { return c ^ 1 }

// Barrier identifies a DMB variant.
type Barrier int

const (
	// BarrierISH is DMB ISH (full fence, the paper's DMBFF).
	BarrierISH Barrier = iota
	// BarrierISHLD is DMB ISHLD (the paper's DMBLD).
	BarrierISHLD
	// BarrierISHST is DMB ISHST (the paper's DMBST).
	BarrierISHST
)

func (b Barrier) String() string {
	switch b {
	case BarrierISH:
		return "ish"
	case BarrierISHLD:
		return "ishld"
	case BarrierISHST:
		return "ishst"
	}
	return "?"
}

// Op is an instruction mnemonic.
type Op int

const (
	BAD Op = iota
	// Data processing, register and immediate forms.
	ADD  // Rd = Rn + Rm
	ADDI // Rd = Rn + imm12
	SUB
	SUBI
	SUBS  // also CMP when Rd=XZR
	SUBSI // also CMP imm
	AND
	ORR // also MOV Rd, Rm when Rn=XZR
	EOR
	MADD // Rd = Ra + Rn*Rm (MUL when Ra=XZR)
	MSUB
	SDIV
	UDIV
	LSLV
	LSRV
	ASRV
	LSLI // immediate shifts (UBFM/SBFM aliases)
	LSRI
	ASRI
	SXTB // sign extensions (SBFM aliases)
	SXTH
	SXTW
	UXTB // zero extensions (UBFM aliases)
	UXTH
	MOVZ
	MOVN
	MOVK
	CSEL
	CSINC
	// Loads and stores. Size selects width; signed loads sign-extend to 64.
	LDR // unsigned scaled offset [Rn, #imm]
	STR
	LDRR // register offset [Rn, Rm]
	STRR
	LDUR // unscaled 9-bit signed offset
	STUR
	LDRSB
	LDRSH
	LDRSW
	// Exclusive accesses.
	LDXR
	STXR // Rs (status) in Ra field
	LDAXR
	STLXR
	// Acquire/release accesses (no exclusive monitor): the lowering targets
	// for ir.Acquire loads and ir.Release stores.
	LDAR
	STLR
	// Barriers.
	DMB
	// Branches.
	B
	BCOND
	BL
	BR
	BLR
	RET
	CBZ
	CBNZ
	// Floating point (scalar).
	FADD
	FSUB
	FMUL
	FDIV
	FSQRT
	FCMP
	FMOV    // fp <-> fp
	FMOVTOG // Xd <- Dn (bit move)
	FMOVTOF // Dd <- Xn
	SCVTF
	FCVTZS
	FCVTDS // double <- single
	FCVTSD // single <- double
	NOP
)

var opNames = map[Op]string{
	ADD: "add", ADDI: "add", SUB: "sub", SUBI: "sub", SUBS: "subs", SUBSI: "subs",
	AND: "and", ORR: "orr", EOR: "eor", MADD: "madd", MSUB: "msub",
	SDIV: "sdiv", UDIV: "udiv", LSLV: "lsl", LSRV: "lsr", ASRV: "asr",
	LSLI: "lsl", LSRI: "lsr", ASRI: "asr",
	SXTB: "sxtb", SXTH: "sxth", SXTW: "sxtw", UXTB: "uxtb", UXTH: "uxth",
	MOVZ: "movz", MOVN: "movn", MOVK: "movk", CSEL: "csel", CSINC: "csinc",
	LDR: "ldr", STR: "str", LDRR: "ldr", STRR: "str", LDUR: "ldur", STUR: "stur",
	LDRSB: "ldrsb", LDRSH: "ldrsh", LDRSW: "ldrsw",
	LDXR: "ldxr", STXR: "stxr", LDAXR: "ldaxr", STLXR: "stlxr",
	LDAR: "ldar", STLR: "stlr",
	DMB: "dmb", B: "b", BCOND: "b", BL: "bl", BR: "br", BLR: "blr", RET: "ret",
	CBZ: "cbz", CBNZ: "cbnz",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FSQRT: "fsqrt",
	FCMP: "fcmp", FMOV: "fmov", FMOVTOG: "fmov", FMOVTOF: "fmov",
	SCVTF: "scvtf", FCVTZS: "fcvtzs", FCVTDS: "fcvt", FCVTSD: "fcvt",
	NOP: "nop",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Inst is one A64 instruction.
type Inst struct {
	Op             Op
	Cond           Cond
	Rd, Rn, Rm, Ra Reg
	Imm            int64 // immediate / offset / shift amount / imm16
	Shift          int   // hw field for MOVZ/MOVK (shift/16)
	Size           int   // operand width in bytes (4 or 8); FP: 4=S, 8=D
	Barrier        Barrier

	// Decoder metadata.
	Addr uint64
	Len  int
}

// BranchTarget returns the absolute target of a direct branch (set by the
// decoder) or the raw immediate.
func (i *Inst) BranchTarget() (uint64, bool) {
	switch i.Op {
	case B, BL, BCOND, CBZ, CBNZ:
		return uint64(i.Imm), true
	}
	return 0, false
}
