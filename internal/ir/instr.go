package ir

import "fmt"

// Op identifies an instruction opcode.
type Op int

// Instruction opcodes.
const (
	OpInvalid Op = iota

	// Memory.
	OpAlloca  // result: Elem* ; Args: [count i64] (optional)
	OpLoad    // result: elem  ; Args: ptr          ; Order
	OpStore   // void          ; Args: val, ptr     ; Order
	OpFence   // void          ; Fence kind
	OpRMW     // result: elem  ; Args: ptr, operand ; RMW op, Order=SeqCst
	OpCmpXchg // result: elem (old value) ; Args: ptr, expected, new ; Order=SeqCst
	OpGEP     // result: ptr   ; Args: base, idx... ; SrcElem

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons.
	OpICmp // result i1 ; Pred
	OpFCmp // result i1 ; Pred

	// Conversions.
	OpTrunc
	OpZext
	OpSext
	OpBitcast
	OpIntToPtr
	OpPtrToInt
	OpSIToFP
	OpFPToSI
	OpFPExt
	OpFPTrunc

	// Vectors.
	OpExtractElement // Args: vec, idx
	OpInsertElement  // Args: vec, val, idx

	// Other.
	OpSelect // Args: cond, a, b
	OpPhi    // Args parallel with Blocks (incoming edges)
	OpCall   // Args: callee, args...

	// Terminators.
	OpRet    // Args: [val]
	OpBr     // Blocks: [target]
	OpCondBr // Args: cond ; Blocks: [then, else]
	OpUnreachable
)

var opNames = map[Op]string{
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpFence: "fence",
	OpRMW: "atomicrmw", OpCmpXchg: "cmpxchg", OpGEP: "getelementptr",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpTrunc: "trunc", OpZext: "zext", OpSext: "sext", OpBitcast: "bitcast",
	OpIntToPtr: "inttoptr", OpPtrToInt: "ptrtoint",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi", OpFPExt: "fpext", OpFPTrunc: "fptrunc",
	OpExtractElement: "extractelement", OpInsertElement: "insertelement",
	OpSelect: "select", OpPhi: "phi", OpCall: "call",
	OpRet: "ret", OpBr: "br", OpCondBr: "br", OpUnreachable: "unreachable",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Ordering is the atomic memory ordering of a load, store or RMW. LIMM
// distinguishes non-atomic accesses from seq_cst atomics (§6.3); the
// weak-fence lowering adds acquire loads and release stores, which map to
// Arm LDAR/STLR instead of standalone DMB barriers.
type Ordering int

const (
	// NotAtomic marks ordinary, unordered accesses (suffix "na" in the
	// paper).
	NotAtomic Ordering = iota
	// SeqCst marks sequentially consistent atomic accesses.
	SeqCst
	// Acquire marks an acquire load: it orders with every later access of
	// the same thread (lowered to Arm LDAR). Only valid on loads.
	Acquire
	// Release marks a release store: every earlier access of the same
	// thread orders with it (lowered to Arm STLR). Only valid on stores.
	Release
)

func (o Ordering) String() string {
	switch o {
	case SeqCst:
		return "seq_cst"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	}
	return "na"
}

// FenceKind identifies one of the LIMM fences (§6.3).
type FenceKind int

const (
	// FenceNone is the zero value; it never appears on a fence instruction.
	FenceNone FenceKind = iota
	// FenceRM is Frm: orders a prior load with successor memory accesses.
	// Maps to Arm DMBLD.
	FenceRM
	// FenceWW is Fww: orders prior stores with successor stores. Maps to
	// Arm DMBST.
	FenceWW
	// FenceSC is Fsc: a full fence. Maps to x86 MFENCE / Arm DMBFF.
	FenceSC
)

func (f FenceKind) String() string {
	switch f {
	case FenceRM:
		return "frm"
	case FenceWW:
		return "fww"
	case FenceSC:
		return "fsc"
	}
	return "fence?"
}

// RMWOp is the operation of an atomicrmw instruction.
type RMWOp int

const (
	RMWXchg RMWOp = iota
	RMWAdd
	RMWSub
	RMWAnd
	RMWOr
	RMWXor
)

func (r RMWOp) String() string {
	switch r {
	case RMWXchg:
		return "xchg"
	case RMWAdd:
		return "add"
	case RMWSub:
		return "sub"
	case RMWAnd:
		return "and"
	case RMWOr:
		return "or"
	case RMWXor:
		return "xor"
	}
	return "rmw?"
}

// Pred is an integer or float comparison predicate.
type Pred int

const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE
	// Float predicates (ordered comparisons).
	PredOEQ
	PredONE
	PredOLT
	PredOLE
	PredOGT
	PredOGE
	// Unordered: true if either operand is NaN.
	PredUNO
)

var predNames = [...]string{
	PredEQ: "eq", PredNE: "ne", PredSLT: "slt", PredSLE: "sle",
	PredSGT: "sgt", PredSGE: "sge", PredULT: "ult", PredULE: "ule",
	PredUGT: "ugt", PredUGE: "uge",
	PredOEQ: "oeq", PredONE: "one", PredOLT: "olt", PredOLE: "ole",
	PredOGT: "ogt", PredOGE: "oge", PredUNO: "uno",
}

func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return "pred?"
}

// Negate returns the predicate that is true exactly when p is false.
func (p Pred) Negate() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredSLT:
		return PredSGE
	case PredSLE:
		return PredSGT
	case PredSGT:
		return PredSLE
	case PredSGE:
		return PredSLT
	case PredULT:
		return PredUGE
	case PredULE:
		return PredUGT
	case PredUGT:
		return PredULE
	case PredUGE:
		return PredULT
	case PredOEQ:
		return PredONE
	case PredONE:
		return PredOEQ
	case PredOLT:
		return PredOGE
	case PredOLE:
		return PredOGT
	case PredOGT:
		return PredOLE
	case PredOGE:
		return PredOLT
	}
	return p
}

// Instr is a single IR instruction. Instructions producing a value are
// themselves Values and may be used as operands of later instructions.
type Instr struct {
	Op   Op
	Ty   Type    // result type; Void for instructions producing no value
	Args []Value // operands

	// Blocks holds the successor blocks of terminators and, for phi
	// instructions, the incoming blocks (parallel to Args).
	Blocks []*Block

	Elem   Type      // alloca: allocated element type; GEP: source element type
	Order  Ordering  // load/store/rmw/cmpxchg
	Fence  FenceKind // fence
	RMWOp  RMWOp     // atomicrmw
	Pred   Pred      // icmp/fcmp
	ID     int       // unique value number within the function
	Nam    string    // optional friendly name (overrides %t<ID>)
	Parent *Block
}

func (i *Instr) Type() Type { return i.Ty }

// Ref returns the operand spelling of the instruction's result.
func (i *Instr) Ref() string {
	if i.Nam != "" {
		return "%" + i.Nam
	}
	return fmt.Sprintf("%%t%d", i.ID)
}

// IsTerminator reports whether the instruction terminates a basic block.
func (i *Instr) IsTerminator() bool {
	switch i.Op {
	case OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	}
	return false
}

// IsMemAccess reports whether the instruction reads or writes memory
// (excluding fences and calls).
func (i *Instr) IsMemAccess() bool {
	switch i.Op {
	case OpLoad, OpStore, OpRMW, OpCmpXchg:
		return true
	}
	return false
}

// HasSideEffects reports whether the instruction may not be removed even if
// its result is unused.
func (i *Instr) HasSideEffects() bool {
	switch i.Op {
	case OpStore, OpFence, OpRMW, OpCmpXchg, OpCall,
		OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	}
	return false
}

// CallArgs returns the argument operands of a call instruction.
func (i *Instr) CallArgs() []Value {
	if i.Op == OpCall {
		return i.Args[1:]
	}
	return nil
}

// Succs returns the successor blocks of a terminator.
func (i *Instr) Succs() []*Block {
	switch i.Op {
	case OpBr, OpCondBr:
		return i.Blocks
	}
	return nil
}

// ReplaceUses replaces every operand equal to old with new. It returns the
// number of replacements performed.
func (i *Instr) ReplaceUses(old, new Value) int {
	n := 0
	for k, a := range i.Args {
		if a == old {
			i.Args[k] = new
			n++
		}
	}
	return n
}

// CommutativeOp reports whether the binary opcode is commutative.
func CommutativeOp(op Op) bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpFAdd, OpFMul:
		return true
	}
	return false
}

// IsBinaryOp reports whether op is a two-operand arithmetic/logic opcode.
func IsBinaryOp(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpUDiv, OpSRem, OpURem,
		OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr,
		OpFAdd, OpFSub, OpFMul, OpFDiv:
		return true
	}
	return false
}

// IsCast reports whether op is a conversion opcode.
func IsCast(op Op) bool {
	switch op {
	case OpTrunc, OpZext, OpSext, OpBitcast, OpIntToPtr, OpPtrToInt,
		OpSIToFP, OpFPToSI, OpFPExt, OpFPTrunc:
		return true
	}
	return false
}
