// Package armlifter lifts Arm64 binaries to the IR — the Appendix B
// direction of the paper (Arm → IR → x86). It mirrors the x86 lifter's
// structure: CFG reconstruction with symbolic SP tracking, eager NZCV flag
// materialization, per-register slots with block-local value caching, and
// global/function rediscovery from composed MOVZ/MOVK constants.
//
// Arm's LL/SC read-modify-write loops (the canonical
// `dmb; L: ldxr; op; stxr; cbnz L; dmb` sequence emitted by compilers) are
// recognized as idioms and lifted to seq_cst atomicrmw/cmpxchg, matching
// the Appendix B mapping table:
//
//	ld      -> ld.na        DMBLD -> Frm
//	st      -> st.na        DMBST -> Fww
//	RMW     -> RMWsc        DMBFF -> Fsc
//
// The resulting IR compiles with the x86-64 backend, whose Fsc -> MFENCE /
// Frm,Fww -> (nothing) lowering completes the weak-to-strong translation.
package armlifter

import (
	"fmt"
	"sort"

	"lasagne/internal/arm64"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/obj"
)

// unit is one lifting unit: a plain instruction or a recognized atomic
// idiom spanning several instructions.
type unit struct {
	inst arm64.Inst // valid when kind == unitInst
	kind unitKind

	// Atomic idiom fields.
	rmwOp   ir.RMWOp
	size    int
	addrReg arm64.Reg
	operand arm64.Reg // value register (RMW) or new-value register (CAS)
	expect  arm64.Reg // expected-value register (CAS)
	result  arm64.Reg // register receiving the old value
	addr    uint64
	length  int // bytes covered
}

type unitKind int

const (
	unitInst unitKind = iota
	unitRMW
	unitCAS
)

// Lift translates an entire Arm64 object file into an IR module.
func Lift(file *obj.File) (*ir.Module, error) {
	ml, err := Begin(file, nil)
	if err != nil {
		return nil, err
	}
	for i := range ml.syms {
		if err := ml.Declare(i); err != nil {
			return nil, err
		}
	}
	for _, name := range ml.Names() {
		if err := ml.LiftFunc(name); err != nil {
			return nil, fmt.Errorf("armlifter: @%s: %w", name, err)
		}
	}
	if err := ir.Verify(ml.Module()); err != nil {
		return nil, fmt.Errorf("armlifter: produced invalid IR: %w", err)
	}
	return ml.Module(), nil
}

// ModuleLifter lifts one object in stages, as lifter.ModuleLifter does for
// x86-64, so the fault-tolerant pipeline can wrap each function in its own
// recover boundary: Begin decodes every function and builds the module
// shell, Declare recognizes one function's atomic idioms and reconstructs
// its CFG and signature, and LiftFunc translates one declared body.
type ModuleLifter struct {
	file  *obj.File
	mod   *ir.Module
	funcs map[string]*mfunc // declared functions
	syms  []obj.Symbol      // decoded functions, object order
	insts [][]arm64.Inst    // and their instructions
}

// Begin decodes each function symbol of the object. When bad is non-nil, a
// function that sits outside .text or holds an undecodable word is reported
// through bad and dropped instead of failing the whole object. Object-level
// problems (wrong architecture, missing .text) still return an error.
func Begin(file *obj.File, bad func(sym obj.Symbol, err error)) (*ModuleLifter, error) {
	if file.Arch != "arm64" {
		return nil, fmt.Errorf("armlifter: cannot lift %q binaries", file.Arch)
	}
	text := file.Section(".text")
	if text == nil {
		return nil, fmt.Errorf("armlifter: no .text section")
	}
	var firstErr error
	if bad == nil {
		bad = func(_ obj.Symbol, err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	ml := &ModuleLifter{file: file, mod: lifter.Shell(file), funcs: map[string]*mfunc{}}
	for _, sym := range file.FuncSymbols() {
		if sym.Addr < text.Addr || sym.Addr+sym.Size > text.Addr+uint64(len(text.Data)) {
			bad(sym, fmt.Errorf("armlifter: function %s outside .text", sym.Name))
			continue
		}
		code := text.Data[sym.Addr-text.Addr : sym.Addr-text.Addr+sym.Size]
		insts, err := arm64.DecodeAll(code, sym.Addr)
		if err != nil {
			bad(sym, fmt.Errorf("armlifter: %s: %w", sym.Name, err))
			continue
		}
		ml.syms = append(ml.syms, sym)
		ml.insts = append(ml.insts, insts)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return ml, nil
}

// Names returns the decoded functions in object order.
func (ml *ModuleLifter) Names() []string {
	names := make([]string, len(ml.syms))
	for i, sym := range ml.syms {
		names[i] = sym.Name
	}
	return names
}

// Module returns the module under construction.
func (ml *ModuleLifter) Module() *ir.Module { return ml.mod }

// Declare prepares the i-th decoded function: atomic idiom recognition,
// CFG reconstruction and type discovery, creating the (still empty) IR
// function. All declarations must happen before any LiftFunc so calls can
// resolve their callees.
func (ml *ModuleLifter) Declare(i int) error {
	sym := ml.syms[i]
	units, err := recognizeAtomics(ml.insts[i])
	if err != nil {
		return fmt.Errorf("armlifter: %s: %w", sym.Name, err)
	}
	mf, err := buildCFG(sym, units)
	if err != nil {
		return fmt.Errorf("armlifter: %s: %w", sym.Name, err)
	}
	discoverType(mf)
	ml.funcs[sym.Name] = mf
	ml.mod.NewFunc(sym.Name, mf.sig)
	return nil
}

// recognizeAtomics scans the instruction stream for the canonical LL/SC
// idioms and collapses them into single units.
//
//	RMW:  DMBFF; L: ldxr Rb,[Ra]; <op> Rc,...; stxr We,Rc,[Ra]; cbnz We,L; DMBFF
//	CAS:  DMBFF; L: ldxr Rb,[Ra]; subs zr,Rb,Rc; b.ne +12; stxr We,Rd,[Ra]; cbnz We,L; DMBFF
func recognizeAtomics(insts []arm64.Inst) ([]unit, error) {
	var out []unit
	for i := 0; i < len(insts); i++ {
		in := insts[i]
		if in.Op != arm64.LDXR && in.Op != arm64.LDAXR {
			out = append(out, unit{inst: in})
			continue
		}
		// Try the CAS shape first (it is longer).
		if i+4 < len(insts) {
			cmp, bne, stxr, cbnz := insts[i+1], insts[i+2], insts[i+3], insts[i+4]
			if cmp.Op == arm64.SUBS && cmp.Rd == arm64.XZR && cmp.Rn == in.Rd &&
				bne.Op == arm64.BCOND && bne.Cond == arm64.NE &&
				(stxr.Op == arm64.STXR || stxr.Op == arm64.STLXR) && stxr.Rn == in.Rn &&
				cbnz.Op == arm64.CBNZ && cbnz.Rd == stxr.Ra && uint64(cbnz.Imm) == in.Addr &&
				uint64(bne.Imm) == cbnz.Addr+4 {
				out = append(out, unit{
					kind: unitCAS, size: in.Size,
					addrReg: in.Rn, expect: cmp.Rm, operand: stxr.Rd, result: in.Rd,
					addr: in.Addr, length: 5 * 4,
				})
				i += 4
				continue
			}
		}
		// RMW shape.
		if i+3 < len(insts) {
			op, stxr, cbnz := insts[i+1], insts[i+2], insts[i+3]
			var rmwOp ir.RMWOp
			matched := true
			switch op.Op {
			case arm64.ADD:
				rmwOp = ir.RMWAdd
			case arm64.SUB:
				rmwOp = ir.RMWSub
			case arm64.AND:
				rmwOp = ir.RMWAnd
			case arm64.ORR:
				if op.Rn == arm64.XZR {
					rmwOp = ir.RMWXchg
				} else {
					rmwOp = ir.RMWOr
				}
			case arm64.EOR:
				rmwOp = ir.RMWXor
			default:
				matched = false
			}
			if matched &&
				(stxr.Op == arm64.STXR || stxr.Op == arm64.STLXR) && stxr.Rn == in.Rn && stxr.Rd == op.Rd &&
				cbnz.Op == arm64.CBNZ && cbnz.Rd == stxr.Ra && uint64(cbnz.Imm) == in.Addr {
				operand := op.Rm
				if rmwOp != ir.RMWXchg && op.Rn != in.Rd {
					// Operand on the left instead.
					operand = op.Rn
				}
				out = append(out, unit{
					kind: unitRMW, rmwOp: rmwOp, size: in.Size,
					addrReg: in.Rn, operand: operand, result: in.Rd,
					addr: in.Addr, length: 4 * 4,
				})
				i += 3
				continue
			}
		}
		return nil, fmt.Errorf("unrecognized exclusive-access idiom at %#x", in.Addr)
	}
	return out, nil
}

// uaddr returns the address of a unit.
func (u *unit) uaddr() uint64 {
	if u.kind == unitInst {
		return u.inst.Addr
	}
	return u.addr
}

func (u *unit) ulen() int {
	if u.kind == unitInst {
		return 4
	}
	return u.length
}

// mblock is a machine basic block of units.
type mblock struct {
	start uint64
	units []unit
	succs []*mblock
}

// mfunc is a reconstructed machine function.
type mfunc struct {
	sym    obj.Symbol
	blocks []*mblock
	sig    *ir.FuncType // i64 and f64 parameters; void, i64 or f64 result
}

func buildCFG(sym obj.Symbol, units []unit) (*mfunc, error) {
	end := sym.Addr + sym.Size
	leaders := map[uint64]bool{sym.Addr: true}
	for _, u := range units {
		if u.kind != unitInst {
			continue
		}
		in := u.inst
		if tgt, ok := in.BranchTarget(); ok && in.Op != arm64.BL {
			if tgt < sym.Addr || tgt >= end {
				return nil, fmt.Errorf("branch to %#x outside function", tgt)
			}
			leaders[tgt] = true
		}
		if in.IsTerminator() {
			leaders[in.Addr+4] = true
		}
	}
	byStart := map[uint64]*mblock{}
	mf := &mfunc{sym: sym}
	var cur *mblock
	for _, u := range units {
		if leaders[u.uaddr()] || cur == nil {
			cur = &mblock{start: u.uaddr()}
			byStart[u.uaddr()] = cur
			mf.blocks = append(mf.blocks, cur)
		}
		cur.units = append(cur.units, u)
	}
	for _, b := range mf.blocks {
		// Successors: the branch target first, then the fall-through.
		last := b.units[len(b.units)-1]
		var succs []uint64
		fall := true
		if last.kind == unitInst {
			switch in := last.inst; in.Op {
			case arm64.RET, arm64.BR:
				fall = false
			case arm64.B:
				succs, fall = []uint64{uint64(in.Imm)}, false
			case arm64.BCOND, arm64.CBZ, arm64.CBNZ:
				if in.Addr+4 >= end {
					return nil, fmt.Errorf("conditional branch at %#x without fallthrough", in.Addr)
				}
				succs = []uint64{uint64(in.Imm)}
			}
		}
		if next := last.uaddr() + uint64(last.ulen()); fall && next < end {
			succs = append(succs, next)
		}
		for _, a := range succs {
			s, ok := byStart[a]
			if !ok {
				return nil, fmt.Errorf("no block at %#x", a)
			}
			b.succs = append(b.succs, s)
		}
	}
	sort.Slice(mf.blocks, func(i, j int) bool { return mf.blocks[i].start < mf.blocks[j].start })
	return mf, nil
}

// discoverType recovers parameters (X0-X7/D0-D7 live-in at entry) and the
// return kind (X0/D0 defined before RET), mirroring §4.1 for the AAPCS.
func discoverType(mf *mfunc) {
	mf.sig = &ir.FuncType{Ret: ir.Void}
	entry := mf.blocks[0]
	usedBeforeDef := func(r arm64.Reg) bool {
		defined := map[arm64.Reg]bool{}
		for _, u := range entry.units {
			uses, defs := unitUseDef(u)
			for _, x := range uses {
				if x == r && !defined[r] {
					return true
				}
			}
			for _, d := range defs {
				defined[d] = true
			}
		}
		return false
	}
	for i := 0; i < 8; i++ {
		if !usedBeforeDef(arm64.X0 + arm64.Reg(i)) {
			break
		}
		mf.sig.Params = append(mf.sig.Params, ir.I64)
	}
	for i := 0; i < 8; i++ {
		if !usedBeforeDef(arm64.D0 + arm64.Reg(i)) {
			break
		}
		mf.sig.Params = append(mf.sig.Params, ir.F64)
	}
	// Return kind: walk back from RET blocks looking for X0/D0 defs.
	for _, b := range mf.blocks {
		last := b.units[len(b.units)-1]
		if last.kind != unitInst || last.inst.Op != arm64.RET {
			continue
		}
	scan:
		for i := len(b.units) - 2; i >= 0; i-- {
			u := b.units[i]
			if u.kind == unitInst && u.inst.Op == arm64.BL {
				break
			}
			_, defs := unitUseDef(u)
			for _, d := range defs {
				if d == arm64.X0 {
					mf.sig.Ret = ir.I64
					break scan
				}
				if d == arm64.D0 {
					mf.sig.Ret = ir.F64
					break scan
				}
			}
		}
	}
}

// unitUseDef returns registers read and written by a unit (approximate; SP
// and XZR excluded).
func unitUseDef(u unit) (uses, defs []arm64.Reg) {
	norm := func(rs []arm64.Reg) []arm64.Reg {
		var out []arm64.Reg
		for _, r := range rs {
			if r == arm64.XZR || r == arm64.SP || r == arm64.RegNone {
				continue
			}
			out = append(out, r)
		}
		return out
	}
	if u.kind == unitCAS {
		return norm([]arm64.Reg{u.addrReg, u.operand, u.expect}), norm([]arm64.Reg{u.result})
	}
	if u.kind == unitRMW {
		return norm([]arm64.Reg{u.addrReg, u.operand}), norm([]arm64.Reg{u.result})
	}
	in := u.inst
	switch in.Op {
	case arm64.ADD, arm64.SUB, arm64.SUBS, arm64.AND, arm64.ORR, arm64.EOR,
		arm64.SDIV, arm64.UDIV, arm64.LSLV, arm64.LSRV, arm64.ASRV,
		arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV, arm64.CSEL, arm64.CSINC:
		return norm([]arm64.Reg{in.Rn, in.Rm}), norm([]arm64.Reg{in.Rd})
	case arm64.ADDI, arm64.SUBI, arm64.SUBSI, arm64.LSLI, arm64.LSRI, arm64.ASRI,
		arm64.SXTB, arm64.SXTH, arm64.SXTW, arm64.UXTB, arm64.UXTH,
		arm64.FMOV, arm64.FMOVTOG, arm64.FMOVTOF, arm64.SCVTF, arm64.FCVTZS,
		arm64.FCVTDS, arm64.FCVTSD, arm64.FSQRT:
		return norm([]arm64.Reg{in.Rn}), norm([]arm64.Reg{in.Rd})
	case arm64.MADD, arm64.MSUB:
		return norm([]arm64.Reg{in.Rn, in.Rm, in.Ra}), norm([]arm64.Reg{in.Rd})
	case arm64.MOVZ, arm64.MOVN:
		return nil, norm([]arm64.Reg{in.Rd})
	case arm64.MOVK:
		return norm([]arm64.Reg{in.Rd}), norm([]arm64.Reg{in.Rd})
	case arm64.LDR, arm64.LDUR, arm64.LDRSB, arm64.LDRSH, arm64.LDRSW:
		return norm([]arm64.Reg{in.Rn}), norm([]arm64.Reg{in.Rd})
	case arm64.LDRR:
		return norm([]arm64.Reg{in.Rn, in.Rm}), norm([]arm64.Reg{in.Rd})
	case arm64.STR, arm64.STUR:
		return norm([]arm64.Reg{in.Rd, in.Rn}), nil
	case arm64.STRR:
		return norm([]arm64.Reg{in.Rd, in.Rn, in.Rm}), nil
	case arm64.FCMP:
		return norm([]arm64.Reg{in.Rn, in.Rm}), nil
	case arm64.CBZ, arm64.CBNZ:
		return norm([]arm64.Reg{in.Rd}), nil
	case arm64.BL:
		// Calls clobber caller-saved registers; argument registers are
		// read before the call (same approximation as the x86 lifter).
		var defs []arm64.Reg
		for r := arm64.X0; r <= arm64.X18; r++ {
			defs = append(defs, r)
		}
		for r := arm64.D0; r <= arm64.D31; r++ {
			defs = append(defs, r)
		}
		return nil, defs
	case arm64.BLR, arm64.BR:
		return norm([]arm64.Reg{in.Rn}), nil
	}
	return nil, nil
}
