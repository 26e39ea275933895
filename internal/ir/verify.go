package ir

import (
	"fmt"
	"slices"
	"strings"
)

// Violation is one verifier finding: which function, block and instruction
// (when known) broke which well-formedness rule. VerifyAll returns every
// violation in a module as []*Violation; Verify keeps the historical
// first-error contract.
type Violation struct {
	Func  string
	Block string // "" for function-level violations
	Instr string // printed instruction, "" when not tied to one
	Msg   string
}

func (v *Violation) Error() string {
	var sb strings.Builder
	if v.Block != "" {
		fmt.Fprintf(&sb, "block %%%s: ", v.Block)
	}
	if v.Instr != "" {
		fmt.Fprintf(&sb, "%q: ", v.Instr)
	}
	sb.WriteString(v.Msg)
	return sb.String()
}

// Verify checks structural and type well-formedness of the module:
// terminator placement, operand types, phi consistency and SSA dominance.
// It returns the first violation found, or nil.
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			return fmt.Errorf("function @%s: %w", f.Name, err)
		}
	}
	return nil
}

// VerifyAll checks every function and collects every violation instead of
// stopping at the first: the diagnostics mode used by repro bundles, where
// a single miscompiled function typically breaks several rules at once.
func VerifyAll(m *Module) []*Violation {
	var out []*Violation
	for _, f := range m.Funcs {
		out = append(out, VerifyAllFunc(f)...)
	}
	return out
}

// VerifyFunc checks a single function, returning the first violation.
func VerifyFunc(f *Func) error {
	v := &verifier{f: f}
	v.run()
	if len(v.errs) == 0 {
		return nil
	}
	return v.errs[0]
}

// VerifyAllFunc checks a single function and collects every violation.
func VerifyAllFunc(f *Func) []*Violation {
	v := &verifier{f: f, all: true}
	v.run()
	return v.errs
}

// verifier walks one function collecting violations. In first-error mode
// (all=false) every check consults stop() and bails as soon as one
// violation is recorded, preserving the historical Verify behavior.
type verifier struct {
	f    *Func
	all  bool
	errs []*Violation

	// cfgBroken is set by structural violations (empty blocks, missing
	// terminators) that make the SSA/dominance phase meaningless or unsafe
	// to run.
	cfgBroken bool

	// byID[id] is where valueIDs found the value-producing instruction
	// numbered id; rejected holds the ones whose ID it rejected, which the
	// later phases look up by pointer instead.
	byID     []idSlot
	rejected map[*Instr]bool
}

// idSlot records an instruction and its block and in-block position.
type idSlot struct {
	in       *Instr
	blk, pos int32
}

func (v *verifier) add(b *Block, in *Instr, format string, args ...any) {
	viol := &Violation{Func: v.f.Name, Msg: fmt.Sprintf(format, args...)}
	if b != nil {
		viol.Block = b.Name
	}
	if in != nil {
		viol.Instr = fmt.Sprint(in)
	}
	v.errs = append(v.errs, viol)
}

func (v *verifier) stop() bool { return !v.all && len(v.errs) > 0 }

func (v *verifier) run() {
	f := v.f
	if f.External {
		if len(f.Blocks) != 0 {
			v.add(nil, nil, "external function has a body")
		}
		return
	}
	if len(f.Blocks) == 0 {
		v.add(nil, nil, "defined function has no blocks")
		return
	}
	v.structural()
	if v.stop() || v.cfgBroken {
		return
	}
	v.valueIDs()
	if v.stop() {
		return
	}
	v.operandsDefined()
	if v.stop() {
		return
	}
	v.dominance()
}

// structural checks block shape (non-empty, terminated, phis leading) and
// per-instruction operand typing.
func (v *verifier) structural() {
	for _, b := range v.f.Blocks {
		if len(b.Instrs) == 0 {
			v.add(b, nil, "block is empty")
			v.cfgBroken = true
			if v.stop() {
				return
			}
			continue
		}
		if b.Terminator() == nil {
			v.add(b, nil, "block has no terminator")
			v.cfgBroken = true
			if v.stop() {
				return
			}
		}
		for k, in := range b.Instrs {
			if in.IsTerminator() && k != len(b.Instrs)-1 {
				v.add(b, nil, "terminator %q not at end", in)
				v.cfgBroken = true
				if v.stop() {
					return
				}
			}
			if in.Op == OpPhi && k > 0 && b.Instrs[k-1].Op != OpPhi {
				v.add(b, nil, "phi %q after non-phi", in)
				if v.stop() {
					return
				}
			}
			if err := checkInstrTypes(in); err != nil {
				v.add(b, nil, "%q: %v", in, err)
				if v.stop() {
					return
				}
			}
		}
	}
}

// valueIDs checks that every value-producing instruction has its own ID in
// 1..IDBound: the dense per-function indexes (Uses, Replacer, the fence
// escape analysis) are keyed by it. The ID table it fills in serves the
// operand and dominance checks.
func (v *verifier) valueIDs() {
	bound := v.f.IDBound()
	v.byID = make([]idSlot, bound+1)
	for bi, b := range v.f.Blocks {
		for k, in := range b.Instrs {
			if IsVoid(in.Ty) {
				continue
			}
			id := in.ID
			switch {
			case id <= 0 || id > bound:
				v.add(b, in, "value ID %d outside 1..%d", id, bound)
			case v.byID[id].in != nil:
				v.add(b, in, "duplicate value ID %d", id)
			default:
				v.byID[id] = idSlot{in: in, blk: int32(bi), pos: int32(k)}
				continue
			}
			if v.rejected == nil {
				v.rejected = map[*Instr]bool{}
			}
			v.rejected[in] = true
			if v.stop() {
				return
			}
		}
	}
}

// defined reports whether operand x is one of the function's
// value-producing instructions.
func (v *verifier) defined(x *Instr) bool {
	if x.ID > 0 && x.ID < len(v.byID) && v.byID[x.ID].in == x {
		return true
	}
	return v.rejected[x]
}

// operandsDefined checks that every operand is a parameter, module-level
// value, constant, or an instruction belonging to this function.
func (v *verifier) operandsDefined() {
	params := v.f.Params
	for _, b := range v.f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				switch x := a.(type) {
				case *ConstInt, *ConstFloat, *ConstNull, *Undef, *Global, *Func:
					continue
				case *Instr:
					if v.defined(x) {
						continue
					}
				case *Param:
					if x.Idx >= 0 && x.Idx < len(params) && params[x.Idx] == x || slices.Contains(params, x) {
						continue
					}
				}
				v.add(b, nil, "%q uses undefined value %s", in, a.Ref())
				if v.stop() {
					return
				}
			}
		}
	}
}

// dominance checks phi edge consistency and SSA dominance of instruction
// operands over reachable blocks.
func (v *verifier) dominance() {
	dt := ComputeDomTree(v.f)
	for _, b := range v.f.Blocks {
		if !dt.reachable(b) {
			continue
		}
		for pos, in := range b.Instrs {
			if in.Op == OpPhi {
				if len(in.Args) != len(in.Blocks) {
					v.add(b, nil, "phi %q: args/blocks mismatch", in)
					if v.stop() {
						return
					}
					continue
				}
				preds := dt.preds[b]
				if len(in.Args) != len(preds) {
					v.add(b, nil, "phi %q: %d incoming edges, %d predecessors",
						in, len(in.Args), len(preds))
					if v.stop() {
						return
					}
				}
				for k, a := range in.Args {
					def, ok := a.(*Instr)
					if !ok {
						continue
					}
					if def.Parent == nil || !dt.reachable(def.Parent) {
						continue
					}
					// The definition must dominate the end of the incoming block.
					inc := in.Blocks[k]
					if !dt.Dominates(def.Parent, inc) {
						v.add(b, nil, "phi %q: incoming %s does not dominate edge from %%%s",
							in, a.Ref(), inc.Name)
						if v.stop() {
							return
						}
					}
				}
				continue
			}
			for _, a := range in.Args {
				def, ok := a.(*Instr)
				if !ok {
					continue
				}
				if def.Parent == nil {
					v.add(b, nil, "%q uses removed instruction %s", in, a.Ref())
					if v.stop() {
						return
					}
					continue
				}
				if !dt.reachable(def.Parent) {
					continue
				}
				if !v.dominates(dt, def, in, b, pos) {
					v.add(b, nil, "%q: operand %s does not dominate use", in, a.Ref())
					if v.stop() {
						return
					}
				}
			}
		}
	}
}

// at returns the position valueIDs recorded for in, when it describes in's
// place in its Parent. (The record is in's first occurrence, so it is also
// what Block.Index would find.)
func (v *verifier) at(in *Instr) (pos int32, ok bool) {
	if in.ID <= 0 || in.ID >= len(v.byID) {
		return 0, false
	}
	s := v.byID[in.ID]
	if s.in != in || v.f.Blocks[s.blk] != in.Parent {
		return 0, false
	}
	return s.pos, true
}

// dominates is InstrDominates(dt, def, in) for the user in at position pos
// of block b, answering same-block order from recorded positions (a void
// user has no record: its position is pos). An instruction without a
// usable record (its ID was rejected, or it is not in its Parent) falls
// back to Block.Index.
func (v *verifier) dominates(dt *DomTree, def, in *Instr, b *Block, pos int) bool {
	if def.Parent != in.Parent {
		return dt.Dominates(def.Parent, in.Parent)
	}
	dpos, ok := v.at(def)
	upos, uok := int32(pos), in.Parent == b
	if !IsVoid(in.Ty) {
		upos, uok = v.at(in)
	}
	if !ok || !uok {
		return InstrDominates(dt, def, in)
	}
	return dpos < upos
}

func checkInstrTypes(in *Instr) error {
	argn := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	// Fixed operand counts first: the type checks below index Args.
	switch in.Op {
	case OpTrunc, OpZext, OpSext, OpBitcast, OpIntToPtr, OpPtrToInt,
		OpSIToFP, OpFPToSI, OpFPExt, OpFPTrunc:
		if err := argn(1); err != nil {
			return err
		}
	case OpExtractElement:
		return argn(2)
	case OpInsertElement:
		return argn(3)
	case OpFence, OpBr, OpUnreachable:
		if err := argn(0); err != nil {
			return err
		}
	case OpAlloca, OpRet:
		if len(in.Args) > 1 {
			return fmt.Errorf("want 0 or 1 operands, have %d", len(in.Args))
		}
	}
	switch in.Op {
	case OpLoad:
		if err := argn(1); err != nil {
			return err
		}
		pt, ok := in.Args[0].Type().(*PtrType)
		if !ok {
			return fmt.Errorf("load from non-pointer %s", in.Args[0].Type())
		}
		if !pt.Elem.Equal(in.Ty) {
			return fmt.Errorf("load type %s from %s", in.Ty, pt)
		}
		if in.Order == Release {
			return fmt.Errorf("load with release ordering")
		}
	case OpStore:
		if err := argn(2); err != nil {
			return err
		}
		pt, ok := in.Args[1].Type().(*PtrType)
		if !ok {
			return fmt.Errorf("store to non-pointer %s", in.Args[1].Type())
		}
		if !pt.Elem.Equal(in.Args[0].Type()) {
			return fmt.Errorf("store %s to %s", in.Args[0].Type(), pt)
		}
		if in.Order == Acquire {
			return fmt.Errorf("store with acquire ordering")
		}
	case OpRMW:
		if err := argn(2); err != nil {
			return err
		}
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("atomicrmw on non-pointer")
		}
		if in.Order != SeqCst {
			return fmt.Errorf("atomicrmw with %s ordering (only seq_cst is mapped)", in.Order)
		}
	case OpCmpXchg:
		if err := argn(3); err != nil {
			return err
		}
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("cmpxchg on non-pointer")
		}
		if in.Order != SeqCst {
			return fmt.Errorf("cmpxchg with %s ordering (only seq_cst is mapped)", in.Order)
		}
	case OpGEP:
		if len(in.Args) < 2 {
			return fmt.Errorf("getelementptr needs base and index")
		}
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("getelementptr base is %s", in.Args[0].Type())
		}
	case OpICmp:
		if err := argn(2); err != nil {
			return err
		}
		a, b := in.Args[0].Type(), in.Args[1].Type()
		if !a.Equal(b) {
			return fmt.Errorf("icmp operand types %s vs %s", a, b)
		}
		if !IsInt(a) && !IsPtr(a) {
			return fmt.Errorf("icmp on %s", a)
		}
	case OpFCmp:
		if err := argn(2); err != nil {
			return err
		}
		if !IsFloat(in.Args[0].Type()) {
			return fmt.Errorf("fcmp on %s", in.Args[0].Type())
		}
	case OpSelect:
		if err := argn(3); err != nil {
			return err
		}
		if !in.Args[1].Type().Equal(in.Args[2].Type()) {
			return fmt.Errorf("select arms %s vs %s", in.Args[1].Type(), in.Args[2].Type())
		}
	case OpCondBr:
		if err := argn(1); err != nil {
			return err
		}
		if IntBits(in.Args[0].Type()) != 1 {
			return fmt.Errorf("condbr condition is %s", in.Args[0].Type())
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("condbr needs 2 targets")
		}
	case OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs 1 target")
		}
	case OpCall:
		if len(in.Args) < 1 {
			return fmt.Errorf("call without callee")
		}
		ft, ok := in.Args[0].Type().(*FuncType)
		if !ok {
			return fmt.Errorf("call of non-function %s", in.Args[0].Type())
		}
		fixed := len(ft.Params)
		if len(in.Args)-1 < fixed || (!ft.Variadic && len(in.Args)-1 != fixed) {
			return fmt.Errorf("call arity %d, signature %s", len(in.Args)-1, ft)
		}
		for k := 0; k < fixed; k++ {
			if !in.Args[1+k].Type().Equal(ft.Params[k]) {
				return fmt.Errorf("call arg %d is %s, want %s", k, in.Args[1+k].Type(), ft.Params[k])
			}
		}
	case OpTrunc:
		if IntBits(in.Args[0].Type()) <= IntBits(in.Ty) {
			return fmt.Errorf("trunc %s to %s", in.Args[0].Type(), in.Ty)
		}
	case OpZext, OpSext:
		if IntBits(in.Args[0].Type()) >= IntBits(in.Ty) {
			return fmt.Errorf("%s %s to %s", in.Op, in.Args[0].Type(), in.Ty)
		}
	case OpBitcast:
		if in.Args[0].Type().Size() != in.Ty.Size() {
			return fmt.Errorf("bitcast size mismatch %s to %s", in.Args[0].Type(), in.Ty)
		}
	case OpIntToPtr:
		if !IsInt(in.Args[0].Type()) || !IsPtr(in.Ty) {
			return fmt.Errorf("inttoptr %s to %s", in.Args[0].Type(), in.Ty)
		}
	case OpPtrToInt:
		if !IsPtr(in.Args[0].Type()) || !IsInt(in.Ty) {
			return fmt.Errorf("ptrtoint %s to %s", in.Args[0].Type(), in.Ty)
		}
	default:
		if IsBinaryOp(in.Op) {
			if err := argn(2); err != nil {
				return err
			}
			if !in.Args[0].Type().Equal(in.Args[1].Type()) {
				return fmt.Errorf("%s operand types %s vs %s", in.Op, in.Args[0].Type(), in.Args[1].Type())
			}
			if !in.Ty.Equal(in.Args[0].Type()) {
				return fmt.Errorf("%s result %s, operands %s", in.Op, in.Ty, in.Args[0].Type())
			}
		}
	}
	return nil
}
