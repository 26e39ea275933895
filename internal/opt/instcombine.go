package opt

import (
	"math"

	"lasagne/internal/ir"
)

// InstCombine performs peephole simplification: constant folding, algebraic
// identities, cast-chain collapsing and condition-network folding. It
// iterates to a fixpoint.
//
// Condition-network folding (foldCondition) undoes the lifters' eager
// flags: both lift a compare into flag slots and a condition code into an
// i1 xor/or/and of those flags, so once mem2reg has forwarded the slots a
// translated loop header tests x86 SF^OF or Arm N^V through seven
// instructions where the input had one cmp. Each rule rewrites the outer
// xor/or/and in place into the single icmp it computes, leaving its
// operands to other users or to DCE.
//
// Replacements are batched: visiting an instruction resolves its operands,
// and its operands' operands — simplify looks one instruction deep — so each
// rule sees what an immediate whole-function rewrite would have left; one
// sweep at the end covers everything else.
func InstCombine(f *ir.Func) bool {
	changed := false
	r := ir.NewReplacer(f)
	for iter := 0; iter < 8; iter++ {
		n := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Parent == nil {
					continue
				}
				r.ResolveOperands(in)
				for _, a := range in.Args {
					if ai, ok := a.(*ir.Instr); ok {
						r.ResolveOperands(ai)
					}
				}
				op := in.Op
				if v := simplify(in); v != nil {
					r.Replace(in, v)
					in.Parent = nil
					n++
				} else if in.Op != op {
					n++
				}
			}
		}
		if n == 0 {
			break
		}
		changed = true
	}
	if changed {
		ir.DropDetached(f)
		r.Apply()
	}
	if DCE(f) {
		changed = true
	}
	return changed
}

// simplify returns a replacement value for in, or nil. A rule that rewrites
// in in place into another operation also returns nil; callers see the
// changed Op.
func simplify(in *ir.Instr) ir.Value {
	switch {
	case ir.IsBinaryOp(in.Op):
		if v := simplifyBinary(in); v != nil {
			return v
		}
		foldCondition(in)
		return nil
	case ir.IsCast(in.Op):
		return simplifyCast(in)
	}
	switch in.Op {
	case ir.OpICmp:
		return simplifyICmp(in)
	case ir.OpSelect:
		if c, ok := ir.ConstIntValue(in.Args[0]); ok {
			if c&1 != 0 {
				return in.Args[1]
			}
			return in.Args[2]
		}
		if in.Args[1] == in.Args[2] {
			return in.Args[1]
		}
	case ir.OpPhi:
		// All incoming values identical (ignoring self-references).
		var uniq ir.Value
		for _, a := range in.Args {
			if a == ir.Value(in) {
				continue
			}
			if uniq == nil {
				uniq = a
			} else if uniq != a {
				return nil
			}
		}
		if uniq != nil && len(in.Args) > 0 {
			return uniq
		}
	case ir.OpGEP:
		// gep T, p, 0, 0, ... -> p when the types line up.
		allZero := true
		for _, idx := range in.Args[1:] {
			c, ok := ir.ConstIntValue(idx)
			if !ok || c != 0 {
				allZero = false
				break
			}
		}
		if allZero && in.Args[0].Type().Equal(in.Ty) {
			return in.Args[0]
		}
	}
	return nil
}

func intConstOf(v ir.Value) (int64, *ir.IntType, bool) {
	if c, ok := v.(*ir.ConstInt); ok {
		return c.V, c.Ty, true
	}
	return 0, nil, false
}

func simplifyBinary(in *ir.Instr) ir.Value {
	a, b := in.Args[0], in.Args[1]
	av, aty, aConst := intConstOf(a)
	bv, _, bConst := intConstOf(b)

	// Full constant folding (integer).
	if aConst && bConst {
		if r, ok := foldIntBinary(in.Op, av, bv, aty.Bits); ok {
			return ir.IntConst(aty, r)
		}
	}
	// Float constant folding.
	if fa, okA := a.(*ir.ConstFloat); okA {
		if fb, okB := b.(*ir.ConstFloat); okB {
			if r, ok := foldFloatBinary(in.Op, fa.V, fb.V); ok {
				return ir.FloatConst(fa.Ty, r)
			}
		}
	}
	// Canonicalize constants to the right for commutative ops.
	if aConst && !bConst && ir.CommutativeOp(in.Op) {
		in.Args[0], in.Args[1] = b, a
		a, b = in.Args[0], in.Args[1]
		av, aty, aConst = intConstOf(a)
		bv, _, bConst = intConstOf(b)
	}

	if bConst {
		switch in.Op {
		case ir.OpAdd, ir.OpSub, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
			if bv == 0 {
				return a
			}
		case ir.OpMul:
			if bv == 1 {
				return a
			}
			if bv == 0 {
				return b
			}
		case ir.OpAnd:
			if bv == 0 {
				return b
			}
			if signExt(uint64(bv), ir.IntBits(in.Ty)) == -1 {
				return a
			}
		case ir.OpSDiv, ir.OpUDiv:
			if bv == 1 {
				return a
			}
		}
		// (x op c1) op c2 -> x op (c1 op c2) for add/and/or/xor.
		if ai, ok := a.(*ir.Instr); ok && ai.Op == in.Op {
			if cv, cty, cc := intConstOf(ai.Args[1]); cc {
				switch in.Op {
				case ir.OpAdd:
					in.Args[0] = ai.Args[0]
					in.Args[1] = ir.IntConst(cty, cv+bv)
					return nil
				case ir.OpAnd:
					in.Args[0] = ai.Args[0]
					in.Args[1] = ir.IntConst(cty, cv&bv)
					return nil
				case ir.OpOr:
					in.Args[0] = ai.Args[0]
					in.Args[1] = ir.IntConst(cty, cv|bv)
					return nil
				case ir.OpXor:
					in.Args[0] = ai.Args[0]
					in.Args[1] = ir.IntConst(cty, cv^bv)
					return nil
				}
			}
		}
	}
	if a == b {
		switch in.Op {
		case ir.OpXor, ir.OpSub:
			if it, ok := in.Ty.(*ir.IntType); ok {
				return ir.IntConst(it, 0)
			}
		case ir.OpAnd, ir.OpOr:
			return a
		}
	}
	return nil
}

func foldIntBinary(op ir.Op, a, b int64, bits int) (int64, bool) {
	mask := uint64(1)<<uint(bits) - 1
	if bits >= 64 {
		mask = ^uint64(0)
	}
	au, bu := uint64(a)&mask, uint64(b)&mask
	var r uint64
	switch op {
	case ir.OpAdd:
		r = au + bu
	case ir.OpSub:
		r = au - bu
	case ir.OpMul:
		r = au * bu
	case ir.OpAnd:
		r = au & bu
	case ir.OpOr:
		r = au | bu
	case ir.OpXor:
		r = au ^ bu
	case ir.OpShl:
		r = au << (bu & 63)
	case ir.OpLShr:
		r = au >> (bu & 63)
	case ir.OpAShr:
		r = uint64(signExt(au, bits) >> (bu & 63))
	case ir.OpSDiv:
		if b == 0 {
			return 0, false
		}
		r = uint64(signExt(au, bits) / signExt(bu, bits))
	case ir.OpSRem:
		if b == 0 {
			return 0, false
		}
		r = uint64(signExt(au, bits) % signExt(bu, bits))
	case ir.OpUDiv:
		if bu == 0 {
			return 0, false
		}
		r = au / bu
	case ir.OpURem:
		if bu == 0 {
			return 0, false
		}
		r = au % bu
	default:
		return 0, false
	}
	return signExt(r&mask, bits), true
}

func foldFloatBinary(op ir.Op, a, b float64) (float64, bool) {
	switch op {
	case ir.OpFAdd:
		return a + b, true
	case ir.OpFSub:
		return a - b, true
	case ir.OpFMul:
		return a * b, true
	case ir.OpFDiv:
		return a / b, true
	}
	return 0, false
}

func signExt(v uint64, bits int) int64 {
	if bits >= 64 {
		return int64(v)
	}
	sh := uint(64 - bits)
	return int64(v<<sh) >> sh
}

func simplifyCast(in *ir.Instr) ir.Value {
	src := in.Args[0]
	// Constant folding.
	if c, ok := src.(*ir.ConstInt); ok {
		switch in.Op {
		case ir.OpTrunc, ir.OpZext, ir.OpSext:
			bits := ir.IntBits(in.Ty)
			v := c.V
			if in.Op == ir.OpZext {
				srcBits := ir.IntBits(c.Ty)
				if srcBits < 64 {
					v &= int64(1)<<uint(srcBits) - 1
				}
			}
			return ir.IntConst(in.Ty.(*ir.IntType), signExt(uint64(v), bits))
		case ir.OpSIToFP:
			if ft, ok := in.Ty.(*ir.FloatType); ok {
				return ir.FloatConst(ft, float64(c.V))
			}
		}
	}
	if c, ok := src.(*ir.ConstFloat); ok {
		switch in.Op {
		case ir.OpFPToSI:
			if it, ok := in.Ty.(*ir.IntType); ok && !math.IsNaN(c.V) {
				return ir.IntConst(it, int64(c.V))
			}
		case ir.OpFPExt:
			return ir.FloatConst(ir.F64, c.V)
		case ir.OpFPTrunc:
			return ir.FloatConst(ir.F32, float64(float32(c.V)))
		}
	}

	si, ok := src.(*ir.Instr)
	if !ok {
		if in.Op == ir.OpBitcast && src.Type().Equal(in.Ty) {
			return src
		}
		return nil
	}
	switch in.Op {
	case ir.OpBitcast:
		if src.Type().Equal(in.Ty) {
			return src
		}
		if si.Op == ir.OpBitcast {
			if si.Args[0].Type().Equal(in.Ty) {
				return si.Args[0]
			}
			in.Args[0] = si.Args[0]
		}
	case ir.OpPtrToInt:
		// ptrtoint(inttoptr x) -> x (same width).
		if si.Op == ir.OpIntToPtr && si.Args[0].Type().Equal(in.Ty) {
			return si.Args[0]
		}
		// ptrtoint(bitcast p) -> ptrtoint p.
		if si.Op == ir.OpBitcast && ir.IsPtr(si.Args[0].Type()) {
			in.Args[0] = si.Args[0]
		}
	case ir.OpIntToPtr:
		// inttoptr(ptrtoint p) -> p or bitcast p (the refine Rule 1 also
		// lives here so ordinary optimization pipelines collapse chains).
		if si.Op == ir.OpPtrToInt {
			if si.Args[0].Type().Equal(in.Ty) {
				return si.Args[0]
			}
			in.Op = ir.OpBitcast
			in.Args[0] = si.Args[0]
		}
	case ir.OpTrunc:
		// trunc(zext/sext x): same width -> x; wider -> re-extend.
		if si.Op == ir.OpZext || si.Op == ir.OpSext {
			inner := si.Args[0]
			if inner.Type().Equal(in.Ty) {
				return inner
			}
			if ir.IntBits(inner.Type()) > ir.IntBits(in.Ty) {
				in.Args[0] = inner
			}
		}
	case ir.OpZext:
		if si.Op == ir.OpZext {
			in.Args[0] = si.Args[0]
		}
	case ir.OpSext:
		if si.Op == ir.OpSext {
			in.Args[0] = si.Args[0]
		}
	}
	return nil
}

func simplifyICmp(in *ir.Instr) ir.Value {
	a, b := in.Args[0], in.Args[1]
	av, _, aConst := intConstOf(a)
	bv, _, bConst := intConstOf(b)
	if aConst && bConst {
		bits := ir.IntBits(a.Type())
		return ir.I1Const(evalPred(in.Pred, signExt(uint64(av), bits), signExt(uint64(bv), bits), bits))
	}
	if a == b {
		switch in.Pred {
		case ir.PredEQ, ir.PredSLE, ir.PredSGE, ir.PredULE, ir.PredUGE:
			return ir.I1Const(true)
		case ir.PredNE, ir.PredSLT, ir.PredSGT, ir.PredULT, ir.PredUGT:
			return ir.I1Const(false)
		}
	}
	// icmp (zext x), 0 -> icmp x, 0.
	if ai, ok := a.(*ir.Instr); ok && ai.Op == ir.OpZext && bConst && bv == 0 &&
		(in.Pred == ir.PredEQ || in.Pred == ir.PredNE) {
		in.Args[0] = ai.Args[0]
		in.Args[1] = ir.IntConst(ai.Args[0].Type().(*ir.IntType), 0)
	}
	// A boolean compared against false, as minic's conditions arrive after
	// the rule above: icmp ne c, false -> c, and icmp eq (icmp p x, y),
	// false -> icmp !p x, y. The second rewrites the outer compare in place,
	// so the inner one is left to its other users or to DCE.
	if c, ok := ir.ConstIntValue(in.Args[1]); ok && c == 0 && ir.IntBits(in.Args[0].Type()) == 1 {
		switch inner, _ := in.Args[0].(*ir.Instr); {
		case in.Pred == ir.PredNE:
			return in.Args[0]
		case in.Pred == ir.PredEQ && inner != nil && inner.Op == ir.OpICmp:
			in.Pred = inner.Pred.Negate()
			in.Args[0], in.Args[1] = inner.Args[0], inner.Args[1]
		}
	}
	return nil
}

// foldCondition rewrites an i1 xor/or/and that computes one comparison
// into that icmp, in place:
//
//	xor (icmp p a, b), true                   -> icmp !p a, b
//	xor (icmp slt r, 0), (icmp slt m, 0)      -> icmp slt a, b
//	    where r = sub a, b and m = and (xor a, b), (xor a, r)
//	or  (icmp eq a, b), (icmp slt a, b)       -> icmp sle a, b (likewise ult, sgt, ugt)
//	and (icmp ne a, b), (icmp sge a, b)       -> icmp sgt a, b (likewise uge, sle, ule)
//
// The second is SF^OF (x86) or N^V (Arm) of a compare: the sign of a-b
// differs from its overflow exactly when a <s b. Every binary operand order
// is accepted, and b may be a constant. TestConditionFoldProof checks each
// rule exhaustively over i8 operands.
func foldCondition(in *ir.Instr) {
	if it, ok := in.Ty.(*ir.IntType); !ok || it.Bits != 1 {
		return
	}
	x, _ := in.Args[0].(*ir.Instr)
	y, _ := in.Args[1].(*ir.Instr)
	if x == nil {
		return
	}
	if c, ok := ir.ConstIntValue(in.Args[1]); ok && c&1 != 0 && in.Op == ir.OpXor && x.Op == ir.OpICmp {
		setICmp(in, x.Pred.Negate(), x.Args[0], x.Args[1])
		return
	}
	if y == nil {
		return
	}
	for _, p := range [2][2]*ir.Instr{{x, y}, {y, x}} {
		switch e, o := p[0], p[1]; in.Op {
		case ir.OpXor:
			if a, b, ok := signedLess(e, o); ok {
				setICmp(in, ir.PredSLT, a, b)
				return
			}
		case ir.OpOr, ir.OpAnd:
			// or eq turns a strict order non-strict; and ne the reverse.
			eq := ir.PredEQ
			if in.Op == ir.OpAnd {
				eq = ir.PredNE
			}
			if e.Op != ir.OpICmp || e.Pred != eq || o.Op != ir.OpICmp || !hasArgs(e, o.Args[0], o.Args[1]) {
				continue
			}
			if q, strict := toggleStrict(o.Pred); q != o.Pred && strict == (in.Op == ir.OpOr) {
				setICmp(in, q, o.Args[0], o.Args[1])
				return
			}
		}
	}
}

// setICmp turns in into icmp p a, b.
func setICmp(in *ir.Instr, p ir.Pred, a, b ir.Value) {
	in.Op, in.Pred = ir.OpICmp, p
	in.Args[0], in.Args[1] = a, b
}

// signedLess matches s = icmp slt r, 0 and o = icmp slt (and (xor a, b),
// (xor a, r)), 0 with r = sub a, b, in any operand order of the and and the
// xors, and returns a and b.
func signedLess(s, o *ir.Instr) (a, b ir.Value, ok bool) {
	r := belowZero(s)
	m := belowZero(o)
	if r == nil || r.Op != ir.OpSub || m == nil || m.Op != ir.OpAnd {
		return nil, nil, false
	}
	a, b = r.Args[0], r.Args[1]
	for _, p := range [2][2]ir.Value{{m.Args[0], m.Args[1]}, {m.Args[1], m.Args[0]}} {
		if isXorOf(p[0], a, b) && isXorOf(p[1], a, r) {
			return a, b, true
		}
	}
	return nil, nil, false
}

// belowZero returns x when in is icmp slt x, 0 and x is an instruction.
func belowZero(in *ir.Instr) *ir.Instr {
	if in.Op != ir.OpICmp || in.Pred != ir.PredSLT {
		return nil
	}
	if c, ok := ir.ConstIntValue(in.Args[1]); !ok || c != 0 {
		return nil
	}
	x, _ := in.Args[0].(*ir.Instr)
	return x
}

// isXorOf reports whether v is xor p, q or xor q, p.
func isXorOf(v, p, q ir.Value) bool {
	x, ok := v.(*ir.Instr)
	return ok && x.Op == ir.OpXor && hasArgs(x, p, q)
}

// hasArgs reports whether x's two operands are p and q, in either order
// (for an eq/ne compare, which is symmetric, as for an xor).
func hasArgs(x *ir.Instr, p, q ir.Value) bool {
	return sameValue(x.Args[0], p) && sameValue(x.Args[1], q) ||
		sameValue(x.Args[0], q) && sameValue(x.Args[1], p)
}

// sameValue reports whether u and v are the same value: the same
// instruction, argument or global, or integer constants of one width and
// value (the lifters build a fresh constant at each use).
func sameValue(u, v ir.Value) bool {
	if u == v {
		return true
	}
	cu, ok1 := u.(*ir.ConstInt)
	cv, ok2 := v.(*ir.ConstInt)
	return ok1 && ok2 && cu.Ty.Bits == cv.Ty.Bits &&
		signExt(uint64(cu.V), cu.Ty.Bits) == signExt(uint64(cv.V), cv.Ty.Bits)
}

// toggleStrict maps an ordering predicate to its strict or non-strict
// partner (slt <-> sle, ...) and reports whether p itself is strict. Any
// other predicate comes back unchanged.
func toggleStrict(p ir.Pred) (ir.Pred, bool) {
	switch p {
	case ir.PredSLT:
		return ir.PredSLE, true
	case ir.PredSGT:
		return ir.PredSGE, true
	case ir.PredULT:
		return ir.PredULE, true
	case ir.PredUGT:
		return ir.PredUGE, true
	case ir.PredSLE:
		return ir.PredSLT, false
	case ir.PredSGE:
		return ir.PredSGT, false
	case ir.PredULE:
		return ir.PredULT, false
	case ir.PredUGE:
		return ir.PredUGT, false
	}
	return p, false
}

func evalPred(p ir.Pred, a, b int64, bits int) bool {
	mask := ^uint64(0)
	if bits < 64 {
		mask = 1<<uint(bits) - 1
	}
	au, bu := uint64(a)&mask, uint64(b)&mask
	switch p {
	case ir.PredEQ:
		return au == bu
	case ir.PredNE:
		return au != bu
	case ir.PredSLT:
		return a < b
	case ir.PredSLE:
		return a <= b
	case ir.PredSGT:
		return a > b
	case ir.PredSGE:
		return a >= b
	case ir.PredULT:
		return au < bu
	case ir.PredULE:
		return au <= bu
	case ir.PredUGT:
		return au > bu
	case ir.PredUGE:
		return au >= bu
	}
	return false
}
