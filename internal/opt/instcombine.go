package opt

import (
	"math"

	"lasagne/internal/ir"
)

// InstCombine performs peephole simplification: constant folding, algebraic
// identities and cast-chain collapsing. It iterates to a fixpoint.
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
				if v := simplify(in); v != nil {
					r.Replace(in, v)
					in.Parent = nil
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

// simplify returns a replacement value for in, or nil.
func simplify(in *ir.Instr) ir.Value {
	switch {
	case ir.IsBinaryOp(in.Op):
		return simplifyBinary(in)
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
	return nil
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
