package opt_test

import (
	"fmt"
	"strings"
	"testing"

	"lasagne/internal/ir"
	"lasagne/internal/opt"
)

// intPreds are the ten integer compare predicates.
var intPreds = []ir.Pred{
	ir.PredEQ, ir.PredNE, ir.PredSLT, ir.PredSLE, ir.PredSGT,
	ir.PredSGE, ir.PredULT, ir.PredULE, ir.PredUGT, ir.PredUGE,
}

// condNet is one i1 network over the operands (a, b) of a function. When
// fold is set, InstCombine must reduce it to a single icmp of a and b.
// Each rule has one network in the operand order the lifters emit; it is
// marked rule and checked on every operand pair, its reorderings and near
// misses on every a against a sample of b.
type condNet struct {
	name  string
	fold  bool
	rule  bool
	build func(bd *ir.Builder, a, b ir.Value) ir.Value
}

// bin builds x op y, or y op x when swap is set.
func bin(bd *ir.Builder, op ir.Op, swap bool, x, y ir.Value) ir.Value {
	if swap {
		x, y = y, x
	}
	return bd.Bin(op, x, y)
}

// condNets lists every shape the condition fold accepts, in every operand
// order it accepts, next to near misses that look alike but compute
// something else. Constants are built fresh at each use, as the lifters
// build them.
func condNets(ty *ir.IntType) []condNet {
	zero := func() ir.Value { return ir.IntConst(ty, 0) }
	var nets []condNet
	// xor (icmp p a, b), true -> icmp !p a, b.
	for _, p := range intPreds {
		for _, swap := range []bool{false, true} {
			nets = append(nets, condNet{fmt.Sprintf("not %s swap=%v", p, swap), true, !swap,
				func(bd *ir.Builder, a, b ir.Value) ir.Value {
					return bin(bd, ir.OpXor, swap, bd.ICmp(p, a, b), ir.I1Const(true))
				}})
		}
	}
	// SF^OF (x86) / N^V (Arm) of r = sub a, b, in every operand order.
	// Bit k of the mask swaps the outer xor, the and, xor(a, b), xor(a, r).
	for mask := 0; mask < 16; mask++ {
		nets = append(nets, condNet{fmt.Sprintf("sf^of order=%04b", mask), true, mask == 0,
			func(bd *ir.Builder, a, b ir.Value) ir.Value {
				r := bd.Sub(a, b)
				sf := bd.ICmp(ir.PredSLT, r, zero())
				m := bin(bd, ir.OpAnd, mask&2 != 0, bin(bd, ir.OpXor, mask&4 != 0, a, b), bin(bd, ir.OpXor, mask&8 != 0, a, r))
				return bin(bd, ir.OpXor, mask&1 != 0, sf, bd.ICmp(ir.PredSLT, m, zero()))
			}})
	}
	// Near misses of SF^OF: the overflow term reads the subtrahend, the
	// sign term is sle or compares with 1, or the terms come from a + b.
	nearMiss := []struct {
		name  string
		build func(bd *ir.Builder, a, b, r ir.Value) ir.Value
	}{
		{"xor b,r", func(bd *ir.Builder, a, b, r ir.Value) ir.Value {
			return bd.ICmp(ir.PredSLT, bd.And(bd.Xor(a, b), bd.Xor(b, r)), zero())
		}},
		{"xor r,b", func(bd *ir.Builder, a, b, r ir.Value) ir.Value {
			return bd.ICmp(ir.PredSLT, bd.And(bd.Xor(r, b), bd.Xor(a, b)), zero())
		}},
		{"xor a,r twice", func(bd *ir.Builder, a, b, r ir.Value) ir.Value {
			return bd.ICmp(ir.PredSLT, bd.And(bd.Xor(a, r), bd.Xor(r, a)), zero())
		}},
		{"of sle", func(bd *ir.Builder, a, b, r ir.Value) ir.Value {
			return bd.ICmp(ir.PredSLE, bd.And(bd.Xor(a, b), bd.Xor(a, r)), zero())
		}},
		{"of or", func(bd *ir.Builder, a, b, r ir.Value) ir.Value {
			return bd.ICmp(ir.PredSLT, bd.Or(bd.Xor(a, b), bd.Xor(a, r)), zero())
		}},
	}
	for _, nm := range nearMiss {
		nets = append(nets, condNet{"sf^of near miss " + nm.name, false, false,
			func(bd *ir.Builder, a, b ir.Value) ir.Value {
				r := bd.Sub(a, b)
				return bd.Xor(bd.ICmp(ir.PredSLT, r, zero()), nm.build(bd, a, b, r))
			}})
	}
	for _, sign := range []struct {
		name string
		p    ir.Pred
		c    int64
	}{{"sf sle", ir.PredSLE, 0}, {"sf slt 1", ir.PredSLT, 1}} {
		nets = append(nets, condNet{"sf^of near miss " + sign.name, false, false,
			func(bd *ir.Builder, a, b ir.Value) ir.Value {
				r := bd.Sub(a, b)
				of := bd.ICmp(ir.PredSLT, bd.And(bd.Xor(a, b), bd.Xor(a, r)), zero())
				return bd.Xor(bd.ICmp(sign.p, r, ir.IntConst(ty, sign.c)), of)
			}})
	}
	nets = append(nets, condNet{"sf^of near miss add", false, false,
		func(bd *ir.Builder, a, b ir.Value) ir.Value {
			r := bd.Add(a, b)
			of := bd.ICmp(ir.PredSLT, bd.And(bd.Xor(a, b), bd.Xor(a, r)), zero())
			return bd.Xor(bd.ICmp(ir.PredSLT, r, zero()), of)
		}})
	// or (eq a, b), (p a, b) and and (ne a, b), (p a, b) for every order
	// predicate p: or turns a strict p non-strict, and the reverse; the
	// other combinations must be left alone. Bit 0 of the mask swaps the
	// outer operands, bit 1 the eq/ne operands.
	for _, op := range []ir.Op{ir.OpOr, ir.OpAnd} {
		eq := ir.PredEQ
		if op == ir.OpAnd {
			eq = ir.PredNE
		}
		for _, p := range intPreds[2:] {
			strict := p == ir.PredSLT || p == ir.PredSGT || p == ir.PredULT || p == ir.PredUGT
			for mask := 0; mask < 4; mask++ {
				fold := strict == (op == ir.OpOr)
				nets = append(nets, condNet{fmt.Sprintf("%s %s %s order=%02b", op, eq, p, mask), fold, fold && mask == 0,
					func(bd *ir.Builder, a, b ir.Value) ir.Value {
						x, y := a, b
						if mask&2 != 0 {
							x, y = b, a
						}
						e := bd.ICmp(eq, x, y)
						return bin(bd, op, mask&1 != 0, e, bd.ICmp(p, a, b))
					}})
			}
		}
		// The opposite equality, and mismatched operand pairs.
		nets = append(nets, condNet{fmt.Sprintf("%s %s slt near miss", op, eq.Negate()), false, false,
			func(bd *ir.Builder, a, b ir.Value) ir.Value {
				return bd.Bin(op, bd.ICmp(eq.Negate(), a, b), bd.ICmp(ir.PredSLT, a, b))
			}})
		nets = append(nets, condNet{fmt.Sprintf("%s %s ult pair near miss", op, eq), false, false,
			func(bd *ir.Builder, a, b ir.Value) ir.Value {
				return bd.Bin(op, bd.ICmp(eq, a, ir.IntConst(ty, 5)), bd.ICmp(ir.PredULT, a, b))
			}})
		nets = append(nets, condNet{fmt.Sprintf("%s %s sgt constant near miss", op, eq), false, false,
			func(bd *ir.Builder, a, b ir.Value) ir.Value {
				return bd.Bin(op, bd.ICmp(eq, a, ir.IntConst(ty, 5)), bd.ICmp(ir.PredSGT, a, ir.IntConst(ty, 6)))
			}})
	}
	return nets
}

// foldFunc is one network built into a function, with b either the second
// parameter or a constant.
type foldFunc struct {
	name  string
	net   condNet
	konst bool
}

// buildFoldModule builds one function per network with b the second
// parameter, and one per network and constant of consts(net) with b that
// constant.
func buildFoldModule(ty *ir.IntType, nets []condNet, consts func(condNet) []int64) (*ir.Module, []foldFunc) {
	m := ir.NewModule("condfold")
	var fns []foldFunc
	add := func(net condNet, b func(*ir.Func) ir.Value, konst bool) {
		name := fmt.Sprintf("f%d", len(fns))
		f := m.NewFunc(name, ir.Signature(ir.I64, ty, ty))
		bd := ir.NewBuilder(f.NewBlock("entry"))
		bd.Ret(bd.Zext(net.build(bd, f.Params[0], b(f)), ir.I64))
		fns = append(fns, foldFunc{name, net, konst})
	}
	for _, net := range nets {
		add(net, func(f *ir.Func) ir.Value { return f.Params[1] }, false)
		for _, c := range consts(net) {
			add(net, func(*ir.Func) ir.Value { return ir.IntConst(ty, c) }, true)
		}
	}
	return m, fns
}

// checkFold runs InstCombine over every network at width ty and requires
// the folding ones to end as icmp; zext; ret on the function's operands.
// Then it compares each function InstCombine changed, before and after,
// under ir.Interp: a rule's network on every operand pair of vals, the
// other networks on every a of vals against each b of sample, and
// constant-b functions on every a of vals.
func checkFold(t *testing.T, ty *ir.IntType, consts func(condNet) []int64, vals, sample []int64) {
	t.Helper()
	m, fns := buildFoldModule(ty, condNets(ty), consts)
	before := m.Clone()
	var changed []foldFunc
	for _, fn := range fns {
		f := m.Func(fn.name)
		text := f.String()
		opt.InstCombine(f)
		if f.String() != text {
			changed = append(changed, fn)
		}
		if !fn.net.fold {
			continue
		}
		body := f.Entry().Instrs
		cmp := body[0]
		if len(f.Blocks) != 1 || len(body) != 3 || cmp.Op != ir.OpICmp {
			t.Fatalf("i%d %s (constant b=%v): not folded to one icmp:\n%s", ty.Bits, fn.net.name, fn.konst, f)
		}
		for _, a := range cmp.Args {
			if _, isConst := a.(*ir.ConstInt); !isConst && a != ir.Value(f.Params[0]) && a != ir.Value(f.Params[1]) {
				t.Fatalf("i%d %s: folded compare reads %s, not an operand:\n%s", ty.Bits, fn.net.name, a.Ref(), f)
			}
		}
	}
	ipBefore, ipAfter := ir.NewInterp(before), ir.NewInterp(m)
	mask := uint64(1)<<uint(ty.Bits) - 1
	for _, fn := range changed {
		bs := sample
		switch {
		case fn.konst:
			bs = vals[:1]
		case fn.net.rule:
			bs = vals
		}
		for _, a := range vals {
			for _, b := range bs {
				x, y := uint64(a)&mask, uint64(b)&mask
				want, err := ipBefore.Run(fn.name, x, y)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ipAfter.Run(fn.name, x, y)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("i%d %s (constant b=%v): f(%d, %d) = %d after InstCombine, %d before:\n%s",
						ty.Bits, fn.net.name, fn.konst, a, b, got, want, m.Func(fn.name))
				}
			}
		}
	}
}

// TestConditionFoldProof proves each condition-network rule of InstCombine
// (foldCondition) exhaustively over i8 operands against ir.Interp: the
// network each rule matches, in the operand order the lifters emit, is
// compared before and after InstCombine on all 65,536 operand pairs, and
// the SF^OF network also with b each of the 256 constants. Every other
// operand order the rules accept, and near misses they must not fold to
// the same compare, are compared on every a against a spread of b. i16
// and i32 are spot-checked on their edge values.
func TestConditionFoldProof(t *testing.T) {
	t.Parallel()
	all := make([]int64, 256)
	var sample []int64
	for i := range all {
		all[i] = int64(i) - 128
		if i%9 == 0 || i < 3 || i > 252 || i == 127 || i == 128 || i == 129 || i == 168 {
			sample = append(sample, all[i])
		}
	}
	checkFold(t, ir.I8, func(net condNet) []int64 {
		if net.rule && strings.HasPrefix(net.name, "sf^of") {
			return all
		}
		return []int64{1, -1, 5, 40, 127, -128}
	}, all, sample)
	for _, ty := range []*ir.IntType{ir.I16, ir.I32} {
		min, max := int64(-1)<<(ty.Bits-1), int64(1)<<(ty.Bits-1)-1
		edges := []int64{0, 1, -1, 2, -2, 40, min, min + 1, max, max - 1}
		checkFold(t, ty, func(condNet) []int64 { return []int64{1, 40, min, max} }, edges, edges)
	}
}
