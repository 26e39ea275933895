package machine_test

import (
	"fmt"
	"math/bits"
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/ir"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/x86"
)

// flagsOf gives the flags of a - b at a width of w bits: Z, N (x86 SF),
// C as unsigned borrow (x86 CF; Arm's C is its negation), V (x86 OF) and
// x86 PF, from plain Go arithmetic on the sign-extended operands.
type flagsOf struct{ z, n, borrow, v, pf bool }

func subFlags(a, b int64, w int) flagsOf {
	mask := uint64(1)<<uint(w) - 1
	if w == 64 {
		mask = ^uint64(0)
	}
	ua, ub := uint64(a)&mask, uint64(b)&mask
	r := (ua - ub) & mask
	sign := uint64(1) << uint(w-1)
	return flagsOf{
		z:      r == 0,
		n:      r&sign != 0,
		borrow: ua < ub,
		v:      (ua^ub)&(ua^r)&sign != 0,
		pf:     bits.OnesCount8(uint8(r))%2 == 0,
	}
}

// x86Want is the hardware meaning of every x86 condition code after
// cmp a, b.
func x86Want(cc x86.Cond, f flagsOf) bool {
	switch cc {
	case x86.CondO:
		return f.v
	case x86.CondB:
		return f.borrow
	case x86.CondE:
		return f.z
	case x86.CondBE:
		return f.borrow || f.z
	case x86.CondS:
		return f.n
	case x86.CondP:
		return f.pf
	case x86.CondL:
		return f.n != f.v
	case x86.CondLE:
		return f.z || f.n != f.v
	}
	return !x86Want(cc.Negate(), f)
}

// armWant is the same for A64 conditions after cmp a, b.
func armWant(c arm64.Cond, f flagsOf) bool {
	switch c {
	case arm64.EQ:
		return f.z
	case arm64.HS:
		return !f.borrow
	case arm64.MI:
		return f.n
	case arm64.VS:
		return f.v
	case arm64.HI:
		return !f.borrow && !f.z
	case arm64.GE:
		return f.n == f.v
	case arm64.GT:
		return !f.z && f.n == f.v
	case arm64.AL:
		return true
	}
	return !armWant(c^1, f)
}

// edges are the operand values of a width: 0, ±1, INT_MIN and INT_MAX.
func edges(w int) []int64 {
	min := int64(-1) << uint(w-1)
	return []int64{0, 1, -1, min, -(min + 1)}
}

// ordering reports whether a condition compares its operands as numbers
// (equality, signed or unsigned order) rather than testing one flag.
var (
	x86Ordering = map[x86.Cond]bool{
		x86.CondB: true, x86.CondAE: true, x86.CondE: true, x86.CondNE: true, x86.CondBE: true,
		x86.CondA: true, x86.CondL: true, x86.CondGE: true, x86.CondLE: true, x86.CondG: true,
	}
	armOrdering = map[arm64.Cond]bool{
		arm64.EQ: true, arm64.NE: true, arm64.HS: true, arm64.LO: true, arm64.HI: true,
		arm64.LS: true, arm64.GE: true, arm64.LT: true, arm64.GT: true, arm64.LE: true,
	}
)

// condCase is one hand-encoded cmp; setcc|cset; ret function, b either
// the second argument or the immediate imm.
type condCase struct {
	name     string
	bin      *obj.File
	w        int
	imm      *int64
	ordering bool
	want     func(f flagsOf) bool
}

func x86CondCases(t *testing.T) []condCase {
	var cases []condCase
	xorEAX := x86.NewInst(x86.XOR, 4, x86.RegOp(x86.RAX), x86.RegOp(x86.RAX))
	for _, w := range []int{8, 32, 64} {
		for cc := x86.CondO; cc <= x86.CondG; cc++ {
			set := x86.NewInst(x86.SETCC, 1, x86.RegOp(x86.RAX))
			set.Cond = cc
			want := func(f flagsOf) bool { return x86Want(cc, f) }
			cmp := x86.NewInst(x86.CMP, w/8, x86.RegOp(x86.RDI), x86.RegOp(x86.RSI))
			cases = append(cases, condCase{fmt.Sprintf("cmp r%d, r%d; set%s", w, w, cc),
				x86Obj(t, xorEAX, cmp, set, x86.NewInst(x86.RET, 0)), w, nil, x86Ordering[cc], want})
			// A 64-bit compare takes a sign-extended 32-bit immediate.
			iw := min(w, 32)
			for _, imm := range edges(iw) {
				cmp := x86.NewInst(x86.CMP, w/8, x86.RegOp(x86.RDI), x86.ImmOp(imm))
				cases = append(cases, condCase{fmt.Sprintf("cmp r%d, %d; set%s", w, imm, cc),
					x86Obj(t, xorEAX, cmp, set, x86.NewInst(x86.RET, 0)), w, &imm, x86Ordering[cc], want})
			}
		}
	}
	return cases
}

func armCondCases(t *testing.T) []condCase {
	var cases []condCase
	for _, w := range []int{32, 64} {
		for c := arm64.EQ; c <= arm64.AL; c++ {
			// cset x0, c is csinc x0, xzr, xzr, !c.
			cset := arm64.Inst{Op: arm64.CSINC, Size: 8, Cond: c ^ 1, Rd: arm64.X0, Rn: arm64.XZR, Rm: arm64.XZR}
			if c == arm64.AL {
				cset = arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X0, Imm: 1}
			}
			want := func(f flagsOf) bool { return armWant(c, f) }
			ret := arm64.Inst{Op: arm64.RET}
			for _, rd := range []arm64.Reg{arm64.XZR, arm64.X2} {
				name := "cmp"
				if rd != arm64.XZR {
					name = "subs x2,"
				}
				subs := arm64.Inst{Op: arm64.SUBS, Size: w / 8, Rd: rd, Rn: arm64.X0, Rm: arm64.X1}
				cases = append(cases, condCase{fmt.Sprintf("%s w%d; cset %s", name, w, c),
					armObj(t, subs, cset, ret), w, nil, armOrdering[c], want})
			}
			for _, imm := range []int64{0, 1, 4095} {
				subs := arm64.Inst{Op: arm64.SUBSI, Size: w / 8, Rd: arm64.XZR, Rn: arm64.X0, Imm: imm}
				cases = append(cases, condCase{fmt.Sprintf("cmp w%d, #%d; cset %s", w, imm, c),
					armObj(t, subs, cset, ret), w, &imm, armOrdering[c], want})
			}
		}
	}
	return cases
}

// TestConditionCodeTable lifts cmp; setcc|cset; ret for every x86
// condition code (register and immediate operands, 8/32/64-bit) and every
// A64 condition (cmp and subs, W and X), and runs the lifted IR and its
// opt.StandardPipeline form under ir.Interp on the width's edge values,
// against the hardware meaning computed in Go. After the pipeline, every
// ordering condition must be one icmp, with no i1 xor/or/and left of the
// lifted flags.
func TestConditionCodeTable(t *testing.T) {
	cases := append(x86CondCases(t), armCondCases(t)...)
	// One interpreter serves every module: the functions use no globals,
	// and a fresh interpreter allocates its whole address space.
	ip := ir.NewInterp(ir.NewModule("none"))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lifted, err := lifts[tc.bin.Arch](tc.bin)
			if err != nil {
				t.Fatal(err)
			}
			optimised := lifted.Clone()
			if err := opt.RunPipeline(optimised, opt.StandardPipeline, true); err != nil {
				t.Fatal(err)
			}
			if tc.ordering {
				icmps := 0
				for _, b := range optimised.Func("f").Blocks {
					for _, in := range b.Instrs {
						switch {
						case in.Op == ir.OpICmp:
							icmps++
						case (in.Op == ir.OpXor || in.Op == ir.OpOr || in.Op == ir.OpAnd) && ir.IntBits(in.Ty) == 1:
							t.Errorf("i1 %s left after the pipeline", in.Op)
						}
					}
				}
				if icmps != 1 {
					t.Errorf("%d icmps after the pipeline, want 1", icmps)
				}
				if t.Failed() {
					t.Logf("%s", optimised.Func("f"))
				}
			}
			bs := edges(tc.w)
			if tc.imm != nil {
				bs = []int64{*tc.imm}
			}
			for _, a := range edges(tc.w) {
				for _, b := range bs {
					want := uint64(0)
					if tc.want(subFlags(a, b, tc.w)) {
						want = 1
					}
					for _, m := range []*ir.Module{lifted, optimised} {
						ip.M = m
						got, err := ip.Run("f", uint64(a), uint64(b))
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("f(%d, %d) = %d, want %d (optimised=%v)\n%s", a, b, got, want, m == optimised, m.Func("f"))
						}
					}
				}
			}
		})
	}
}
