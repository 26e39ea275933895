package machine_test

import (
	"strings"
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/armlifter"
	"lasagne/internal/diag"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// Hand-encoded one-function objects for the checks that must hold for both
// ISAs. In the helpers' input a conditional branch's Imm names the index of
// its target instruction; they turn it into the real offset.

func x86Obj(t *testing.T, insts ...x86.Inst) *obj.File {
	t.Helper()
	encode := func(in x86.Inst) []byte {
		code, err := x86.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	// Branch displacements are rel32 whatever their value, so the first
	// pass fixes every address.
	addr := make([]int64, len(insts)+1)
	for i, in := range insts {
		addr[i+1] = addr[i] + int64(len(encode(in)))
	}
	var text []byte
	for i, in := range insts {
		if in.Op == x86.JCC {
			in.Ops = []x86.Operand{x86.ImmOp(addr[in.Ops[0].Imm] - addr[i+1])}
		}
		text = append(text, encode(in)...)
	}
	return oneFunc("x86-64", text)
}

func armObj(t *testing.T, insts ...arm64.Inst) *obj.File {
	t.Helper()
	var text []byte
	for i, in := range insts {
		if in.Op == arm64.CBZ || in.Op == arm64.CBNZ {
			in.Imm = (in.Imm - int64(i)) * 4
		}
		w, err := arm64.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return oneFunc("arm64", text)
}

func oneFunc(arch string, text []byte) *obj.File {
	return &obj.File{Arch: arch, Entry: "f",
		Sections: []obj.Section{{Name: ".text", Addr: obj.TextBase, Data: text}},
		Symbols:  []obj.Symbol{{Name: "f", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(len(text))}}}
}

func jcc(cc x86.Cond, target int64) x86.Inst {
	in := x86.NewInst(x86.JCC, 0, x86.ImmOp(target))
	in.Cond = cc
	return in
}

var lifts = map[string]func(*obj.File) (*ir.Module, error){
	"x86-64": lifter.Lift,
	"arm64":  armlifter.Lift,
}

// TestLateReadParameter: a parameter register read only after a branch is
// still live-in at entry, so §4.1 discovery keeps it. Both functions return
// 7 for a non-zero first argument and the second argument otherwise; a
// discovery that looked only at the entry block would drop the second
// parameter.
func TestLateReadParameter(t *testing.T) {
	for _, bin := range []*obj.File{
		// test rdi, rdi; je L; mov eax, 7; ret; L: mov rax, rsi; ret
		x86Obj(t,
			x86.NewInst(x86.TEST, 8, x86.RegOp(x86.RDI), x86.RegOp(x86.RDI)),
			jcc(x86.CondE, 4),
			x86.NewInst(x86.MOV, 4, x86.RegOp(x86.RAX), x86.ImmOp(7)),
			x86.NewInst(x86.RET, 0),
			x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RAX), x86.RegOp(x86.RSI)),
			x86.NewInst(x86.RET, 0)),
		// cbz x0, L; movz x0, #7; ret; L: mov x0, x1; ret
		armObj(t,
			arm64.Inst{Op: arm64.CBZ, Size: 8, Rd: arm64.X0, Imm: 3},
			arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X0, Imm: 7},
			arm64.Inst{Op: arm64.RET},
			arm64.Inst{Op: arm64.ORR, Size: 8, Rd: arm64.X0, Rn: arm64.XZR, Rm: arm64.X1},
			arm64.Inst{Op: arm64.RET}),
	} {
		t.Run(bin.Arch, func(t *testing.T) {
			m, err := lifts[bin.Arch](bin)
			if err != nil {
				t.Fatal(err)
			}
			if sig := m.Func("f").Sig; len(sig.Params) != 2 {
				t.Fatalf("lifted signature %s, want two parameters", sig)
			}
			for _, c := range []struct{ a, b, want uint64 }{{0, 42, 42}, {1, 42, 7}} {
				got, err := ir.NewInterp(m).Run("f", c.a, c.b)
				if err != nil {
					t.Fatal(err)
				}
				if got != c.want {
					t.Errorf("f(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
				}
			}
		})
	}
}

// TestCFGErrors: the shared CFG builder rejects the shapes neither lifter
// can translate with one message per case, whichever ISA they come from.
// The third case, a conditional branch without a fall-through, has a test
// in each lifter (TestLiftCondBranchAtEnd, TestArmLiftCondBranchAtEnd).
func TestCFGErrors(t *testing.T) {
	ret := x86.NewInst(x86.RET, 0)
	for _, tc := range []struct {
		name string
		bin  *obj.File
		want string
	}{
		{"x86-64 jmp rax", x86Obj(t,
			x86.NewInst(x86.JMP, 0, x86.RegOp(x86.RAX)), ret), "indirect jump at 0x400000"},
		{"arm64 br x16", armObj(t,
			arm64.Inst{Op: arm64.BR, Rn: arm64.X16}, arm64.Inst{Op: arm64.RET}), "indirect jump at 0x400000"},
		{"x86-64 falls off", x86Obj(t,
			x86.NewInst(x86.MOV, 4, x86.RegOp(x86.RAX), x86.ImmOp(7))), "block at 0x400000 falls off the end"},
		{"arm64 falls off", armObj(t,
			arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X0, Imm: 7}), "block at 0x400000 falls off the end"},
		// An LL/SC idiom lifts as one atomic unit; as a block's last unit it
		// must still have a successor.
		{"arm64 atomic unit at end", armObj(t,
			arm64.Inst{Op: arm64.LDXR, Size: 8, Rd: arm64.X10, Rn: arm64.X9},
			arm64.Inst{Op: arm64.ADD, Size: 8, Rd: arm64.X11, Rn: arm64.X10, Rm: arm64.X12},
			arm64.Inst{Op: arm64.STXR, Size: 8, Rd: arm64.X11, Rn: arm64.X9, Ra: arm64.X13},
			arm64.Inst{Op: arm64.CBNZ, Size: 4, Rd: arm64.X13, Imm: 0}), "block at 0x400000 falls off the end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := lifts[tc.bin.Arch](tc.bin)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestLiftErrorsCarryAddress: an instruction a lifter cannot translate fails
// the lift with an error that names the instruction's address to
// diag.AddrOf, in both directions. Each function starts with a nop, so the
// address is not the function's.
func TestLiftErrorsCarryAddress(t *testing.T) {
	for _, tc := range []struct {
		name string
		bin  *obj.File
		addr uint64
		want string
	}{
		{"x86-64 call rax", x86Obj(t,
			x86.NewInst(x86.NOP, 0),
			x86.NewInst(x86.CALL, 0, x86.RegOp(x86.RAX)),
			x86.NewInst(x86.RET, 0)), obj.TextBase + 1, "indirect call"},
		{"arm64 blr x6", armObj(t,
			arm64.Inst{Op: arm64.NOP},
			arm64.Inst{Op: arm64.BLR, Rn: arm64.X6},
			arm64.Inst{Op: arm64.RET}), obj.TextBase + 4, "unsupported instruction blr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := lifts[tc.bin.Arch](tc.bin)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if got := diag.AddrOf(err); got != tc.addr {
				t.Fatalf("diag.AddrOf(%q) = %#x, want %#x", err, got, tc.addr)
			}
		})
	}
}
