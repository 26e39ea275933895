package sim

import (
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// Tie-break programs: main (thread 0) spawns a worker (thread 1) with
// argument 2, then both store to the shared word g at DataBase, main
// storing 1 and the worker its argument. Main joins and prints g, so the
// output names the thread whose store came last. The worker starts with
// `lead` NOPs (one fused unit) and `branches` one-instruction jumps (a unit
// each), then pads its fused run up to the store with padW NOPs; main pads
// its run with padM. The pads make both stores pending at the same clock
// and no earlier clocks tie: the scheduler must then let the lower index
// (main) store first, and the output is 2. The worker storing first prints
// 1.

// tieCase is one choice of worker prefix and pads.
type tieCase struct {
	name                       string
	lead, branches, padW, padM int
}

// tieCases cover both ways a running thread meets a tie. In "runner wins"
// main's run ends at the clock of the worker's pending store, and main
// must keep running; in "runner yields" the worker's run ends at the clock
// of main's pending store, and the worker must hand off. In each, one NOP
// less in the worker's pad makes its store strictly earlier.
func tieCases(arm bool) []tieCase {
	if arm {
		// Main: 4 ALU + BL (4) + spawn (4) = 12, then 3 ALU + padM.
		// Worker: starts at 8; lead NOPs, 2 per branch, 2 ALU + padW.
		return []tieCase{
			{"runner wins", 0, 0, 5, 0},   // worker 8→15, main 12→15
			{"runner yields", 1, 2, 1, 1}, // worker 8→13, main 12→16, worker 13→16
		}
	}
	// Main: 2 ALU + CALL (4) + spawn (4) = 10, then 2 ALU + padM.
	// Worker: starts at 6; lead NOPs, 2 per branch, 1 ALU + padW.
	return []tieCase{
		{"runner wins", 0, 0, 5, 0},   // worker 6→12, main 10→12
		{"runner yields", 1, 2, 1, 1}, // worker 6→11, main 10→13, worker 11→13
	}
}

func armTieProgram(t *testing.T, tc tieCase) *obj.File {
	t.Helper()
	g := int64(obj.DataBase)
	var prog []arm64.Inst
	call := func(name string) {
		at := int64(obj.TextBase) + int64(len(prog))*4
		prog = append(prog, arm64.Inst{Op: arm64.BL, Imm: pltAddr(name) - at})
	}
	for i := 0; i < tc.lead; i++ {
		prog = append(prog, arm64.Inst{Op: arm64.NOP})
	}
	for i := 0; i < tc.branches; i++ {
		prog = append(prog, arm64.Inst{Op: arm64.B, Imm: 4})
	}
	prog = append(prog,
		arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: g & 0xFFFF},
		arm64.Inst{Op: arm64.MOVK, Size: 8, Rd: arm64.X1, Imm: g >> 16 & 0xFFFF, Shift: 1})
	for i := 0; i < tc.padW; i++ {
		prog = append(prog, arm64.Inst{Op: arm64.NOP})
	}
	prog = append(prog,
		arm64.Inst{Op: arm64.STR, Size: 8, Rd: arm64.X0, Rn: arm64.X1},
		arm64.Inst{Op: arm64.RET, Rn: arm64.X30})
	mainAt := len(prog) * 4
	worker := int64(obj.TextBase)
	prog = append(prog,
		arm64.Inst{Op: arm64.ORR, Size: 8, Rd: arm64.X19, Rn: arm64.XZR, Rm: arm64.X30},
		arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X0, Imm: worker & 0xFFFF},
		arm64.Inst{Op: arm64.MOVK, Size: 8, Rd: arm64.X0, Imm: worker >> 16 & 0xFFFF, Shift: 1},
		arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: 2})
	call("__spawn")
	prog = append(prog,
		arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X2, Imm: g & 0xFFFF},
		arm64.Inst{Op: arm64.MOVK, Size: 8, Rd: arm64.X2, Imm: g >> 16 & 0xFFFF, Shift: 1})
	for i := 0; i < tc.padM; i++ {
		prog = append(prog, arm64.Inst{Op: arm64.NOP})
	}
	prog = append(prog,
		arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: arm64.X3, Imm: 1},
		arm64.Inst{Op: arm64.STR, Size: 8, Rd: arm64.X3, Rn: arm64.X2})
	call("__join")
	prog = append(prog, arm64.Inst{Op: arm64.LDR, Size: 8, Rd: arm64.X0, Rn: arm64.X2})
	call("__print_int")
	prog = append(prog,
		arm64.Inst{Op: arm64.ORR, Size: 8, Rd: arm64.X30, Rn: arm64.XZR, Rm: arm64.X19},
		arm64.Inst{Op: arm64.RET, Rn: arm64.X30})
	f := buildArm(t, prog)
	f.Symbols = []obj.Symbol{
		{Name: "worker", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(mainAt)},
		{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase + uint64(mainAt), Size: uint64(len(prog)*4 - mainAt)},
	}
	return f
}

func x86TieProgram(t *testing.T, tc tieCase) *obj.File {
	t.Helper()
	var text []byte
	emit := func(in x86.Inst) {
		code, err := x86.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, code...)
	}
	// A rel32 call is five bytes; its displacement counts from its end.
	call := func(name string) {
		rel := pltAddr(name) - int64(obj.TextBase+len(text)+5)
		emit(x86.NewInst(x86.CALL, 0, x86.ImmOp(rel)))
	}
	nop := func(n int) {
		for i := 0; i < n; i++ {
			emit(x86.NewInst(x86.NOP, 0))
		}
	}
	g := int64(obj.DataBase)
	nop(tc.lead)
	for i := 0; i < tc.branches; i++ {
		emit(x86.NewInst(x86.JMP, 0, x86.ImmOp(0)))
	}
	emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RCX), x86.ImmOp(g)))
	nop(tc.padW)
	emit(x86.NewInst(x86.MOV, 8, x86.MemOp(x86.RCX, 0), x86.RegOp(x86.RDI)))
	emit(x86.NewInst(x86.RET, 0))
	mainAt := len(text)
	emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RDI), x86.ImmOp(obj.TextBase)))
	emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RSI), x86.ImmOp(2)))
	call("__spawn")
	emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RBX), x86.ImmOp(g)))
	nop(tc.padM)
	emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RDX), x86.ImmOp(1)))
	emit(x86.NewInst(x86.MOV, 8, x86.MemOp(x86.RBX, 0), x86.RegOp(x86.RDX)))
	call("__join")
	emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RDI), x86.MemOp(x86.RBX, 0)))
	call("__print_int")
	emit(x86.NewInst(x86.RET, 0))
	return &obj.File{
		Arch:  "x86-64",
		Entry: "main",
		Sections: []obj.Section{
			{Name: ".text", Addr: obj.TextBase, Data: text},
			{Name: ".data", Addr: obj.DataBase, Data: make([]byte, 64)},
		},
		Symbols: []obj.Symbol{
			{Name: "worker", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(mainAt)},
			{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase + uint64(mainAt), Size: uint64(len(text) - mainAt)},
		},
	}
}

// TestThreadedTieBreak pins the scheduler's tie-break: when two threads
// are ready at the same clock, the lower thread index runs first. The
// engine differential alone cannot see a wrong tie-break unless a program
// meets a tie at a shared store; these do, on both architectures and in
// both engines. The output 1 with one NOP less in the worker's pad checks
// that the tie is exact.
func TestThreadedTieBreak(t *testing.T) {
	for _, arch := range []string{"arm64", "x86-64"} {
		build := func(tc tieCase) *obj.File {
			if arch == "arm64" {
				return armTieProgram(t, tc)
			}
			return x86TieProgram(t, tc)
		}
		for _, tc := range tieCases(arch == "arm64") {
			early := tc
			early.padW--
			for _, k := range Engines {
				for _, run := range []struct {
					tc   tieCase
					want string
				}{{tc, "2\n"}, {early, "1\n"}} {
					m, err := NewMachine(build(run.tc))
					if err != nil {
						t.Fatal(err)
					}
					m.Engine = k
					if _, err := m.Run(); err != nil {
						t.Fatalf("%s %s padW=%d (%s): %v", arch, tc.name, run.tc.padW, k, err)
					}
					if got := m.Out.String(); got != run.want {
						t.Errorf("%s %s padW=%d (%s): printed %q, want %q",
							arch, tc.name, run.tc.padW, k, got, run.want)
					}
				}
			}
		}
	}
}
