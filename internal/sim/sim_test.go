package sim

import (
	"errors"
	"strings"
	"testing"

	"lasagne/internal/arm64"
	"lasagne/internal/diag"
	"lasagne/internal/obj"
	"lasagne/internal/rt"
	"lasagne/internal/x86"
)

// buildX86 builds an object file from hand-encoded x86 instructions.
func buildX86(t *testing.T, insts []x86.Inst) *obj.File {
	t.Helper()
	var text []byte
	for _, in := range insts {
		code, err := x86.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, code...)
	}
	return &obj.File{
		Arch:  "x86-64",
		Entry: "main",
		Sections: []obj.Section{
			{Name: ".text", Addr: obj.TextBase, Data: text},
			{Name: ".data", Addr: obj.DataBase, Data: make([]byte, 64)},
		},
		Symbols: []obj.Symbol{
			{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(len(text))},
			{Name: "g", Kind: obj.SymData, Addr: obj.DataBase, Size: 8},
		},
	}
}

func buildArm(t *testing.T, insts []arm64.Inst) *obj.File {
	t.Helper()
	var text []byte
	for _, in := range insts {
		w, err := arm64.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return &obj.File{
		Arch:  "arm64",
		Entry: "main",
		Sections: []obj.Section{
			{Name: ".text", Addr: obj.TextBase, Data: text},
			{Name: ".data", Addr: obj.DataBase, Data: make([]byte, 64)},
		},
		Symbols: []obj.Symbol{
			{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(len(text))},
		},
	}
}

// callPLT returns a call to the named builtin as a rel32 immediate target.
func pltAddr(name string) int64 {
	return int64(obj.PLTBase + rt.Index(name)*obj.PLTSlot)
}

func TestX86HandAssembled(t *testing.T) {
	// mov rdi, 6; imul rdi, rdi, 7; call __print_int; ret
	// (call targets are absolute; the encoder stores rel32, so compute it.)
	prog := []x86.Inst{
		x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RDI), x86.ImmOp(6)),
		x86.NewInst(x86.IMUL, 8, x86.RegOp(x86.RDI), x86.RegOp(x86.RDI), x86.ImmOp(7)),
		x86.NewInst(x86.CALL, 0, x86.ImmOp(0)), // patched below
		x86.NewInst(x86.RET, 0),
	}
	// Encode a first time to find the call site offset.
	var off int
	for i, in := range prog {
		code, err := x86.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			rel := pltAddr("__print_int") - int64(obj.TextBase+off+len(code))
			prog[2] = x86.NewInst(x86.CALL, 0, x86.ImmOp(rel))
		}
		off += len(code)
	}
	f := buildX86(t, prog)
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Out.String() != "42\n" {
		t.Fatalf("output %q", m.Out.String())
	}
	if cycles <= 0 {
		t.Fatal("no cycles accrued")
	}
}

func TestX86FlagsAndBranch(t *testing.T) {
	// mov rax, 5 ; cmp rax, 5 ; jne bad ; mov rdi, 1 ; call print ; ret
	// bad: mov rdi, 0 ; call print ; ret
	asm := func() []byte {
		var out []byte
		emit := func(in x86.Inst) int {
			code, err := x86.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, code...)
			return len(code)
		}
		emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RAX), x86.ImmOp(5)))
		emit(x86.NewInst(x86.CMP, 8, x86.RegOp(x86.RAX), x86.ImmOp(5)))
		// jne +? — assemble the rest first to learn sizes; here we know:
		// mov rdi,1 (7 bytes w/ REX imm32 path), call (5), ret (1) = 13.
		mov1, _ := x86.Encode(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RDI), x86.ImmOp(1)))
		callLen := 5
		skip := len(mov1) + callLen + 1
		emit(x86.Inst{Op: x86.JCC, Cond: x86.CondNE, Ops: []x86.Operand{x86.ImmOp(int64(skip))}})
		emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RDI), x86.ImmOp(1)))
		rel := pltAddr("__print_int") - int64(obj.TextBase+len(out)+callLen)
		emit(x86.NewInst(x86.CALL, 0, x86.ImmOp(rel)))
		emit(x86.NewInst(x86.RET, 0))
		emit(x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RDI), x86.ImmOp(0)))
		rel = pltAddr("__print_int") - int64(obj.TextBase+len(out)+callLen)
		emit(x86.NewInst(x86.CALL, 0, x86.ImmOp(rel)))
		emit(x86.NewInst(x86.RET, 0))
		return out
	}
	text := asm()
	f := &obj.File{
		Arch:  "x86-64",
		Entry: "main",
		Sections: []obj.Section{
			{Name: ".text", Addr: obj.TextBase, Data: text},
		},
		Symbols: []obj.Symbol{{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(len(text))}},
	}
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Out.String() != "1\n" {
		t.Fatalf("output %q (equal path should be taken)", m.Out.String())
	}
}

func TestArmHandAssembled(t *testing.T) {
	// Save LR (BL clobbers the sentinel), compute 42, print, restore, ret.
	prog := []arm64.Inst{
		{Op: arm64.ORR, Size: 8, Rd: arm64.X19, Rn: arm64.XZR, Rm: arm64.X30},
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X0, Imm: 40},
		{Op: arm64.ADDI, Size: 8, Rd: arm64.X0, Rn: arm64.X0, Imm: 2},
		{Op: arm64.BL, Imm: pltAddr("__print_int") - int64(obj.TextBase+12)},
		{Op: arm64.ORR, Size: 8, Rd: arm64.X30, Rn: arm64.XZR, Rm: arm64.X19},
		{Op: arm64.RET, Rn: arm64.X30},
	}
	f := buildArm(t, prog)
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Out.String() != "42\n" {
		t.Fatalf("output %q", m.Out.String())
	}
}

func TestArmExclusivePair(t *testing.T) {
	// Store 7 at a data address, ldxr/add/stxr loop to add 5, print result.
	data := int64(obj.DataBase)
	prog := []arm64.Inst{
		{Op: arm64.ORR, Size: 8, Rd: arm64.X19, Rn: arm64.XZR, Rm: arm64.X30},
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: data & 0xFFFF},
		{Op: arm64.MOVK, Size: 8, Rd: arm64.X1, Imm: (data >> 16) & 0xFFFF, Shift: 1},
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X2, Imm: 7},
		{Op: arm64.STR, Size: 8, Rd: arm64.X2, Rn: arm64.X1},
		// loop:
		{Op: arm64.LDXR, Size: 8, Rd: arm64.X3, Rn: arm64.X1},
		{Op: arm64.ADDI, Size: 8, Rd: arm64.X3, Rn: arm64.X3, Imm: 5},
		{Op: arm64.STXR, Size: 8, Rd: arm64.X3, Rn: arm64.X1, Ra: arm64.X4},
		{Op: arm64.CBNZ, Size: 8, Rd: arm64.X4, Imm: -12},
		{Op: arm64.LDR, Size: 8, Rd: arm64.X0, Rn: arm64.X1},
		{Op: arm64.BL, Imm: 0}, // patched below
		{Op: arm64.ORR, Size: 8, Rd: arm64.X30, Rn: arm64.XZR, Rm: arm64.X19},
		{Op: arm64.RET, Rn: arm64.X30},
	}
	prog[10].Imm = pltAddr("__print_int") - int64(obj.TextBase+10*4)
	f := buildArm(t, prog)
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Out.String() != "12\n" {
		t.Fatalf("output %q", m.Out.String())
	}
}

func TestFenceCosts(t *testing.T) {
	mk := func(bar arm64.Barrier, n int) *obj.File {
		var prog []arm64.Inst
		for i := 0; i < n; i++ {
			prog = append(prog, arm64.Inst{Op: arm64.DMB, Barrier: bar})
		}
		prog = append(prog, arm64.Inst{Op: arm64.RET, Rn: arm64.X30})
		return buildArm(t, prog)
	}
	run := func(f *obj.File) int64 {
		m, err := NewMachine(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	base := run(mk(arm64.BarrierISH, 0))
	ff := run(mk(arm64.BarrierISH, 10))
	ld := run(mk(arm64.BarrierISHLD, 10))
	if ff-base != 10*CostDMBFF {
		t.Fatalf("DMBFF cost %d, want %d", ff-base, 10*CostDMBFF)
	}
	if ld-base != 10*CostDMBLD {
		t.Fatalf("DMBLD cost %d, want %d", ld-base, 10*CostDMBLD)
	}
	if ff <= ld {
		t.Fatal("full fence must cost more than load fence")
	}
}

func TestMachineErrors(t *testing.T) {
	// Unknown entry symbol.
	f := buildArm(t, []arm64.Inst{{Op: arm64.RET, Rn: arm64.X30}})
	f.Entry = "nope"
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "entry") {
		t.Fatalf("expected entry error, got %v", err)
	}
	// Out-of-bounds store.
	bad := buildArm(t, []arm64.Inst{
		{Op: arm64.MOVN, Size: 8, Rd: arm64.X1, Imm: 0}, // x1 = ~0
		{Op: arm64.STR, Size: 8, Rd: arm64.X0, Rn: arm64.X1},
		{Op: arm64.RET, Rn: arm64.X30},
	})
	m2, err := NewMachine(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("expected bounds error, got %v", err)
	}
}

// TestDispatchErrors runs programs that fault in instruction dispatch
// rather than in an instruction, under both engines. Each must end with the
// same error string (or, jumping into the middle of an x86 instruction,
// the same cycle and instruction counts) under both, as recorded.
func TestDispatchErrors(t *testing.T) {
	tb := int64(obj.TextBase)
	// x1 = TextBase + off, then br x1.
	armBranch := func(off int64) []arm64.Inst {
		a := tb + off
		return []arm64.Inst{
			{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: a & 0xFFFF},
			{Op: arm64.MOVK, Size: 8, Rd: arm64.X1, Imm: a >> 16 & 0xFFFF, Shift: 1},
			{Op: arm64.BR, Rn: arm64.X1},
			{Op: arm64.RET, Rn: arm64.X30},
		}
	}
	// mov eax, imm32 (c7 c0 and four immediate bytes), then a jmp to the
	// immediate.
	x86Mid := func(imm int64) []x86.Inst {
		return []x86.Inst{
			x86.NewInst(x86.MOV, 4, x86.RegOp(x86.RAX), x86.ImmOp(imm)),
			x86.NewInst(x86.JMP, 0, x86.ImmOp(-9)),
		}
	}
	undecodable := buildArm(t, []arm64.Inst{{Op: arm64.NOP}})
	undecodable.Sections[0].Data = []byte{0, 0, 0, 0}
	for _, tc := range []struct {
		name           string
		bin            *obj.File
		err            string
		cycles, instrs int64
	}{
		{"arm64 undecodable word", undecodable,
			"arm64: decode 0x00000000 at 0x400000: unsupported instruction word", 0, 0},
		{"arm64 misaligned branch", buildArm(t, armBranch(2)),
			"arm64: decode 0x0801d280 at 0x400002: unsupported instruction word", 0, 3},
		{"arm64 branch outside text", buildArm(t, armBranch(obj.DataBase-obj.TextBase)),
			"sim: arm64 fetch outside .text at 0x600000", 0, 3},
		{"x86 ud2", buildX86(t, []x86.Inst{x86.NewInst(x86.NOP, 0), x86.NewInst(x86.UD2, 0)}),
			"sim: ud2 executed at 0x400001", 0, 2},
		// The jump lands on 90 90 90 c3: three NOPs and a RET.
		{"x86 jump into an instruction", buildX86(t, x86Mid(-0x3C6F6F70)), "", 12, 6},
		// The jump lands on 0f ff, which does not decode.
		{"x86 jump into an undecodable tail", buildX86(t, x86Mid(0xFF0F)),
			"x86: decode at 0x400002: unsupported opcode 0f ff", 0, 2},
		{"x86 jump outside text", buildX86(t, []x86.Inst{
			x86.NewInst(x86.MOV, 8, x86.RegOp(x86.RAX), x86.ImmOp(obj.DataBase)),
			x86.NewInst(x86.JMP, 0, x86.RegOp(x86.RAX)),
		}), "sim: x86 fetch outside .text at 0x600000", 0, 2},
	} {
		for _, k := range Engines {
			m, err := NewMachine(tc.bin)
			if err != nil {
				t.Fatal(err)
			}
			m.Engine = k
			cycles, err := m.Run()
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.err || cycles != tc.cycles || m.InstrCount() != tc.instrs {
				t.Errorf("%s (%s): error %q, %d cycles, %d instrs; want %q, %d, %d",
					tc.name, k, got, cycles, m.InstrCount(), tc.err, tc.cycles, tc.instrs)
			}
		}
	}
}

func TestPLTIndex(t *testing.T) {
	if pltIndex(obj.PLTBase) != 0 {
		t.Fatal("first slot")
	}
	if pltIndex(obj.PLTBase+obj.PLTSlot) != 1 {
		t.Fatal("second slot")
	}
	if pltIndex(obj.PLTBase+1) != -1 {
		t.Fatal("misaligned")
	}
	if pltIndex(obj.TextBase) != -1 {
		t.Fatal("non-plt")
	}
}

// TestExclusiveMonitorInvalidation: a store by another CPU between a
// thread's LDXR and STXR must make the STXR fail (the global monitor
// semantics contended atomics rely on).
func TestExclusiveMonitorInvalidation(t *testing.T) {
	data := int64(obj.DataBase)
	// Thread body: x1 = &g; ldxr x3,[x1]; add x3,#1; stxr w4,x3,[x1];
	// cbnz retry; ... both threads hammer the same word.
	prog := []arm64.Inst{
		{Op: arm64.ORR, Size: 8, Rd: arm64.X19, Rn: arm64.XZR, Rm: arm64.X30},
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: data & 0xFFFF},
		{Op: arm64.MOVK, Size: 8, Rd: arm64.X1, Imm: (data >> 16) & 0xFFFF, Shift: 1},
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X5, Imm: 200}, // iterations
		// loop:
		{Op: arm64.LDXR, Size: 8, Rd: arm64.X3, Rn: arm64.X1},
		{Op: arm64.ADDI, Size: 8, Rd: arm64.X3, Rn: arm64.X3, Imm: 1},
		{Op: arm64.STXR, Size: 8, Rd: arm64.X3, Rn: arm64.X1, Ra: arm64.X4},
		{Op: arm64.CBNZ, Size: 8, Rd: arm64.X4, Imm: -12},
		{Op: arm64.SUBSI, Size: 8, Rd: arm64.X5, Rn: arm64.X5, Imm: 1},
		{Op: arm64.BCOND, Cond: arm64.NE, Imm: -20},
		{Op: arm64.ORR, Size: 8, Rd: arm64.X30, Rn: arm64.XZR, Rm: arm64.X19},
		{Op: arm64.RET, Rn: arm64.X30},
	}
	// main: spawn worker twice, join, print g.
	workerAddr := int64(obj.TextBase)
	mainStart := len(prog) * 4
	mainProg := []arm64.Inst{
		{Op: arm64.ORR, Size: 8, Rd: arm64.X19, Rn: arm64.XZR, Rm: arm64.X30},
		// spawn(worker, 0) twice
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X0, Imm: workerAddr & 0xFFFF},
		{Op: arm64.MOVK, Size: 8, Rd: arm64.X0, Imm: (workerAddr >> 16) & 0xFFFF, Shift: 1},
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: 0},
		{Op: arm64.BL, Imm: 0}, // patched: __spawn
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X0, Imm: workerAddr & 0xFFFF},
		{Op: arm64.MOVK, Size: 8, Rd: arm64.X0, Imm: (workerAddr >> 16) & 0xFFFF, Shift: 1},
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: 0},
		{Op: arm64.BL, Imm: 0}, // patched: __spawn
		{Op: arm64.BL, Imm: 0}, // patched: __join
		// print g
		{Op: arm64.MOVZ, Size: 8, Rd: arm64.X1, Imm: data & 0xFFFF},
		{Op: arm64.MOVK, Size: 8, Rd: arm64.X1, Imm: (data >> 16) & 0xFFFF, Shift: 1},
		{Op: arm64.LDR, Size: 8, Rd: arm64.X0, Rn: arm64.X1},
		{Op: arm64.BL, Imm: 0}, // patched: __print_int
		{Op: arm64.ORR, Size: 8, Rd: arm64.X30, Rn: arm64.XZR, Rm: arm64.X19},
		{Op: arm64.RET, Rn: arm64.X30},
	}
	patch := func(idx int, name string) {
		at := mainStart + idx*4
		mainProg[idx].Imm = pltAddr(name) - int64(obj.TextBase+at)
	}
	patch(4, "__spawn")
	patch(8, "__spawn")
	patch(9, "__join")
	patch(13, "__print_int")

	all := append(append([]arm64.Inst{}, prog...), mainProg...)
	f := buildArm(t, all)
	f.Entry = "main"
	f.Symbols = []obj.Symbol{
		{Name: "worker", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(mainStart)},
		{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase + uint64(mainStart), Size: uint64(len(mainProg) * 4)},
	}
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Out.String() != "400\n" {
		t.Fatalf("contended LL/SC counter = %q, want 400 (monitor invalidation broken?)", m.Out.String())
	}
}

func TestStepLimitBudgetError(t *testing.T) {
	f := buildArm(t, []arm64.Inst{
		{Op: arm64.ORR, Size: 8, Rd: arm64.X0, Rn: arm64.XZR, Rm: arm64.XZR},
		{Op: arm64.ORR, Size: 8, Rd: arm64.X1, Rn: arm64.XZR, Rm: arm64.XZR},
		{Op: arm64.RET, Rn: arm64.X30},
	})
	m, err := NewMachine(f)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1
	_, err = m.Run()
	if !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
