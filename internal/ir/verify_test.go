package ir

import (
	"fmt"
	"strings"
	"testing"
)

// mkFunc returns a fresh module plus a void function with a single
// ret-terminated entry block, ready to be broken by each test.
func mkFunc(t *testing.T) (*Module, *Func, *Block) {
	t.Helper()
	m := NewModule("t")
	f := m.NewFunc("victim", Signature(I64, I64))
	entry := f.NewBlock("entry")
	b := NewBuilder(entry)
	b.Ret(I64Const(0))
	return m, f, entry
}

// wantViolation asserts both verifier modes agree: VerifyFunc reports an
// error containing substr, and VerifyAllFunc reports at least one matching
// Violation carrying the function name.
func wantViolation(t *testing.T, f *Func, substr string) {
	t.Helper()
	err := VerifyFunc(f)
	if err == nil {
		t.Fatalf("VerifyFunc: no error, want one containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("VerifyFunc error %q does not contain %q", err, substr)
	}
	all := VerifyAllFunc(f)
	if len(all) == 0 {
		t.Fatalf("VerifyAllFunc: no violations, want one containing %q", substr)
	}
	found := false
	for _, v := range all {
		if v.Func != f.Name {
			t.Fatalf("violation attributed to %q, want %q", v.Func, f.Name)
		}
		if strings.Contains(v.Error(), substr) {
			found = true
		}
	}
	if !found {
		t.Fatalf("VerifyAllFunc violations %v contain nothing matching %q", all, substr)
	}
}

func TestVerifyExternalWithBody(t *testing.T) {
	m := NewModule("t")
	f := m.DeclareFunc("ext", Signature(I64))
	f.Blocks = append(f.Blocks, &Block{Name: "entry", Parent: f})
	wantViolation(t, f, "external function has a body")
}

func TestVerifyDefinedWithoutBlocks(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("empty", Signature(I64))
	_ = m
	wantViolation(t, f, "no blocks")
}

func TestVerifyEmptyBlock(t *testing.T) {
	_, f, _ := mkFunc(t)
	f.NewBlock("hollow")
	wantViolation(t, f, "block is empty")
}

func TestVerifyMissingTerminator(t *testing.T) {
	_, f, entry := mkFunc(t)
	entry.Remove(entry.Terminator())
	b := NewBuilder(entry)
	b.Add(I64Const(1), I64Const(2))
	wantViolation(t, f, "no terminator")
}

func TestVerifyTerminatorNotAtEnd(t *testing.T) {
	_, f, entry := mkFunc(t)
	add := &Instr{Op: OpAdd, Ty: I64, Args: []Value{I64Const(1), I64Const(2)}}
	entry.Append(add)
	ret2 := &Instr{Op: OpRet, Ty: Void, Args: []Value{I64Const(1)}}
	entry.Append(ret2)
	wantViolation(t, f, "not at end")
}

func TestVerifyPhiAfterNonPhi(t *testing.T) {
	_, f, entry := mkFunc(t)
	ret := entry.Terminator()
	entry.Remove(ret)
	b := NewBuilder(entry)
	x := b.Add(I64Const(1), I64Const(2))
	phi := &Instr{Op: OpPhi, Ty: I64, Args: []Value{x}, Blocks: []*Block{entry}}
	entry.Append(phi)
	entry.Append(ret)
	wantViolation(t, f, "after non-phi")
}

func TestVerifyTypeErrorLoad(t *testing.T) {
	_, f, entry := mkFunc(t)
	ret := entry.Terminator()
	entry.Remove(ret)
	ld := &Instr{Op: OpLoad, Ty: I64, Args: []Value{I64Const(42)}}
	entry.Append(ld)
	entry.Append(ret)
	wantViolation(t, f, "load from non-pointer")
}

func TestVerifyTypeErrorBinopMismatch(t *testing.T) {
	_, f, entry := mkFunc(t)
	ret := entry.Terminator()
	entry.Remove(ret)
	add := &Instr{Op: OpAdd, Ty: I64, Args: []Value{I64Const(1), &ConstInt{Ty: I32, V: 2}}}
	entry.Append(add)
	entry.Append(ret)
	wantViolation(t, f, "operand types")
}

func TestVerifyUndefinedOperand(t *testing.T) {
	m, f, entry := mkFunc(t)
	other := m.NewFunc("other", Signature(I64))
	ob := NewBuilder(other.NewBlock("entry"))
	foreign := ob.Add(I64Const(1), I64Const(1))
	ob.Ret(foreign)

	ret := entry.Terminator()
	entry.Remove(ret)
	use := &Instr{Op: OpAdd, Ty: I64, Args: []Value{foreign, I64Const(1)}}
	entry.Append(use)
	entry.Append(ret)
	wantViolation(t, f, "undefined value")
}

func TestVerifyPhiArgsBlocksMismatch(t *testing.T) {
	_, f, entry := mkFunc(t)
	next := f.NewBlock("next")
	ret := entry.Terminator()
	entry.Remove(ret)
	NewBuilder(entry).Br(next)
	phi := &Instr{Op: OpPhi, Ty: I64, Args: []Value{I64Const(1), I64Const(2)}, Blocks: []*Block{entry}}
	next.Append(phi)
	next.Append(ret)
	wantViolation(t, f, "args/blocks mismatch")
}

func TestVerifyPhiPredMismatch(t *testing.T) {
	_, f, entry := mkFunc(t)
	next := f.NewBlock("next")
	ret := entry.Terminator()
	entry.Remove(ret)
	NewBuilder(entry).Br(next)
	bogus := f.NewBlock("bogus")
	NewBuilder(bogus).Ret(I64Const(0))
	phi := &Instr{Op: OpPhi, Ty: I64}
	next.Append(phi)
	AddIncoming(phi, I64Const(1), entry)
	AddIncoming(phi, I64Const(2), bogus)
	next.Append(ret)
	wantViolation(t, f, "predecessors")
}

func TestVerifyDominanceViolation(t *testing.T) {
	_, f, entry := mkFunc(t)
	late := f.NewBlock("late")
	ret := entry.Terminator()
	entry.Remove(ret)

	lb := NewBuilder(late)
	x := lb.Add(I64Const(1), I64Const(2))
	lb.Ret(x)

	// entry uses the value defined in late, which entry branches to: the
	// definition cannot dominate this use.
	use := &Instr{Op: OpAdd, Ty: I64, Args: []Value{x, I64Const(1)}}
	entry.Append(use)
	br := &Instr{Op: OpBr, Ty: Void, Blocks: []*Block{late}}
	entry.Append(br)
	wantViolation(t, f, "does not dominate")
}

// TestVerifyAllCollectsMultiple pins the point of VerifyAll: several
// independent violations in one function are all reported, while VerifyFunc
// still returns only the first.
func TestVerifyAllCollectsMultiple(t *testing.T) {
	_, f, entry := mkFunc(t)
	ret := entry.Terminator()
	entry.Remove(ret)
	bad1 := &Instr{Op: OpLoad, Ty: I64, Args: []Value{I64Const(1)}}
	bad2 := &Instr{Op: OpAdd, Ty: I64, Args: []Value{I64Const(1), &ConstInt{Ty: I32, V: 2}}}
	entry.Append(bad1)
	entry.Append(bad2)
	entry.Append(ret)

	all := VerifyAllFunc(f)
	if len(all) < 2 {
		t.Fatalf("VerifyAllFunc found %d violations, want >= 2: %v", len(all), all)
	}
	if err := VerifyFunc(f); err == nil {
		t.Fatal("VerifyFunc: no error")
	} else if !strings.Contains(err.Error(), "non-pointer") {
		t.Fatalf("VerifyFunc returned %q, want the first (load) violation", err)
	}
}

// TestVerifyAllModule checks module-level aggregation across functions.
func TestVerifyAllModule(t *testing.T) {
	m := NewModule("t")
	for _, name := range []string{"a", "b"} {
		m.NewFunc(name, Signature(I64)) // defined, no blocks
	}
	all := VerifyAll(m)
	if len(all) != 2 {
		t.Fatalf("VerifyAll found %d violations, want 2: %v", len(all), all)
	}
	if all[0].Func != "a" || all[1].Func != "b" {
		t.Fatalf("violations attributed to %q/%q, want a/b", all[0].Func, all[1].Func)
	}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "function @a") {
		t.Fatalf("Verify = %v, want first error naming @a", err)
	}
}

// TestVerifyOperandCounts gives every opcode with a fixed operand count a
// wrong one: each must be reported, in both modes, without a panic.
func TestVerifyOperandCounts(t *testing.T) {
	one, ptr := I64Const(1), Null(PointerTo(I64))
	vec := NewUndef(&VectorType{Elem: I64, Len: 2})
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpTrunc, Ty: I32}, "want 1 operands, have 0"},
		{&Instr{Op: OpZext, Ty: I64}, "want 1 operands, have 0"},
		{&Instr{Op: OpSext, Ty: I64}, "want 1 operands, have 0"},
		{&Instr{Op: OpBitcast, Ty: F64}, "want 1 operands, have 0"},
		{&Instr{Op: OpIntToPtr, Ty: PointerTo(I64)}, "want 1 operands, have 0"},
		{&Instr{Op: OpPtrToInt, Ty: I64}, "want 1 operands, have 0"},
		{&Instr{Op: OpSIToFP, Ty: F64}, "want 1 operands, have 0"},
		{&Instr{Op: OpFPToSI, Ty: I64}, "want 1 operands, have 0"},
		{&Instr{Op: OpFPExt, Ty: F64}, "want 1 operands, have 0"},
		{&Instr{Op: OpFPTrunc, Ty: F32}, "want 1 operands, have 0"},
		{&Instr{Op: OpZext, Ty: I64, Args: []Value{one, one}}, "want 1 operands, have 2"},
		{&Instr{Op: OpExtractElement, Ty: I64, Args: []Value{vec}}, "want 2 operands, have 1"},
		{&Instr{Op: OpInsertElement, Ty: vec.Ty, Args: []Value{vec, one}}, "want 3 operands, have 2"},
		{&Instr{Op: OpFence, Ty: Void, Fence: FenceSC, Args: []Value{one}}, "want 0 operands, have 1"},
		{&Instr{Op: OpAlloca, Ty: PointerTo(I64), Elem: I64, Args: []Value{one, one}}, "want 0 or 1 operands, have 2"},
		{&Instr{Op: OpBr, Ty: Void, Args: []Value{one}}, "want 0 operands, have 1"},
		{&Instr{Op: OpUnreachable, Ty: Void, Args: []Value{ptr}}, "want 0 operands, have 1"},
		{&Instr{Op: OpRet, Ty: Void, Args: []Value{one, one}}, "want 0 or 1 operands, have 2"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.in.Op, len(c.in.Args)), func(t *testing.T) {
			_, f, entry := mkFunc(t)
			if c.in.IsTerminator() {
				if c.in.Op == OpBr {
					c.in.Blocks = []*Block{entry}
				}
				entry.Remove(entry.Terminator())
				entry.Append(c.in)
			} else {
				entry.InsertBefore(c.in, entry.Terminator())
			}
			wantViolation(t, f, c.want)
		})
	}
}

// VerifyAll checks every function and collects every violation instead of
// stopping at the first, as VerifyAllFunc does for one function.
func VerifyAll(m *Module) []*Violation {
	var out []*Violation
	for _, f := range m.Funcs {
		out = append(out, VerifyAllFunc(f)...)
	}
	return out
}
