package ir

import (
	"slices"
	"testing"
)

// idFunc returns a function computing x = p0+1; y = x*x; ret y.
func idFunc() (*Func, *Instr, *Instr) {
	m := NewModule("t")
	f := m.NewFunc("f", Signature(I64, I64))
	b := NewBuilder(f.NewBlock("entry"))
	x := b.Add(f.Params[0], I64Const(1))
	y := b.Mul(x, x)
	b.Ret(y)
	return f, x, y
}

func TestVerifyDuplicateValueID(t *testing.T) {
	f, x, y := idFunc()
	y.ID = x.ID
	wantViolation(t, f, "duplicate value ID")
	if err := VerifyAll(f.Module); len(err) == 0 {
		t.Fatal("VerifyAll: no violations")
	}
}

func TestVerifyValueIDOutOfRange(t *testing.T) {
	f, _, y := idFunc()
	y.ID = 0
	wantViolation(t, f, "value ID 0 outside")
	y.ID = f.IDBound() + 1
	wantViolation(t, f, "outside 1..")
	y.ID = f.IDBound()
	if err := VerifyFunc(f); err != nil {
		t.Fatalf("the highest allocated ID is in range: %v", err)
	}
}

// TestUsesMatchesUseMap compares the dense index with a use map, including
// a detached user (not listed) and another function's parameter (no list).
func TestUsesMatchesUseMap(t *testing.T) {
	f, x, y := idFunc()
	b := f.Blocks[0]
	dead := &Instr{Op: OpSub, Ty: I64, Args: []Value{x, f.Params[0]}}
	b.InsertBefore(dead, b.Terminator())
	u := ComputeUses(f)
	want := referenceUses(f)
	for _, v := range []Value{f.Params[0], x, y, dead} {
		if got := u.Of(v); !slices.Equal(got, want[v]) {
			t.Fatalf("Of(%s) = %v, want %v", v.Ref(), got, want[v])
		}
	}
	dead.Parent = nil
	if got := ComputeUses(f).Of(x); len(got) != 2 || got[0] != y || got[1] != y {
		t.Fatalf("a detached user is still listed: %v", got)
	}
	other, _, _ := idFunc()
	if got := u.Of(other.Params[0]); got != nil {
		t.Fatalf("another function's parameter has users %v", got)
	}
	late := NewBuilder(b).Add(x, x) // numbered after the index was built
	if got := u.Of(late); got != nil {
		t.Fatalf("an instruction numbered later has users %v", got)
	}
}

// TestReplacerChainsAndSweep checks that replacements chain, that visiting
// resolves operands, and that Apply reaches the operands never visited —
// the result matching ReplaceAllUses applied at each replacement.
func TestReplacerChainsAndSweep(t *testing.T) {
	f, x, y := idFunc()
	z := &Instr{Op: OpSub, Ty: I64, Args: []Value{y, x}}
	f.Blocks[0].InsertBefore(z, f.Blocks[0].Terminator())

	ref, rx, ry := idFunc()
	rz := &Instr{Op: OpSub, Ty: I64, Args: []Value{ry, rx}}
	ref.Blocks[0].InsertBefore(rz, ref.Blocks[0].Terminator())

	r := NewReplacer(f)
	r.Replace(x, f.Params[0])
	ReplaceAllUses(ref, rx, ref.Params[0])
	r.ResolveOperands(y)
	if y.Args[0] != f.Params[0] || y.Args[1] != f.Params[0] {
		t.Fatalf("visiting did not resolve: %s", y)
	}
	r.Replace(y, z) // chains: uses of y, and of x via y, end at z
	ReplaceAllUses(ref, ry, rz)
	if r.Resolve(y) != Value(z) || r.Resolve(x) != Value(f.Params[0]) {
		t.Fatal("Resolve does not follow the chain")
	}
	if !r.Apply() {
		t.Fatal("Apply reported no replacements")
	}
	if f.String() != ref.String() {
		t.Fatalf("batched:\n%s\nReplaceAllUses:\n%s", f, ref)
	}
	if NewReplacer(f).Apply() {
		t.Fatal("an empty replacer reported replacements")
	}
}
