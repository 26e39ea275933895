package ir

import "testing"

func TestCloneDeepCopy(t *testing.T) {
	m := NewModule("t")
	g := m.NewGlobal("x", I64)
	g.Init = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	f := buildSumFunc(m)
	// A caller exercises function-operand remapping.
	caller := m.NewFunc("main", Signature(I64))
	cb := NewBuilder(caller.NewBlock("entry"))
	cb.Ret(cb.Call(f, I64Const(10)))

	before := m.String()
	c := m.Clone()

	if got := c.String(); got != before {
		t.Fatalf("clone prints differently:\n--- original\n%s\n--- clone\n%s", before, got)
	}
	if err := Verify(c); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}

	// No structure may be shared: every func, block, instr, param and global
	// of the clone must be a distinct object wired to the clone.
	if c.Func("sum") == f || c.Global("x") == g {
		t.Fatal("clone shares a function or global with the original")
	}
	for fi, nf := range c.Funcs {
		of := m.Funcs[fi]
		if nf.Module != c {
			t.Fatalf("func %s: clone points at original module", nf.Name)
		}
		for pi, np := range nf.Params {
			if np == of.Params[pi] {
				t.Fatalf("func %s: param %d shared", nf.Name, pi)
			}
		}
		for bi, nb := range nf.Blocks {
			ob := of.Blocks[bi]
			if nb == ob || nb.Parent != nf {
				t.Fatalf("func %s: block %s shared or mis-parented", nf.Name, nb.Name)
			}
			for ii, ni := range nb.Instrs {
				if ni == ob.Instrs[ii] || ni.Parent != nb {
					t.Fatalf("func %s block %s: instr %d shared or mis-parented", nf.Name, nb.Name, ii)
				}
			}
		}
	}

	// Interpreting the clone gives the same result.
	got, err := NewInterp(c).Run("sum", 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 45 {
		t.Fatalf("clone sum(10) = %d, want 45", got)
	}

	// Mutating the clone must leave the original untouched (and vice versa).
	cf := c.Func("sum")
	cf.Blocks[0].Instrs = nil
	c.Global("x").Init[0] = 99
	c.RemoveFunc("main")
	if after := m.String(); after != before {
		t.Fatalf("mutating clone changed original:\n--- before\n%s\n--- after\n%s", before, after)
	}
	if g.Init[0] != 1 {
		t.Fatal("global Init shared between clone and original")
	}
}

// RemoveFunc deletes the named function from the module.
func (m *Module) RemoveFunc(name string) {
	delete(m.funcByName, name)
	for i, f := range m.Funcs {
		if f.Name == name {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			return
		}
	}
}
