package ir_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lasagne/internal/armlifter"
	"lasagne/internal/backend"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/minic"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/refine"
	"lasagne/internal/validate"
)

// oracleSeeds is how many GenProgram programs the oracle tests walk.
const oracleSeeds = 100

// shape describes a body independently of its object identities: every
// field of every block and instruction, with an operand or block reference
// written as its position when it points into the body itself, and as the
// shared object otherwise. Two faithful copies of one body have the same
// shape.
func shape(f *ir.Func, blocks []*ir.Block) []string {
	bpos := map[*ir.Block]int{}
	ipos := map[*ir.Instr]int{}
	for k, b := range blocks {
		bpos[b] = k
		for _, in := range b.Instrs {
			ipos[in] = len(ipos)
		}
	}
	var out []string
	for _, b := range blocks {
		out = append(out, fmt.Sprintf("block %q parent=%v nil=%v n=%d",
			b.Name, b.Parent == f, b.Instrs == nil, len(b.Instrs)))
		for _, in := range b.Instrs {
			var sb strings.Builder
			fmt.Fprintf(&sb, "  %v %v elem=%v order=%v fence=%v rmw=%v pred=%v id=%d nam=%q parent=%v",
				in.Op, in.Ty, in.Elem, in.Order, in.Fence, in.RMWOp, in.Pred, in.ID, in.Nam, in.Parent == b)
			fmt.Fprintf(&sb, " args(nil=%v cap=%d):", in.Args == nil, cap(in.Args))
			for _, a := range in.Args {
				if x, ok := a.(*ir.Instr); ok {
					if k, ok := ipos[x]; ok {
						fmt.Fprintf(&sb, " i%d", k)
						continue
					}
				}
				fmt.Fprintf(&sb, " shared(%p)", a)
			}
			fmt.Fprintf(&sb, " blocks(nil=%v cap=%d):", in.Blocks == nil, cap(in.Blocks))
			for _, r := range in.Blocks {
				if k, ok := bpos[r]; ok {
					fmt.Fprintf(&sb, " b%d", k)
				} else {
					fmt.Fprintf(&sb, " shared(%p)", r)
				}
			}
			out = append(out, sb.String())
		}
	}
	return out
}

// printed returns f's text with blocks swapped in, leaving f as it was.
// When the printer cannot spell the body (an operand-less cast, a copied
// branch out of f with its nil target) the panic is the text.
func printed(f *ir.Func, blocks []*ir.Block) (s string) {
	orig := f.Blocks
	defer func() {
		f.RestoreBody(orig)
		if r := recover(); r != nil {
			s = fmt.Sprint("panic: ", r)
		}
	}()
	f.RestoreBody(blocks)
	return f.String()
}

// checkClone requires CloneBody to copy f exactly as the map-based
// reference does — same text, same shape — and to share no block or
// instruction with f.
func checkClone(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	want := printed(f, f.Blocks)
	got, ref := f.CloneBody(), ir.ReferenceCloneBody(f)
	if g, r := printed(f, got), printed(f, ref); g != r {
		t.Fatalf("%s: %s: CloneBody prints differently from the reference:\n--- CloneBody ---\n%s--- reference ---\n%s",
			where, f.Name, g, r)
	}
	if g, r := shape(f, got), shape(f, ref); !slices.Equal(g, r) {
		for k := range min(len(g), len(r)) {
			if g[k] != r[k] {
				t.Fatalf("%s: %s: CloneBody differs from the reference at line %d:\n  got  %s\n  want %s",
					where, f.Name, k, g[k], r[k])
			}
		}
		t.Fatalf("%s: %s: CloneBody has %d shape lines, the reference %d", where, f.Name, len(g), len(r))
	}
	old := map[any]bool{}
	for _, b := range f.Blocks {
		old[b] = true
		for _, in := range b.Instrs {
			old[in] = true
		}
	}
	for _, b := range got {
		for _, in := range b.Instrs {
			if old[b] || old[in] {
				t.Fatalf("%s: %s: the copy shares block %s or %s with the original", where, f.Name, b.Name, in)
			}
		}
	}
	if printed(f, f.Blocks) != want {
		t.Fatalf("%s: %s: cloning changed the original", where, f.Name)
	}
}

// checkVerify requires both verifier modes to report exactly what the
// map- and Index-based reference phases report.
func checkVerify(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	same := func(mode string, got, want []*ir.Violation) {
		t.Helper()
		if !slices.EqualFunc(got, want, func(a, b *ir.Violation) bool { return *a == *b }) {
			t.Fatalf("%s: %s: %s reports %v, the reference %v\n%s", where, f.Name, mode, got, want, f)
		}
	}
	same("VerifyAllFunc", ir.VerifyAllFunc(f), ir.ReferenceVerifyAllFunc(f))
	var first []*ir.Violation
	if err := ir.VerifyFunc(f); err != nil {
		first = []*ir.Violation{err.(*ir.Violation)}
	}
	same("VerifyFunc", first, ir.ReferenceVerifyFunc(f))
}

// checkDomTree requires ComputeDomTree and DominanceFrontier to match their
// per-block Preds forms, children order included.
func checkDomTree(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	dt, ref := ir.ComputeDomTree(f), ir.ReferenceComputeDomTree(f)
	df, rdf := ir.DominanceFrontier(f, dt), ir.ReferenceDominanceFrontier(f, ref)
	for _, b := range f.Blocks {
		gi, gok := dt.IDom[b]
		ri, rok := ref.IDom[b]
		if gi != ri || gok != rok || !slices.Equal(dt.Children[b], ref.Children[b]) || !slices.Equal(df[b], rdf[b]) {
			t.Fatalf("%s: %s: dominator tree or frontier differs from the reference at %%%s", where, f.Name, b.Name)
		}
	}
	if len(dt.IDom) != len(ref.IDom) || len(dt.Children) != len(ref.Children) || len(df) != len(rdf) {
		t.Fatalf("%s: %s: dominator tree or frontier has a different block set", where, f.Name)
	}
}

func checkModule(t *testing.T, where string, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		checkClone(t, where, f)
		checkVerify(t, where, f)
		checkDomTree(t, where, f)
	}
}

// walkProgram checks every module one program passes through: its
// optimized minic IR, and its x86-64 and Arm64 builds lifted, then refined
// (and fenced, for x86→Arm) and optimized.
func walkProgram(t *testing.T, name, src string) {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkModule(t, name+" (native)", m)
	x86, err := backend.Compile(m.Clone(), "x86-64")
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	arm, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lx, err := lifter.Lift(x86)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkModule(t, name+" (x86-64 lifted)", lx)
	refine.Run(lx)
	fences.Place(lx, fences.Options{SkipStackAccesses: true})
	if err := opt.Optimize(lx); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkModule(t, name+" (x86→Arm optimized)", lx)
	la, err := armlifter.Lift(arm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkModule(t, name+" (Arm64 lifted)", la)
	refine.Run(la)
	if err := opt.Optimize(la); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkModule(t, name+" (Arm→x86 optimized)", la)
}

// TestBookkeepingMatchesReferences checks CloneBody, both verifier modes
// and the dominator tree against their map-based forms on every suite
// kernel and GenProgram seeds 0..oracleSeeds-1, lifted in both directions.
func TestBookkeepingMatchesReferences(t *testing.T) {
	var suite []phoenix.Benchmark
	suite = append(suite, phoenix.All()...)
	suite = append(suite, phoenix.LockFree()...)
	for _, b := range suite {
		walkProgram(t, b.Name, b.Source)
	}
	for seed := int64(0); seed < oracleSeeds; seed++ {
		walkProgram(t, fmt.Sprintf("GenProgram(%d)", seed), validate.GenProgram(seed))
	}
}

// malformed builds, each on a fresh module, bodies at the edges of what
// the ID tables rely on: unique IDs in range, operands owned by the
// function, definitions before uses. The verifier rejects most of them. It
// accepts three: a repeated branch target is valid, and it checks neither
// unreachable blocks nor parameter indexes.
var malformed = map[string]func() *ir.Func{
	"duplicate IDs": func() *ir.Func {
		f, b := newBody()
		x := b.Add(f.Params[0], ir.I64Const(1))
		y := b.Add(x, ir.I64Const(2))
		z := b.Add(y, x)
		z.ID = x.ID
		b.Ret(z)
		return f
	},
	"zero IDs": func() *ir.Func {
		f, b := newBody()
		x := b.Add(f.Params[0], ir.I64Const(1))
		x.ID = 0
		b.Ret(b.Add(x, x))
		return f
	},
	"out-of-range IDs": func() *ir.Func {
		f, b := newBody()
		x := b.Add(f.Params[0], ir.I64Const(1))
		x.ID = f.IDBound() + 5
		b.Ret(b.Add(x, x))
		return f
	},
	"operand owned by another function": func() *ir.Func {
		f, b := newBody()
		g := f.Module.NewFunc("other", ir.Signature(ir.I64, ir.I64))
		gb := ir.NewBuilder(g.NewBlock("entry"))
		foreign := gb.Add(g.Params[0], ir.I64Const(7)) // numbered 1, like x
		gb.Ret(foreign)
		x := b.Add(f.Params[0], ir.I64Const(1))
		y := b.Add(x, foreign)
		b.Ret(b.Add(y, g.Params[0]))
		return f
	},
	"instruction moved after its use": func() *ir.Func {
		f, b := newBody()
		x := b.Add(f.Params[0], ir.I64Const(1))
		y := b.Add(x, ir.I64Const(2))
		b.Ret(y)
		blk := b.Block
		blk.Instrs[0], blk.Instrs[1] = y, x
		return f
	},
	"self-use": func() *ir.Func {
		f, b := newBody()
		x := b.Add(f.Params[0], ir.I64Const(1))
		x.Args[1] = x
		b.Ret(x)
		return f
	},
	"phi from a non-dominating block": func() *ir.Func {
		f, b := newBody()
		then, els, join := f.NewBlock("then"), f.NewBlock("else"), f.NewBlock("join")
		b.CondBr(b.ICmp(ir.PredEQ, f.Params[0], ir.I64Const(0)), then, els)
		tb := ir.NewBuilder(then)
		t := tb.Add(f.Params[0], ir.I64Const(1))
		tb.Br(join)
		eb := ir.NewBuilder(els)
		eb.Br(join)
		jb := ir.NewBuilder(join)
		phi := jb.Phi(ir.I64)
		phi.Args = []ir.Value{t, t} // the else edge reads then's value
		phi.Blocks = []*ir.Block{then, els}
		jb.Ret(jb.Add(phi, t)) // and so does join itself
		return f
	},
	"operand-less cast": func() *ir.Func {
		f, b := newBody()
		b.Block.Append(&ir.Instr{Op: ir.OpTrunc, Ty: ir.I32})
		b.Ret(f.Params[0])
		return f
	},
	"void operand": func() *ir.Func {
		f, b := newBody()
		slot := b.Alloca(ir.I64)
		st := b.Store(f.Params[0], slot)
		b.Ret(b.Add(f.Params[0], ir.I64Const(0)))
		b.Block.Instrs[2].Args[1] = st
		return f
	},
	"removed instruction": func() *ir.Func {
		f, b := newBody()
		x := b.Add(f.Params[0], ir.I64Const(1))
		y := b.Add(x, ir.I64Const(2))
		b.Ret(y)
		b.Block.Remove(x)
		return f
	},
	"instruction listed twice": func() *ir.Func {
		f, b := newBody()
		x := b.Add(f.Params[0], ir.I64Const(1))
		y := b.Add(x, ir.I64Const(2))
		b.Ret(y)
		blk := b.Block
		blk.Instrs = []*ir.Instr{x, y, x, blk.Instrs[2]}
		return f
	},
	"branch into another function": func() *ir.Func {
		f, b := newBody()
		g := f.Module.NewFunc("other", ir.Signature(ir.I64, ir.I64))
		gentry := g.NewBlock("entry")
		gb := ir.NewBuilder(gentry)
		foreign := gb.Add(g.Params[0], ir.I64Const(7))
		gb.Ret(foreign)
		next := f.NewBlock("next")
		b.CondBr(b.ICmp(ir.PredEQ, f.Params[0], ir.I64Const(0)), next, gentry)
		nb := ir.NewBuilder(next)
		nb.Ret(foreign) // defined in a block the walk reaches through the branch
		return f
	},
	"parameter with a wrong index": func() *ir.Func {
		f, b := newBody()
		f.Params[0].Idx = 3
		b.Ret(b.Add(f.Params[0], ir.I64Const(1)))
		return f
	},
	"both branch targets one block": func() *ir.Func {
		f, b := newBody()
		join := f.NewBlock("join")
		b.CondBr(b.ICmp(ir.PredEQ, f.Params[0], ir.I64Const(0)), join, join)
		jb := ir.NewBuilder(join)
		phi := jb.Phi(ir.I64)
		phi.Args, phi.Blocks = []ir.Value{f.Params[0]}, []*ir.Block{f.Blocks[0]}
		jb.Ret(phi)
		return f
	},
	"stale parent pointers": func() *ir.Func {
		f, b := newBody()
		next := f.NewBlock("next")
		nb := ir.NewBuilder(next)
		z := nb.Add(f.Params[0], ir.I64Const(3))
		slot := b.Alloca(ir.I64)
		x := b.Add(f.Params[0], ir.I64Const(1))
		st := b.Store(z, slot)
		b.Br(next)
		nb.Ret(nb.Add(x, ir.I64Const(2)))
		x.Parent, st.Parent = next, next // both still listed in entry
		return f
	},
	"use in an unreachable block": func() *ir.Func {
		f, b := newBody()
		dead := f.NewBlock("dead")
		b.Ret(f.Params[0])
		db := ir.NewBuilder(dead)
		x := db.Add(f.Params[0], ir.I64Const(1))
		y := db.Add(x, ir.I64Const(2))
		db.Ret(y)
		dead.Instrs[0], dead.Instrs[1] = y, x
		return f
	},
}

// newBody returns a function of one i64 parameter and a builder at its
// entry block.
func newBody() (*ir.Func, *ir.Builder) {
	m := ir.NewModule("t")
	f := m.NewFunc("victim", ir.Signature(ir.I64, ir.I64))
	return f, ir.NewBuilder(f.NewBlock("entry"))
}

// TestBookkeepingMatchesReferencesOnMalformedBodies holds CloneBody, the
// verifier and the dominator tree to their references on malformed bodies,
// where the ID tables cannot be trusted.
func TestBookkeepingMatchesReferencesOnMalformedBodies(t *testing.T) {
	names := make([]string, 0, len(malformed))
	for name := range malformed {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f := malformed[name]()
		checkClone(t, name, f)
		checkVerify(t, name, f)
		checkDomTree(t, name, f)
	}
}

// TestRestoredSnapshotGrowsInPlace pins the capped lists of a snapshot:
// growing one restored block's instructions, one instruction's operands or
// one terminator's targets must leave its neighbour's entries as they were.
func TestRestoredSnapshotGrowsInPlace(t *testing.T) {
	f, b := newBody()
	next := f.NewBlock("next")
	x := b.Add(f.Params[0], ir.I64Const(1))
	b.Add(x, ir.I64Const(2))
	b.Br(next)
	nb := ir.NewBuilder(next)
	phi := nb.Phi(ir.I64)
	phi.Args, phi.Blocks = []ir.Value{x}, []*ir.Block{f.Blocks[0]}
	nb.Ret(nb.Add(phi, ir.I64Const(3)))

	f.RestoreBody(f.CloneBody())
	want := f.String()
	entry, next := f.Blocks[0], f.Blocks[1]
	x, y, br, phi := entry.Instrs[0], entry.Instrs[1], entry.Instrs[2], next.Instrs[0]
	entry.InsertBefore(&ir.Instr{Op: ir.OpFence, Ty: ir.Void, Fence: ir.FenceSC}, x)
	x.Args = append(x.Args, ir.I64Const(99))
	br.Blocks = append(br.Blocks, entry)
	entry.Instrs = slices.Delete(entry.Instrs, 0, 1)
	x.Args = x.Args[:2]
	br.Blocks = br.Blocks[:1]
	if got := f.String(); got != want {
		t.Fatalf("growing the restored body changed its neighbours:\n--- before ---\n%s--- after ---\n%s", want, got)
	}
	if next.Instrs[0] != phi || y.Args[0] != x || phi.Blocks[0] != entry {
		t.Fatal("growing the restored body changed its neighbours")
	}
}
