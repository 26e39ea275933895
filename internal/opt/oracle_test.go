package opt_test

import (
	"fmt"
	"math"
	"slices"
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
const oracleSeeds = 200

// escapeOracle checks every escape answer a pass acts on against a fresh
// per-query analysis of the function as it stands at that query, and
// counts the queries per pass.
type escapeOracle struct {
	t       *testing.T
	pass    string
	where   string
	queries map[string]int
}

func installEscapeOracle(t *testing.T) *escapeOracle {
	o := &escapeOracle{t: t, queries: map[string]int{}}
	t.Cleanup(opt.ObserveEscapes(func(f *ir.Func, a *ir.Instr, escapes bool) {
		o.queries[o.pass]++
		if want := opt.ReferenceEscapes(f, a); escapes != want {
			o.t.Fatalf("%s: %s on %s answered escapes(%s)=%v, a fresh analysis says %v:\n%s",
				o.where, o.pass, f.Name, a.Ref(), escapes, want, f)
		}
	}))
	return o
}

// checkDCE runs DCE and ReferenceDCE on two copies of f's body and requires
// the same result; f itself is left as it was.
func checkDCE(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	orig := f.Blocks
	work, ref := f.CloneBody(), f.CloneBody()
	workAt, refAt := positions(work), positions(ref)
	f.RestoreBody(work)
	gotChanged := opt.DCE(f)
	f.RestoreBody(ref)
	wantChanged := opt.ReferenceDCE(f)
	f.RestoreBody(orig)
	if gotChanged != wantChanged || !slices.Equal(kept(work, workAt), kept(ref, refAt)) {
		f.RestoreBody(work)
		got := f.String()
		f.RestoreBody(ref)
		want := f.String()
		f.RestoreBody(orig)
		t.Fatalf("%s: DCE on %s (changed=%v) differs from the fixpoint reference (changed=%v):\n--- worklist ---\n%s--- reference ---\n%s",
			where, f.Name, gotChanged, wantChanged, got, want)
	}
}

// positions numbers the instructions of a body in layout order.
func positions(blocks []*ir.Block) map[*ir.Instr]int {
	at := map[*ir.Instr]int{}
	for _, b := range blocks {
		for _, in := range b.Instrs {
			at[in] = len(at)
		}
	}
	return at
}

// kept lists, by their positions before a removal pass, the instructions
// still in the body.
func kept(blocks []*ir.Block, at map[*ir.Instr]int) []int {
	var out []int
	for _, b := range blocks {
		for _, in := range b.Instrs {
			out = append(out, at[in])
		}
	}
	return out
}

// checkBatched runs pass and its previous, rewrite-at-a-time form on two
// copies of f's body and requires the same printed body — value numbers
// included — and the same changed flag; f is left as it was.
func checkBatched(t *testing.T, where string, f *ir.Func, pass string) {
	t.Helper()
	ref, ok := opt.BatchedReferences[pass]
	if !ok {
		return
	}
	orig, bound := f.Blocks, f.IDBound()
	work, want := f.CloneBody(), f.CloneBody()
	f.RestoreBody(work)
	gotChanged := opt.Registry[pass].Run(f)
	got := f.String()
	f.SetIDBound(bound)
	f.RestoreBody(want)
	wantChanged := ref(f)
	wantText := f.String()
	f.RestoreBody(orig)
	f.SetIDBound(bound)
	if gotChanged != wantChanged || got != wantText {
		t.Fatalf("%s: batched %s on %s (changed=%v) differs from its reference (changed=%v):\n--- batched ---\n%s--- reference ---\n%s",
			where, pass, f.Name, gotChanged, wantChanged, got, wantText)
	}
}

// checkUses requires ir.ComputeUses to list, for every instruction result
// and parameter of f, exactly the users a use map records, in order.
func checkUses(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	want := map[ir.Value][]*ir.Instr{}
	var values []ir.Value
	for _, p := range f.Params {
		values = append(values, p)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !ir.IsVoid(in.Ty) {
				values = append(values, in)
			}
			for _, a := range in.Args {
				want[a] = append(want[a], in)
			}
		}
	}
	uses := ir.ComputeUses(f)
	for _, v := range values {
		if got := uses.Of(v); !slices.Equal(got, want[v]) {
			t.Fatalf("%s: %s: Uses.Of(%s) lists %d users, the use map %d:\n%s",
				where, f.Name, v.Ref(), len(got), len(want[v]), f)
		}
	}
}

// walkPipeline runs the standard pipeline pass-major over m. Before every
// pass it checks the use index against a use map, DCE against its
// reference and, for a pass that batches its replacements, the pass against
// its previous form; inside it, every escape answer.
func walkPipeline(t *testing.T, o *escapeOracle, where string, m *ir.Module) {
	t.Helper()
	for i, pass := range opt.StandardPipeline {
		stage := fmt.Sprintf("%s, before pass %d (%s)", where, i, pass)
		for _, f := range m.Funcs {
			if f.External {
				continue
			}
			// The dense indexes rely on unique, bounded value IDs, and every
			// pass expects a valid function.
			if err := ir.VerifyFunc(f); err != nil {
				t.Fatalf("%s: %s: %v", stage, f.Name, err)
			}
			checkUses(t, stage, f)
			checkDCE(t, stage, f)
			checkBatched(t, stage, f, pass)
			o.pass, o.where = pass, stage
			if _, err := opt.ApplyPass(f, pass); err != nil {
				t.Fatal(err)
			}
		}
	}
	o.pass = ""
	for _, f := range m.Funcs {
		if !f.External {
			checkDCE(t, where+", after the pipeline", f)
		}
	}
}

// walkProgram walks the pipeline over every module one program passes
// through: its minic IR (the native -O2 build), its lifted, refined and
// fenced x86-64 build (x86→Arm translation) and its lifted, refined Arm64
// build (Arm→x86 translation).
func walkProgram(t *testing.T, o *escapeOracle, name, src string) {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	walkPipeline(t, o, name+" (native)", m)
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
	refine.Run(lx)
	fences.Place(lx, fences.Options{SkipStackAccesses: true})
	walkPipeline(t, o, name+" (x86→Arm)", lx)
	la, err := armlifter.Lift(arm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	refine.Run(la)
	walkPipeline(t, o, name+" (Arm→x86)", la)
}

// TestRewritesMatchReferences checks the use index, the worklist DCE, the
// batched passes and the memoised escape answers against their
// straightforward forms on every suite kernel and GenProgram seeds
// 0..oracleSeeds-1, at every stage of the pipeline in both translation
// directions.
func TestRewritesMatchReferences(t *testing.T) {
	o := installEscapeOracle(t)
	var suite []phoenix.Benchmark
	suite = append(suite, phoenix.All()...)
	suite = append(suite, phoenix.LockFree()...)
	for _, b := range suite {
		walkProgram(t, o, b.Name, b.Source)
	}
	for seed := int64(0); seed < oracleSeeds; seed++ {
		walkProgram(t, o, fmt.Sprintf("GenProgram(%d)", seed), validate.GenProgram(seed))
	}
	for _, pass := range []string{"licm", "gvn", "dse"} {
		if o.queries[pass] == 0 {
			t.Errorf("no %s escape query was checked: %v", pass, o.queries)
		}
	}
	t.Logf("escape queries checked: %v", o.queries)
}

// TestDSEEscapeAnswerAfterStoreRemoval pins the memo rule for DSE: removing
// the store that held %b's address makes %b private, so a query about %b
// after that removal must not reuse the answer from before it.
func TestDSEEscapeAnswerAfterStoreRemoval(t *testing.T) {
	o := installEscapeOracle(t)
	o.pass, o.where = "dse", "store-removal case"
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.Void))
	b := ir.NewBuilder(f.NewBlock("entry"))
	slot := b.Alloca(ir.PointerTo(ir.I64))
	priv := b.Alloca(ir.I64)
	b.Store(ir.I64Const(1), priv)
	b.Fence(ir.FenceWW) // asks about %b while its address is still stored
	b.Store(ir.I64Const(2), priv)
	b.Store(priv, slot) // dead: overwritten below
	b.Store(ir.Null(ir.PointerTo(ir.I64)), slot)
	b.Store(ir.I64Const(3), priv) // dead once %b is private
	b.Fence(ir.FenceWW)
	b.Store(ir.I64Const(4), priv)
	b.Ret(nil)
	opt.DSE(f)
	for _, bl := range f.Blocks {
		for _, in := range bl.Instrs {
			if in.Op != ir.OpStore {
				continue
			}
			if in.Args[0] == ir.Value(priv) {
				t.Fatalf("the store of %%b's address survived:\n%s", f)
			}
			if c, ok := ir.ConstIntValue(in.Args[0]); ok && c == 3 {
				t.Fatalf("a private store was kept across a fence:\n%s", f)
			}
		}
	}
}

// TestDCEReleasesNewlyWriteOnlySlot pins the write-only release: once the
// dead load of %s goes, its stores are unobservable and go too, and then
// the slot itself.
func TestDCEReleasesNewlyWriteOnlySlot(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	s := b.Alloca(ir.I64)
	b.Store(f.Params[0], s)
	b.Load(s) // dead
	b.Store(ir.I64Const(7), s)
	b.Ret(f.Params[0])
	checkDCE(t, "write-only slot", f)
	opt.DCE(f)
	if n := f.NumInstrs(); n != 1 {
		t.Fatalf("%d instructions left, want only the ret:\n%s", n, f)
	}
}

// TestDCEFollowsOperandsAcrossLayout pins the worklist's reach when a dead
// chain is defined in a block laid out after its only user: removing the
// user must revisit the definitions.
func TestDCEFollowsOperandsAcrossLayout(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Signature(ir.I64, ir.I64))
	entry, use, def := f.NewBlock("entry"), f.NewBlock("use"), f.NewBlock("def")
	b := ir.NewBuilder(entry)
	b.Br(def)
	b.SetBlock(def)
	x := b.Mul(f.Params[0], ir.I64Const(3))
	y := b.Add(x, ir.I64Const(1))
	b.Br(use)
	b.SetBlock(use)
	b.Xor(y, f.Params[0]) // dead
	b.Ret(f.Params[0])
	checkDCE(t, "layout-inverted chain", f)
	opt.DCE(f)
	if n := f.NumInstrs(); n != 3 {
		t.Fatalf("%d instructions left, want the two branches and the ret:\n%s", n, f)
	}
}

// TestGVNKeyClasses pins GVN's key equivalence classes against the
// string-keyed reference on the cases the suite rarely shows: commuted
// operands, float constants compared by their %v spelling (every NaN
// alike, -0 apart from 0), equal constants that are distinct objects,
// undef by identity, types, predicates, and GEPs with more than three
// operands that differ only in the last index.
func TestGVNKeyClasses(t *testing.T) {
	m := ir.NewModule("t")
	i8p := ir.PointerTo(ir.I8)
	sink := m.DeclareFunc("sink", ir.VariadicSignature(ir.Void))
	f := m.NewFunc("f", ir.Signature(ir.Void, ir.I64, ir.I64, ir.F64, i8p, ir.I1))
	p0, p1, p2, p3, c := f.Params[0], f.Params[1], f.Params[2], f.Params[3], f.Params[4]
	b := ir.NewBuilder(f.NewBlock("entry"))
	nan1 := ir.FloatConst(ir.F64, math.Float64frombits(0x7ff8000000000001))
	nan2 := ir.FloatConst(ir.F64, math.Float64frombits(0x7ff8000000000002))
	grid := ir.ArrayOf(ir.ArrayOf(ir.I8, 4), 4)
	frame := b.Alloca(grid)
	u1, u2 := ir.NewUndef(ir.I64), ir.NewUndef(ir.I64)
	vals := []ir.Value{
		b.Add(p0, p1), b.Add(p1, p0),
		b.Mul(p1, p0), b.Mul(p0, p1),
		b.Sub(p0, p1), b.Sub(p1, p0),
		b.Xor(p0, ir.I64Const(3)), b.Xor(ir.I64Const(3), p0),
		b.FAdd(p2, ir.FloatConst(ir.F64, 1.5)), b.FAdd(ir.FloatConst(ir.F64, 1.5), p2),
		b.FMul(p2, nan1), b.FMul(p2, nan2),
		b.FSub(p2, ir.FloatConst(ir.F64, 0)), b.FSub(p2, ir.FloatConst(ir.F64, math.Copysign(0, -1))),
		b.Add(p0, ir.I64Const(5)), b.Add(p0, ir.I64Const(5)),
		b.Add(p0, u1), b.Add(p0, u2),
		b.Trunc(p0, ir.I32), b.Trunc(p0, ir.I16), b.Trunc(p0, ir.I32),
		b.ICmp(ir.PredSLT, p0, p1), b.ICmp(ir.PredSGT, p0, p1), b.ICmp(ir.PredSLT, p0, p1),
		b.Select(c, ir.Null(i8p), p3), b.Select(c, ir.Null(ir.PointerTo(ir.I8)), p3),
		b.Bitcast(p3, ir.PointerTo(ir.I64)), b.Bitcast(p3, ir.PointerTo(ir.I32)), b.Bitcast(p3, ir.PointerTo(ir.I64)),
		b.GEP(grid, frame, ir.I64Const(0), ir.I64Const(1), ir.I64Const(2)),
		b.GEP(grid, frame, ir.I64Const(0), ir.I64Const(1), ir.I64Const(3)),
		b.GEP(grid, frame, ir.I64Const(0), ir.I64Const(1), ir.I64Const(2)),
	}
	for _, v := range vals {
		b.Call(sink, v)
	}
	b.Ret(nil)
	checkBatched(t, "key classes", f, "gvn")
	before := f.NumInstrs()
	opt.GVN(f)
	// Merged: add, mul, xor, fadd, the NaN fmul, the equal-constant add,
	// trunc, icmp, select, bitcast and GEP duplicates.
	if removed := before - f.NumInstrs(); removed != 11 {
		t.Fatalf("GVN removed %d instructions, want 11:\n%s", removed, f)
	}
}

// TestScalarizeMatchesReference checks the batched Scalarize against its
// previous form. Scalarize is not in the standard pipeline, so the oracle
// walk never reaches it. The cases: a vector load feeding a vector add in
// the same block, and a replaced vector add whose result feeds vector ops
// and a vector store in later blocks, one of them laid out before the
// block that defines it.
func TestScalarizeMatchesReference(t *testing.T) {
	v2 := ir.VectorOf(ir.F64, 2)

	m := ir.NewModule("t")
	g := m.NewGlobal("vec", v2)
	f := m.NewFunc("same_block", ir.Signature(ir.I64))
	b := ir.NewBuilder(f.NewBlock("entry"))
	lanes := b.InsertElement(ir.NewUndef(v2), ir.FloatConst(ir.F64, 1.5), ir.I64Const(0))
	lanes2 := b.InsertElement(lanes, ir.FloatConst(ir.F64, 2.5), ir.I64Const(1))
	b.Store(lanes2, g)
	ld := b.Load(g)
	sum := b.Bin(ir.OpFAdd, ld, ld)
	e0 := b.ExtractElement(sum, ir.I64Const(0))
	e1 := b.ExtractElement(sum, ir.I64Const(1))
	b.Ret(b.FPToSI(b.FAdd(e0, e1), ir.I64))
	checkBatched(t, "same block", f, "scalarize")

	f = m.NewFunc("cross_block", ir.Signature(ir.I64, ir.I1))
	entry := f.NewBlock("entry")
	late := f.NewBlock("late")
	mid := f.NewBlock("mid")
	exit := f.NewBlock("exit")
	b = ir.NewBuilder(entry)
	a := b.Load(g)
	twice := b.Bin(ir.OpFAdd, a, a)
	b.CondBr(f.Params[0], mid, exit)
	// late is laid out before mid but runs after it: its operand is
	// replaced only when mid is visited.
	b.SetBlock(mid)
	prod := b.Bin(ir.OpFMul, twice, a)
	b.Br(late)
	b.SetBlock(late)
	diff := b.Bin(ir.OpFSub, prod, twice)
	b.Store(diff, g)
	b.Br(exit)
	b.SetBlock(exit)
	b.Store(twice, g)
	b.Ret(b.FPToSI(b.ExtractElement(twice, ir.I64Const(1)), ir.I64))
	checkBatched(t, "across blocks", f, "scalarize")
}

// TestInstCombineResolvesTwoLevels pins InstCombine's second-level operand
// resolution. The blocks are laid out out of dominance order, so k folds to
// 5 after its user a was visited and before r is. The rule
// (x+c1)+c2 -> x+(c1+c2) on r reads a's operand. It must see the 5 in the
// same sweep, as a whole-function rewrite would have left it: only then
// does the sweep that counts k's replacement also rewrite r to x+0, and the
// next sweep fold that to x.
func TestInstCombineResolvesTwoLevels(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Signature(ir.I64, ir.I64))
	entry := f.NewBlock("entry")
	useA := f.NewBlock("a")
	defK := f.NewBlock("k")
	useR := f.NewBlock("r")
	b := ir.NewBuilder(entry)
	b.Br(defK)
	b.SetBlock(defK)
	k := b.Add(ir.I64Const(2), ir.I64Const(3))
	b.Br(useA)
	b.SetBlock(useA)
	a := b.Add(f.Params[0], k)
	b.Br(useR)
	b.SetBlock(useR)
	b.Ret(b.Add(a, ir.I64Const(-5)))
	checkBatched(t, "two levels", f, "instcombine")
	opt.InstCombine(f)
	if ret := f.Blocks[3].Instrs; len(ret) != 1 || ret[0].Args[0] != ir.Value(f.Params[0]) {
		t.Fatalf("InstCombine did not fold the r block to ret %%p0:\n%s", f)
	}
}

// TestInstCombineFoldsBooleanRoundTrip pins the fold of minic's condition
// lowering, icmp; zext; icmp ne/eq 0; br, back to one compare feeding the
// branch: ne keeps the inner predicate, eq inverts it. Both forms must
// match the rewrite-at-a-time reference and keep the function's results.
func TestInstCombineFoldsBooleanRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		outer, want ir.Pred
	}{{ir.PredNE, ir.PredSLT}, {ir.PredEQ, ir.PredSGE}} {
		m := ir.NewModule("t")
		f := m.NewFunc("f", ir.Signature(ir.I64, ir.I64))
		entry, yes, no := f.NewBlock("entry"), f.NewBlock("yes"), f.NewBlock("no")
		b := ir.NewBuilder(entry)
		c := b.ICmp(ir.PredSLT, f.Params[0], ir.I64Const(10))
		cond := b.ICmp(tc.outer, b.Zext(c, ir.I64), ir.I64Const(0))
		b.CondBr(cond, yes, no)
		b.SetBlock(yes)
		b.Ret(ir.I64Const(1))
		b.SetBlock(no)
		b.Ret(ir.I64Const(2))
		where := "icmp " + tc.outer.String() + " of a zext"
		checkBatched(t, where, f, "instcombine")
		want := map[uint64]uint64{}
		for _, x := range []uint64{1<<64 - 3, 9, 10, 11} {
			want[x], _ = ir.NewInterp(m).Run("f", x)
		}
		opt.InstCombine(f)
		br := entry.Instrs[len(entry.Instrs)-1]
		cmp, ok := br.Args[0].(*ir.Instr)
		if len(entry.Instrs) != 2 || !ok || cmp.Op != ir.OpICmp || cmp.Pred != tc.want ||
			cmp.Args[0] != ir.Value(f.Params[0]) {
			t.Fatalf("%s: want one icmp %s on %%p0 feeding the branch:\n%s", where, tc.want, f)
		}
		for x, w := range want {
			if got, _ := ir.NewInterp(m).Run("f", x); got != w {
				t.Fatalf("%s: f(%d) = %d after the fold, %d before", where, x, got, w)
			}
		}
	}
}
