package opt_test

import (
	"fmt"
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

// walkPipeline runs the standard pipeline pass-major over m, checking DCE
// against its reference before every pass and every escape answer inside
// it.
func walkPipeline(t *testing.T, o *escapeOracle, where string, m *ir.Module) {
	t.Helper()
	for i, pass := range opt.StandardPipeline {
		stage := fmt.Sprintf("%s, before pass %d (%s)", where, i, pass)
		for _, f := range m.Funcs {
			if f.External {
				continue
			}
			checkDCE(t, stage, f)
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

// TestRewritesMatchReferences checks the worklist DCE and the memoised
// escape answers against their straightforward forms on every suite kernel
// and GenProgram seeds 0..oracleSeeds-1, at every stage of the pipeline in
// both translation directions.
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
