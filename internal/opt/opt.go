// Package opt implements the LLVM-style optimization passes that the paper
// re-runs on lifted code (§8, Fig. 17): mem2reg, instcombine, dce, adce,
// simplifycfg, gvn (with the Fig. 11b load/store eliminations), dse, licm,
// reassociate, sccp, ipsccp and sroa, plus a vector scalarization pass used
// before the scalar backends.
//
// All passes are LIMM-correct: transformations never move or remove memory
// accesses across fences or atomics except where Fig. 11a/11b allows it,
// and the correctness of those rules is checked independently by the
// memmodel package's bounded verifier.
package opt

import (
	"context"
	"fmt"

	"lasagne/internal/diag/inject"
	"lasagne/internal/ir"
)

// Pass is a named function-level transformation returning whether it
// changed anything.
type Pass struct {
	Name string
	Run  func(*ir.Func) bool
}

// Registry lists all function-local passes by name.
var Registry = map[string]Pass{}

// ModulePass is a named module-level transformation: unlike a Pass it may
// observe and rewrite any function, so it cannot participate in the
// function-parallel pipeline or the translation cache and always runs as a
// barrier.
type ModulePass struct {
	Name string
	Run  func(*ir.Module) bool
}

// ModuleRegistry lists all module-level passes by name. Pass names are
// unique across both registries.
var ModuleRegistry = map[string]ModulePass{}

func register(name string, run func(*ir.Func) bool) {
	Registry[name] = Pass{Name: name, Run: run}
}

func registerModule(name string, run func(*ir.Module) bool) {
	ModuleRegistry[name] = ModulePass{Name: name, Run: run}
}

func init() {
	register("mem2reg", Mem2Reg)
	register("instcombine", InstCombine)
	register("dce", DCE)
	register("adce", ADCE)
	register("simplifycfg", SimplifyCFG)
	register("gvn", GVN)
	register("dse", DSE)
	register("licm", LICM)
	register("reassociate", Reassociate)
	register("sccp", SCCP)
	register("sroa", SROA)
	register("scalarize", Scalarize)
	registerModule("ipsccp", IPSCCP)
}

// PassError attributes a post-pass check failure to the exact pass and
// function that produced the invalid body. Unwrap exposes the underlying
// verifier or invariant error to errors.Is/As.
type PassError struct {
	Pass string
	Func string
	Err  error
}

func (e *PassError) Error() string {
	return fmt.Sprintf("opt: function %s invalid after %s: %v", e.Func, e.Pass, e.Err)
}

func (e *PassError) Unwrap() error { return e.Err }

// PassCheck hooks the per-pass worklist for validation. Before (optional)
// runs just before a pass executes — the validation pipeline uses it to
// snapshot the pre-pass body for repro bundles. After (optional) runs after
// every executed pass; a non-nil error aborts the pipeline wrapped in a
// *PassError naming that pass. Skipped passes (provable no-ops under the
// worklist fixpoint rule) trigger neither hook.
type PassCheck struct {
	Before func(f *ir.Func, pass string)
	After  func(f *ir.Func, pass string) error
}

// verifyCheck is the PassCheck equivalent of the historical verify=true
// mode: ir.VerifyFunc after every executed pass.
var verifyCheck = &PassCheck{
	After: func(f *ir.Func, pass string) error { return ir.VerifyFunc(f) },
}

func checkFor(verify bool) *PassCheck {
	if verify {
		return verifyCheck
	}
	return nil
}

// StandardPipeline is the -O2-like pipeline used for Native compilation and
// the Opt/POpt/PPOpt variants.
var StandardPipeline = []string{
	"mem2reg", "sroa", "instcombine", "simplifycfg", "sccp",
	"reassociate", "gvn", "licm", "dse",
	"instcombine", "adce", "simplifycfg", "mem2reg", "sroa", "gvn", "instcombine", "dce",
}

// Run applies the named pass to the module: a function-local pass visits
// every defined function, a module-level pass runs once on the module.
func Run(m *ir.Module, name string) (bool, error) {
	if mp, ok := ModuleRegistry[name]; ok {
		return mp.Run(m), nil
	}
	p, ok := Registry[name]
	if !ok {
		return false, fmt.Errorf("opt: unknown pass %q", name)
	}
	changed := false
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		if p.Run(f) {
			changed = true
		}
	}
	return changed, nil
}

// RunPipeline applies a sequence of passes to the module. Maximal runs of
// function-local passes execute function-major through the same changed-set
// worklist as RunFuncPipeline — each function walks the whole segment,
// skipping passes that already fixpointed on its current body — which is
// byte-identical to the naive pass-major sweep because every pass in
// Registry only observes the function it rewrites (pinned by
// TestWorklistPipelineMatchesPassMajor). Module-level passes are barriers
// between segments. With verify set, functions are verified after every
// executed pass and the module after every segment and module pass.
func RunPipeline(m *ir.Module, names []string, verify bool) error {
	i := 0
	for i < len(names) {
		if mp, ok := ModuleRegistry[names[i]]; ok {
			mp.Run(m)
			if verify {
				if err := ir.Verify(m); err != nil {
					return fmt.Errorf("opt: module invalid after %s: %w", names[i], err)
				}
			}
			i++
			continue
		}
		j := i
		for j < len(names) {
			if _, ok := ModuleRegistry[names[j]]; ok {
				break
			}
			if _, ok := Registry[names[j]]; !ok {
				return fmt.Errorf("opt: unknown pass %q", names[j])
			}
			j++
		}
		for _, f := range m.Funcs {
			if f.External {
				continue
			}
			if err := runFuncWorklist(context.Background(), f, names[i:j], checkFor(verify)); err != nil {
				return err
			}
		}
		if verify {
			if err := ir.Verify(m); err != nil {
				return fmt.Errorf("opt: module invalid after %s: %w", names[j-1], err)
			}
		}
		i = j
	}
	return nil
}

// Optimize runs the standard pipeline.
func Optimize(m *ir.Module) error {
	return RunPipeline(m, StandardPipeline, false)
}

// RunFuncPipeline applies a sequence of function-local passes to a single
// function, checking ctx between passes so a per-function time budget can
// interrupt a slow pipeline. Every pass in Registry is function-local, so
// running the pipeline function-major produces the same result as the
// pass-major sweep; the fault-tolerant pipeline relies on that to optimize
// (and roll back) one function at a time. Module-level passes are rejected.
// When verify is set the function is checked after each executed pass so a
// miscompiling pass is caught at the pass that introduced it.
func RunFuncPipeline(ctx context.Context, f *ir.Func, names []string, verify bool) error {
	return RunFuncPipelineWithCheck(ctx, f, names, checkFor(verify))
}

// RunFuncPipelineWithCheck is RunFuncPipeline with arbitrary per-pass hooks
// (see PassCheck); the self-checking pipeline uses it to snapshot pre-pass
// bodies and run semantic invariant checks after each pass.
func RunFuncPipelineWithCheck(ctx context.Context, f *ir.Func, names []string, pc *PassCheck) error {
	if f.External {
		return nil
	}
	return runFuncWorklist(ctx, f, names, pc)
}

// ApplyPass runs one registered function-local pass on f, reporting whether
// it changed anything. It is the replay primitive used by repro bundles,
// which re-execute a single pass on a decoded pre-pass body.
func ApplyPass(f *ir.Func, name string) (bool, error) {
	p, ok := Registry[name]
	if !ok {
		if _, isMod := ModuleRegistry[name]; isMod {
			return false, fmt.Errorf("opt: module-level pass %q cannot run on a single function", name)
		}
		return false, fmt.Errorf("opt: unknown pass %q", name)
	}
	changed := p.Run(f)
	if maybeCorrupt(f, name) {
		changed = true
	}
	return changed, nil
}

// runFuncWorklist walks the pass sequence with a changed-set worklist:
// `stamp` counts mutations of f, and a pass that reports no change is
// recorded as fixed at the current stamp — re-encountering it (the standard
// pipeline repeats instcombine, simplifycfg, mem2reg, sroa and gvn) while
// the body is still at that stamp skips it, because a pass that just
// fixpointed on exactly this body is a provable no-op. Any intervening
// change bumps the stamp and naturally invalidates every recorded fixpoint.
func runFuncWorklist(ctx context.Context, f *ir.Func, names []string, pc *PassCheck) error {
	stamp := 0
	fixedAt := make(map[string]int, len(names))
	for _, n := range names {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("opt: pipeline interrupted before %s on %s: %w", n, f.Name, err)
		}
		p, ok := Registry[n]
		if !ok {
			if _, isMod := ModuleRegistry[n]; isMod {
				return fmt.Errorf("opt: module-level pass %q cannot run in a function pipeline", n)
			}
			return fmt.Errorf("opt: unknown pass %q", n)
		}
		if at, seen := fixedAt[n]; seen && at == stamp {
			continue
		}
		if pc != nil && pc.Before != nil {
			pc.Before(f, n)
		}
		changed := p.Run(f)
		if maybeCorrupt(f, n) {
			changed = true
		}
		if changed {
			stamp++
		} else {
			fixedAt[n] = stamp
		}
		if pc != nil && pc.After != nil {
			if err := pc.After(f, n); err != nil {
				return &PassError{Pass: n, Func: f.Name, Err: err}
			}
		}
	}
	return nil
}

// maybeCorrupt applies the fault-injection harness's silent-miscompile
// modes: with "corrupt-fence:<pass>" armed it deletes the function's first
// fence (invisible to ir.Verify, caught by the fence-coverage checkpoint);
// with "corrupt-compute:<pass>" armed it flips the first integer add to a
// sub (verifier-clean, caught only by the differential oracle). Both are
// deterministic so a bisection re-run reproduces the same miscompile.
func maybeCorrupt(f *ir.Func, pass string) bool {
	corrupted := false
	if inject.ModeOf("corrupt-fence:"+pass) == inject.Corrupt {
	fence:
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpFence {
					b.Remove(in)
					corrupted = true
					break fence
				}
			}
		}
	}
	if inject.ModeOf("corrupt-compute:"+pass) == inject.Corrupt {
	compute:
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpAdd && ir.IsInt(in.Ty) {
					in.Op = ir.OpSub
					corrupted = true
					break compute
				}
			}
		}
	}
	return corrupted
}

// baseObject traces a pointer to its underlying object: an alloca
// instruction, a global, or nil when unknown.
func baseObject(v ir.Value) ir.Value {
	for depth := 0; depth < 64; depth++ {
		switch x := v.(type) {
		case *ir.Global:
			return x
		case *ir.Instr:
			switch x.Op {
			case ir.OpAlloca:
				return x
			case ir.OpBitcast, ir.OpGEP:
				v = x.Args[0]
				continue
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// mayAlias conservatively decides whether two pointers can refer to
// overlapping memory. Distinct identified objects never alias.
func mayAlias(a, b ir.Value) bool {
	if a == b {
		return true
	}
	oa, ob := baseObject(a), baseObject(b)
	if oa != nil && ob != nil && oa != ob {
		return false
	}
	return true
}

// escapeInfo answers "is this pointer thread-private?" for one pass
// invocation: a pointer is private when it provably refers to a
// non-escaping alloca, memory that fences cannot order. GVN and DSE only
// move accesses across fences for private memory — strictly stronger than
// the Fig. 11b fenced rules, which are stated for the paper's final-values
// behavior definition (see internal/memmodel's strong-observation tests).
//
// The use map is built on the first query and each alloca's answer is
// memoised, so a pass builds uses at most once however many accesses it
// asks about. The memo stays valid only while the pass's own rewrites
// cannot change an answer; a pass whose rewrites can (DSE removing a store
// that may hold an alloca's address) calls reset after each one.
type escapeInfo struct {
	f    *ir.Func
	uses *ir.Uses
	memo map[*ir.Instr]bool // alloca -> escapes
}

// escapeObserver, when set, sees every escape answer a pass acts on. Tests
// use it to compare each memoised answer against a fresh analysis of the
// function as it stands at that query.
var escapeObserver func(f *ir.Func, alloca *ir.Instr, escapes bool)

// isPrivate reports whether p provably refers to a non-escaping alloca.
func (e *escapeInfo) isPrivate(p ir.Value) bool {
	a, ok := baseObject(p).(*ir.Instr)
	if !ok || a.Op != ir.OpAlloca {
		return false
	}
	esc, ok := e.memo[a]
	if !ok {
		if e.uses == nil {
			e.uses = ir.ComputeUses(e.f)
			e.memo = make(map[*ir.Instr]bool)
		}
		esc = escapes(e.uses, a)
		e.memo[a] = esc
	}
	if escapeObserver != nil {
		escapeObserver(e.f, a, esc)
	}
	return !esc
}

// reset drops the use map and every memoised answer.
func (e *escapeInfo) reset() { e.uses, e.memo = nil, nil }

// escapes reports whether any use chain of the alloca leaves the
// load/store-address discipline (ptrtoint, calls, stored as a value, ...).
func escapes(uses *ir.Uses, a *ir.Instr) bool {
	var visit func(v ir.Value, depth int) bool
	visit = func(v ir.Value, depth int) bool {
		if depth > 16 {
			return true
		}
		for _, u := range uses.Of(v) {
			switch u.Op {
			case ir.OpLoad:
			case ir.OpStore:
				if u.Args[0] == v {
					return true // the pointer itself is stored
				}
			case ir.OpBitcast, ir.OpGEP:
				if visit(u, depth+1) {
					return true
				}
			default:
				return true
			}
		}
		return false
	}
	return visit(a, 0)
}
