// Package core is the Lasagne pipeline: the end-to-end static binary
// translator from x86-64 (TSO) objects to Arm64 (weak memory) objects,
// matching Fig. 3 of the paper:
//
//	x86 binary → binary lifting → IR refinement → optimized fence
//	placement → LLVM-style optimizations → Arm64 backend
//
// Each stage can be toggled via Config to reproduce the paper's evaluation
// variants (Lifted / Opt / POpt / PPOpt).
//
// The pipeline is staged and function-parallel. Module-level steps —
// disassembly, function declaration, parameter promotion — run serially;
// everything function-local (body lifting, peephole refinement, fence
// placement and merging, the optimization pipeline) fans out across a
// worker pool sized by Config.Jobs. Workers only ever mutate their own
// function; diagnostics, statistics and the degraded set are merged on the
// coordinating goroutine in module function order, so serial (Jobs=1) and
// parallel runs produce byte-identical modules and identically ordered
// reports.
//
// Translations can be memoized in a content-addressed cache (Config.Cache)
// with two tiers. The module tier (modtier.go) keys a whole object-to-object
// translation on the input object and the output-affecting Config, so an
// unchanged module replays its output object, statistics and per-function
// events without lifting. On a module miss, the per-function tier memoizes
// the function-local suffix (fence placement, merging, optimization): its
// key hashes the pipeline version, the Config fingerprint and the
// function's canonical IR encoding at suffix entry, and a hit replays the
// memoized post-pipeline body instead of re-running the passes. Degraded
// functions and degraded modules are never cached.
//
// The pipeline is fault tolerant at function granularity. Every function
// passes through the optimizing stages inside its own recover boundary
// (diag.Guard) and, when Config.FuncBudget is set, under its own deadline.
// When refinement, optimized fence placement or an optimization pass fails
// — by error, panic or budget expiry — the function's body is restored to
// its post-lift snapshot and re-fenced with the conservative full-fence
// mapping of Fig. 8a, which is always sound (§7); the fallback is recorded
// as a Warning in the returned diag.Report. Only lift-stage failures are
// unrecoverable per function: those become flagged stubs with Error
// diagnostics, and Translate fails unless Config.AllowPartial is set.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lasagne/internal/armlifter"
	"lasagne/internal/backend"
	"lasagne/internal/core/cache"
	"lasagne/internal/diag"
	"lasagne/internal/diag/inject"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/par"
	"lasagne/internal/refine"
	"lasagne/internal/validate"
)

// PipelineVersion names the semantics of the function-local pipeline suffix
// for cache keying: any change to fence placement, fence merging or the
// standard optimization pipeline must be reflected here (bump the prefix or
// let the pass list change do it), or stale cache entries would replay.
var PipelineVersion = "core-v3;opt=" + strings.Join(opt.StandardPipeline, ",")

// Config selects pipeline stages. The zero value is the bare correct
// translation (the paper's "Lifted" variant); Default() enables everything
// (the paper's PPOpt, i.e. full Lasagne).
type Config struct {
	// Refine runs the §5 IR refinement (pointer peepholes + parameter
	// promotion) before fence placement.
	Refine bool
	// MergeFences applies the §7.2 fence merging rules after placement.
	MergeFences bool
	// Optimize re-runs the LLVM-style optimization pipeline on the lifted
	// IR after fence placement.
	Optimize bool
	// VerifyIR runs the IR verifier between stages. Under the fault-tolerant
	// pipeline a per-function verification failure degrades that function to
	// the conservative translation instead of failing the module.
	VerifyIR bool
	// FuncBudget bounds the wall-clock time the refine/fences/opt stages may
	// spend on any single function; on expiry the function falls back to the
	// conservative full-fence translation (the diagnostic cause wraps
	// diag.ErrBudgetExceeded). Zero means no per-function budget.
	FuncBudget time.Duration
	// AllowPartial lets Translate succeed when some functions could not be
	// lifted at all: each becomes a stub returning zero, flagged with an
	// Error diagnostic. Without AllowPartial any lift failure aborts the
	// translation (the Report still describes every failure).
	AllowPartial bool
	// Jobs is the worker count for the function-parallel stages: zero or
	// negative means one worker per CPU. The translation output is
	// byte-identical for every worker count.
	Jobs int
	// Cache, when non-nil, memoizes translations keyed by content. Translate
	// and TranslateArmToX86 replay the whole translation for an unchanged
	// module under an equivalent Config (unless Validate is set); otherwise
	// the function-local pipeline suffix (fence placement, merging,
	// optimization) of each unchanged function replays its memoized body
	// instead of re-running the passes.
	Cache *cache.Cache
	// Validate turns on the self-checking checkpoints: ir.Verify plus the
	// semantic invariants of the §7/§8 mapping (fence coverage, no
	// reintroduced ptrtoint/inttoptr) run after refinement, after fence
	// placement+merging, and after every opt pass, attributing any violation
	// to the exact pass and function. A checkpoint failure degrades the
	// function like any other stage failure. Validation is observation-only:
	// the translated output is byte-identical with it on or off, and it does
	// not change cache keys (suffix-tier hits are instead re-checked before
	// being trusted, and the module tier, whose output cannot be re-checked
	// function by function, is bypassed).
	Validate bool
	// OptPasses overrides the opt pass list (nil means
	// opt.StandardPipeline). A non-nil list extends the cache fingerprint;
	// the bisection driver uses prefixes of the standard list to pinpoint a
	// miscompiling pass. Every name must be a registered function-local
	// pass.
	OptPasses []string
	// ReproDir, when set together with Validate, is where checkpoint and
	// differential failures dump self-contained repro bundles
	// (validate.Bundle JSON) that replay standalone.
	ReproDir string
	// WeakFences enables the weaker-than-DMB lowering in the strong→weak
	// direction: escape-analysis-based fence elimination (beyond §8's
	// alloca-only test) and the post-merge strengthening of load;Frm /
	// Fww;store pairs into acquire/release accesses, which the Arm backend
	// emits as LDAR/STLR instead of standalone DMBs. Every rule is
	// machine-checked against the LIMM→Arm mapping (memmodel.MapIRToArmWeak)
	// and covered by the fence-coverage checkpoints.
	WeakFences bool
	// FuncDone, when non-nil, is invoked on a pipeline worker goroutine as
	// each function leaves the fence/opt suffix — cache hits, clean
	// completions and degraded fallbacks alike. With Jobs > 1 calls are
	// concurrent. The hook may block: a blocked hook pauses exactly that
	// worker, which is how a downstream consumer (the daemon's bounded
	// per-connection response buffer) backpressures the fan-out instead of
	// buffering unboundedly. A non-nil return cancels the translation:
	// in-flight functions finish, remaining ones are skipped, and
	// TranslateContext fails with an error wrapping ErrHookAborted. FuncDone
	// never influences the translation output or the cache keys — a run with
	// the hook attached is byte-identical to one without. On a module-tier
	// cache hit the memoized events are replayed serially, in module order,
	// on the calling goroutine.
	FuncDone func(FuncEvent) error
}

// FuncEvent describes one function completing the fence/opt suffix of the
// pipeline. It is the unit of the daemon's streamed responses: the
// content-addressed key lets a client acknowledge work it already holds,
// and the canonical body is the exact bytes a cache entry would memoize.
type FuncEvent struct {
	// Func is the function name.
	Func string
	// Key is the content-addressed key of the function's pipeline suffix
	// (the translation-cache key). Keyed reports whether it is meaningful:
	// degraded fallbacks are never keyed — their results are not cacheable,
	// so they must not be acknowledged or resumed.
	Key   cache.Key
	Keyed bool
	// Body is the canonical encoding of the post-suffix body (the cache
	// codec; cache.DecodeBody reverses it).
	Body []byte
	// Placed and Merged are the per-function fence statistics deltas.
	Placed, Merged int
	// Degraded reports that the function fell back to the conservative
	// full-fence translation (or was stubbed/rolled back earlier).
	Degraded bool
	// CacheHit reports that the function replayed from the translation
	// cache: its suffix entry, or its whole module's record.
	CacheHit bool
}

// ErrHookAborted is wrapped by the error TranslateContext returns when a
// Config.FuncDone hook cancelled the translation.
var ErrHookAborted = errors.New("translation aborted by FuncDone hook")

// Default returns the full Lasagne configuration.
func Default() Config {
	return Config{Refine: true, MergeFences: true, Optimize: true, WeakFences: true}
}

// fingerprint summarizes the Config fields that influence the memoized
// pipeline suffix. Refine is deliberately absent: its effect is fully
// captured by the input-body hash (the key is computed after refinement).
func (c Config) fingerprint(place bool) string {
	fp := fmt.Sprintf("merge=%t;opt=%t;verify=%t;place=%t;weak=%t",
		c.MergeFences, c.Optimize, c.VerifyIR, place, c.WeakFences && place)
	// Validate and ReproDir are deliberately absent: validation is
	// observation-only, so a validated and a non-validated run share cache
	// entries (hits are re-checked under Validate instead). A custom pass
	// list does change the memoized suffix, so it extends the fingerprint —
	// but only when set, preserving every existing key.
	if c.OptPasses != nil {
		fp += ";passes=" + strings.Join(c.OptPasses, ",")
	}
	return fp
}

// fingerprint extends Config.fingerprint with the weak-fences state. The
// thread-local-globals list is module context a function's body hash cannot
// see (the same body strengthens differently depending on which globals the
// prepass proved local), so it must key the cache.
func (p *pipeline) fingerprint() string {
	fp := p.cfg.fingerprint(p.place)
	if p.weakFences() {
		fp += ";locals=" + strings.Join(p.localGlobals, ",")
	}
	return fp
}

// weakFences reports whether the weak lowering applies: it only exists in
// the strong→weak (x86→Arm) direction, where fences are being placed.
func (p *pipeline) weakFences() bool { return p.cfg.WeakFences && p.place }

// passes returns the opt pass list this Config runs: OptPasses when set
// (including an empty non-nil list, which runs no passes), else the
// standard pipeline.
func (c Config) passes() []string {
	if c.OptPasses != nil {
		return c.OptPasses
	}
	return opt.StandardPipeline
}

// Stats reports what the pipeline did.
type Stats struct {
	LiftedInstrs   int // IR instructions straight out of the lifter
	FinalInstrs    int // IR instructions handed to the backend
	PtrCastsBefore int // inttoptr+ptrtoint before refinement
	PtrCastsAfter  int // ... after refinement
	FencesPlaced   int // fences inserted by placement
	FencesMerged   int // fences removed by merging
	FencesFinal    int // fences left in the final IR
	AcquireLoads   int // loads strengthened to acquire (lowered as LDAR)
	ReleaseStores  int // stores strengthened to release (lowered as STLR)
	RefineRewrites int
	PromotedParams int
	CacheHits      int // functions whose pipeline suffix replayed from cache
	CacheMisses    int // functions that ran the suffix and (if clean) filled it
}

// Translate lifts an x86-64 object and compiles it to an Arm64 object. The
// returned Report is non-nil whenever bin reached the pipeline, including on
// error.
func Translate(bin *obj.File, cfg Config) (*obj.File, *Stats, *diag.Report, error) {
	return TranslateContext(context.Background(), bin, cfg)
}

// TranslateContext is Translate bounded by ctx: when the context expires the
// pipeline stops between stages and returns an error wrapping
// diag.ErrBudgetExceeded together with the diagnostics gathered so far.
func TranslateContext(ctx context.Context, bin *obj.File, cfg Config) (*obj.File, *Stats, *diag.Report, error) {
	return x86ToArm.translate(ctx, bin, cfg)
}

// translateX86ToArm is the uncached x86→Arm pipeline behind the module tier.
func translateX86ToArm(ctx context.Context, bin *obj.File, cfg Config, record bool) (*obj.File, *Stats, *diag.Report, []FuncEvent, error) {
	m, stats, rep, events, err := toIR(ctx, bin, cfg, record)
	if err != nil {
		return nil, stats, rep, nil, err
	}
	out, err := compile(m, "arm64", rep)
	if err != nil {
		return nil, stats, rep, nil, err
	}
	return out, stats, rep, events, nil
}

// compile runs the target backend over the final module.
func compile(m *ir.Module, target string, rep *diag.Report) (*obj.File, error) {
	var out *obj.File
	gerr := diag.Guard(diag.StageBackend, "", func() error {
		if err := inject.Hit("backend:module"); err != nil {
			return err
		}
		var cerr error
		out, cerr = backend.Compile(m, target)
		return cerr
	})
	if gerr != nil {
		return nil, fail(rep, diag.StageBackend, "", target+" backend failed", gerr)
	}
	return out, nil
}

// TranslateToIR runs the pipeline up to (but not including) code
// generation, returning the final IR module.
func TranslateToIR(bin *obj.File, cfg Config) (*ir.Module, *Stats, *diag.Report, error) {
	return TranslateToIRContext(context.Background(), bin, cfg)
}

// TranslateToIRContext is TranslateToIR bounded by ctx. It returns an IR
// module, so only the per-function suffix tier of Config.Cache applies.
func TranslateToIRContext(ctx context.Context, bin *obj.File, cfg Config) (*ir.Module, *Stats, *diag.Report, error) {
	m, stats, rep, _, err := toIR(ctx, bin, cfg, false)
	return m, stats, rep, err
}

// toIR is the x86 lift plus the shared pipeline. With record set it also
// returns every function's FuncEvent in module order.
func toIR(ctx context.Context, bin *obj.File, cfg Config, record bool) (*ir.Module, *Stats, *diag.Report, []FuncEvent, error) {
	rep := diag.NewReport()
	if bin.Arch != "x86-64" {
		return nil, nil, rep, nil, fail(rep, diag.StageDisasm, "",
			fmt.Sprintf("expected an x86-64 binary, got %q", bin.Arch), nil)
	}
	stats := &Stats{}
	workers := par.Workers(cfg.Jobs)

	// Lift stage. Disassembly, CFG reconstruction and body translation all
	// recover per function: a function that cannot be lifted becomes a stub
	// flagged with an Error diagnostic. Declaration is serial (it creates
	// module-level functions); body lifting is function-local and fans out.
	ml, err := lifter.BeginTolerant(bin, func(sym obj.Symbol, derr error) {
		rep.Add(diag.Diagnostic{Stage: diag.StageDisasm, Func: sym.Name, Addr: sym.Addr,
			Severity: diag.Error, Msg: "cannot disassemble function; dropped", Cause: derr})
	})
	if err != nil {
		return nil, nil, rep, nil, fail(rep, diag.StageDisasm, "", "cannot disassemble object", err)
	}

	var lifted []string
	for _, s := range ml.Streams() {
		s := s
		name := s.Sym.Name
		gerr := diag.Guard(diag.StageLift, name, func() error {
			return ml.DeclareFunc(s)
		})
		if gerr != nil {
			rep.Add(diag.Diagnostic{Stage: diag.StageLift, Func: name, Addr: diag.AddrOf(gerr),
				Severity: diag.Error, Msg: "cannot reconstruct CFG; function dropped", Cause: gerr})
			continue
		}
		lifted = append(lifted, name)
	}
	// excluded tracks functions barred from the optimizing stages — lift
	// failures (stubs) and functions already degraded to their snapshot.
	excluded := map[string]bool{}
	liftErrs := par.Collect(len(lifted), workers, func(i int) error {
		name := lifted[i]
		gerr := diag.Guard(diag.StageLift, name, func() error {
			if err := inject.Hit("lift:" + name); err != nil {
				return err
			}
			return ml.LiftFunc(name)
		})
		if gerr == nil {
			if f := ml.Module().Func(name); f != nil {
				gerr = diag.Guard(diag.StageVerify, name, func() error { return ir.VerifyFunc(f) })
			}
		}
		return gerr
	})
	for i, gerr := range liftErrs {
		if gerr == nil {
			continue
		}
		name := lifted[i]
		ml.StubFunc(name)
		excluded[name] = true
		rep.Add(diag.Diagnostic{Stage: diag.StageLift, Func: name, Addr: diag.AddrOf(gerr),
			Severity: diag.Error, Msg: "cannot lift function; emitted a stub returning zero", Cause: gerr})
	}
	m := ml.Module()
	stats.LiftedInstrs = m.NumInstrs()
	stats.PtrCastsBefore = refine.CountPtrCasts(m)

	if rep.HasErrors() && !cfg.AllowPartial {
		fe := rep.FirstError()
		return nil, stats, rep, nil, fmt.Errorf("lasagne: %s stage failed for @%s: %w (set AllowPartial to translate the rest)",
			fe.Stage, fe.Func, fe.Cause)
	}

	p := &pipeline{ctx: ctx, cfg: cfg, stats: stats, rep: rep, m: m,
		excluded: excluded, place: true, workers: workers, record: record}
	p.snapshot()
	if err := p.run(); err != nil {
		return nil, stats, rep, nil, err
	}
	stats.FinalInstrs = m.NumInstrs()
	return m, stats, rep, p.events, nil
}

// TranslateArmToX86 runs the Appendix B direction: an Arm64 object is
// lifted (DMB fences become LIMM fences, LL/SC idioms become seq_cst
// atomics), refined and optimized, and compiled with the x86-64 backend
// (Fsc becomes MFENCE; Frm/Fww need no instruction under TSO). The
// weak-to-strong direction requires no fence placement pass: every x86
// access is already at least as ordered as its Arm counterpart — which also
// makes the conservative fallback for this direction simply the unoptimized
// lifted body.
func TranslateArmToX86(bin *obj.File, cfg Config) (*obj.File, *Stats, *diag.Report, error) {
	return TranslateArmToX86Context(context.Background(), bin, cfg)
}

// TranslateArmToX86Context is TranslateArmToX86 bounded by ctx.
func TranslateArmToX86Context(ctx context.Context, bin *obj.File, cfg Config) (*obj.File, *Stats, *diag.Report, error) {
	return armToX86.translate(ctx, bin, cfg)
}

// translateArmToX86 is the uncached Arm→x86 pipeline behind the module tier.
func translateArmToX86(ctx context.Context, bin *obj.File, cfg Config, record bool) (*obj.File, *Stats, *diag.Report, []FuncEvent, error) {
	rep := diag.NewReport()
	if bin.Arch != "arm64" {
		return nil, nil, rep, nil, fail(rep, diag.StageDisasm, "",
			fmt.Sprintf("expected an arm64 binary, got %q", bin.Arch), nil)
	}
	stats := &Stats{}
	var m *ir.Module
	gerr := diag.Guard(diag.StageLift, "", func() error {
		var lerr error
		m, lerr = armlifter.Lift(bin)
		return lerr
	})
	if gerr != nil {
		return nil, stats, rep, nil, fail(rep, diag.StageLift, "", "cannot lift arm64 object", gerr)
	}
	stats.LiftedInstrs = m.NumInstrs()
	stats.PtrCastsBefore = refine.CountPtrCasts(m)

	p := &pipeline{ctx: ctx, cfg: cfg, stats: stats, rep: rep, m: m,
		excluded: map[string]bool{}, place: false, workers: par.Workers(cfg.Jobs), record: record}
	p.snapshot()
	if err := p.run(); err != nil {
		return nil, stats, rep, nil, err
	}
	stats.FinalInstrs = m.NumInstrs()
	out, err := compile(m, "x86-64", rep)
	if err != nil {
		return nil, stats, rep, nil, err
	}
	return out, stats, rep, p.events, nil
}

// funcSnap is the sound post-lift state of one function: its body and its
// signature (parameter promotion retypes signatures, so a full-module
// rollback must restore those too).
type funcSnap struct {
	blocks   []*ir.Block
	sig      []ir.Type
	paramTys []ir.Type
}

// pipeline runs the recoverable middle stages (refine, fences, opt) over a
// lifted module. Function-local work fans out over `workers` goroutines;
// everything that must stay ordered (diagnostics, statistics, the excluded
// set) is merged on the calling goroutine in module function order.
type pipeline struct {
	ctx      context.Context
	cfg      Config
	stats    *Stats
	rep      *diag.Report
	m        *ir.Module
	snaps    map[string]*funcSnap
	excluded map[string]bool
	place    bool // place Frm/Fww fences (the strong→weak direction)
	workers  int

	// castBase is the per-function ptrtoint/inttoptr count recorded after
	// refinement — the baseline the later checkpoints enforce (§5 removes
	// casts; nothing downstream may reintroduce them). Only populated under
	// Config.Validate.
	castBase map[string]int
	// shape is the encoded module shape (globals + signatures) captured
	// before the function-parallel suffix, embedded in pass-kind repro
	// bundles. Only populated under Config.Validate with a ReproDir.
	shape []byte
	// localGlobals is the sorted result of the serial
	// fences.ThreadLocalGlobals prepass (localSet is its map form), computed
	// on the refined module before the function-parallel suffix so every
	// worker — and every checkpoint — classifies globals identically. Only
	// populated when weakFences().
	localGlobals []string
	localSet     map[string]bool

	// hookAborted flips when a Config.FuncDone hook returns an error;
	// workers that have not started yet short-circuit, and the stage fails
	// with hookErr (first abort wins) wrapped in ErrHookAborted.
	hookAborted atomic.Bool
	hookOnce    sync.Once
	hookErr     error

	// record asks for every function's FuncEvent, collected in module order
	// into events, so the module tier can replay them on a hit.
	record bool
	events []FuncEvent
}

// abortWith records the first hook error and flips the abort flag.
func (p *pipeline) abortWith(err error) {
	p.hookOnce.Do(func() { p.hookErr = err })
	p.hookAborted.Store(true)
}

func (p *pipeline) snapshot() {
	p.snaps = map[string]*funcSnap{}
	for _, f := range p.m.Funcs {
		if f.External || len(f.Blocks) == 0 {
			continue
		}
		s := &funcSnap{blocks: f.CloneBody()}
		s.sig = append([]ir.Type(nil), f.Sig.Params...)
		for _, pr := range f.Params {
			s.paramTys = append(s.paramTys, pr.Ty)
		}
		p.snaps[f.Name] = s
	}
}

// bodies returns the defined, non-excluded functions in module order: the
// work list for a function-parallel stage.
func (p *pipeline) bodies() []*ir.Func {
	var fs []*ir.Func
	for _, f := range p.m.Funcs {
		if f.External || len(f.Blocks) == 0 || p.excluded[f.Name] {
			continue
		}
		fs = append(fs, f)
	}
	return fs
}

// degrade restores fn to its lifted snapshot and records the fallback. The
// conservative fences themselves are placed by the fence stage (or
// immediately, when the failure happens after it).
func (p *pipeline) degrade(f *ir.Func, stage diag.Stage, cause error) {
	if s := p.snaps[f.Name]; s != nil {
		f.RestoreBody(s.blocks)
	}
	p.excluded[f.Name] = true
	p.rep.Degrade(f.Name, stage, cause)
}

func (p *pipeline) run() error {
	if p.cfg.OptPasses != nil {
		for _, n := range p.cfg.OptPasses {
			if _, ok := opt.Registry[n]; !ok {
				return fail(p.rep, diag.StageOpt, "",
					fmt.Sprintf("Config.OptPasses names %q, which is not a registered function-local pass", n), nil)
			}
		}
	}
	if err := p.checkCtx("refine"); err != nil {
		return err
	}
	if p.cfg.Refine {
		p.refineStage()
	}
	p.stats.PtrCastsAfter = refine.CountPtrCasts(p.m)
	if p.cfg.Validate {
		// The post-refinement checkpoint doubles as the baseline recorder:
		// later checkpoints assert the per-function cast count never grows
		// past what refinement left behind.
		p.castBase = map[string]int{}
		for _, f := range p.bodies() {
			p.castBase[f.Name] = validate.CountPtrCastsFunc(f)
		}
		if p.cfg.ReproDir != "" {
			p.shape = cache.EncodeModuleShape(p.m)
		}
	}
	if err := p.checkCtx("fences"); err != nil {
		return err
	}
	if p.weakFences() {
		// Serial module-level prepass: which globals can only the main
		// thread reach? Runs before the fan-out so the classification — and
		// with it the cache fingerprint — is identical for every worker
		// count.
		p.localGlobals = fences.ThreadLocalGlobals(p.m)
		p.localSet = fences.LocalGlobalSet(p.localGlobals)
	}
	if err := p.fenceOptStage(); err != nil {
		return err
	}
	p.stats.FencesFinal = fences.Count(p.m)
	p.stats.AcquireLoads, p.stats.ReleaseStores = fences.CountOrdered(p.m)
	if p.cfg.VerifyIR || p.cfg.Validate {
		gerr := diag.Guard(diag.StageVerify, "", func() error { return ir.Verify(p.m) })
		if gerr != nil {
			return fail(p.rep, diag.StageVerify, "", "final module fails verification", gerr)
		}
	}
	return nil
}

// checkOpts is the semantic-invariant configuration for fn's checkpoints
// once fences exist: coverage is checked in the strong→weak direction, and
// the cast bound applies when a baseline was recorded for fn.
func (p *pipeline) checkOpts(fn string) validate.Opts {
	o := validate.Opts{FencesPlaced: p.place, MaxPtrCasts: -1}
	if base, ok := p.castBase[fn]; ok {
		o.MaxPtrCasts = base
	}
	if p.weakFences() {
		o.UseEscape = true
		o.LocalGlobals = p.localGlobals
	}
	return o
}

// passBundle builds the pass-kind repro bundle for a checkpoint failure
// attributed to one opt pass: the module shape, the exact pre-pass body and
// the checkpoint options — everything validate.ReplayPass needs to
// reproduce the failure standalone. When the delta debugger can shrink the
// pre-pass body while the same pass still trips the same checkpoint, the
// minimized body rides along as Reduced.
func (p *pipeline) passBundle(fn, pass, failure string, preBody []byte) *validate.Bundle {
	opts := p.checkOpts(fn)
	b := &validate.Bundle{
		Kind:        validate.KindPass,
		Fingerprint: PipelineVersion + ";" + p.fingerprint(),
		Failure:     failure,
		Func:        fn,
		Pass:        pass,
		Opts:        opts,
		Shape:       p.shape,
		PreBody:     preBody,
	}
	// Replaying the failure on a scratch module keeps the reducer away from
	// the live (about to be rolled back) function, and records the post-pass
	// verifier violations for the bundle.
	m, err := cache.DecodeModuleShape(b.Shape)
	if err != nil {
		return b
	}
	scratch := m.Func(fn)
	if scratch == nil {
		return b
	}
	blocks, err := cache.DecodeBody(scratch, preBody)
	if err != nil {
		return b
	}
	scratch.External = false
	scratch.RestoreBody(blocks)
	// Record the post-pass verifier violations (all of them, not just the
	// first), then restore the pre-pass body for the reducer.
	save := scratch.CloneBody()
	if _, aerr := opt.ApplyPass(scratch, pass); aerr == nil {
		for _, v := range ir.VerifyAllFunc(scratch) {
			b.Violations = append(b.Violations, v.Error())
		}
	}
	scratch.RestoreBody(save)
	keep := func(f *ir.Func) bool {
		ksave := f.CloneBody()
		defer f.RestoreBody(ksave)
		if _, aerr := opt.ApplyPass(f, pass); aerr != nil {
			return false
		}
		return validate.CheckFunc(f, opts) != nil
	}
	if validate.ReduceFunc(scratch, keep) > 0 {
		b.Reduced = cache.EncodeBody(scratch)
	}
	return b
}

// checkCtx aborts the whole translation when the caller's context expired;
// the partial error wraps diag.ErrBudgetExceeded.
func (p *pipeline) checkCtx(before string) error {
	if err := p.ctx.Err(); err != nil {
		return fail(p.rep, diag.StageOpt, "",
			fmt.Sprintf("translation interrupted before %s stage", before),
			fmt.Errorf("%w: %v", diag.ErrBudgetExceeded, err))
	}
	return nil
}

// refineStage replicates refine.Run's fixpoint — peephole + dead-cast
// cleanup, then parameter promotion — with per-function recovery for the
// peephole and a full-module rollback for promotion (promotion rewrites
// signatures and call sites across the module, so a mid-flight failure
// cannot be contained to one function). The peephole iteration of each
// round is function-local and runs on the worker pool; promotion stays
// serial.
func (p *pipeline) refineStage() {
	type peepOut struct {
		rewrites int
		gerr     error
	}
	for {
		n := 0
		fs := p.bodies()
		outs := par.Collect(len(fs), p.workers, func(i int) peepOut {
			f := fs[i]
			var o peepOut
			o.gerr = p.guardWithBudget(diag.StageRefine, f.Name, func(fctx context.Context) error {
				if err := inject.HitContext(fctx, "refine:"+f.Name); err != nil {
					return err
				}
				o.rewrites = refine.PeepholeFunc(f)
				refine.CleanupFunc(f)
				if p.cfg.VerifyIR || p.cfg.Validate {
					if err := ir.VerifyFunc(f); err != nil {
						return err
					}
				}
				return fctx.Err()
			})
			return o
		})
		for i, o := range outs {
			if o.gerr != nil {
				p.degrade(fs[i], diag.StageRefine, o.gerr)
				continue
			}
			n += o.rewrites
		}
		promoted := 0
		gerr := diag.Guard(diag.StageRefine, "", func() error {
			if err := inject.Hit("refine:promote"); err != nil {
				return err
			}
			promoted = refine.PromoteParamsFiltered(p.m, func(f *ir.Func) bool {
				return !p.excluded[f.Name]
			})
			return nil
		})
		if gerr != nil {
			// Promotion died mid-rewrite: signatures and call sites may be
			// inconsistent module-wide. Roll every function back to its
			// lifted snapshot — the whole module degrades to the
			// conservative translation.
			p.rollbackAll(diag.StageRefine, gerr)
			return
		}
		p.stats.PromotedParams += promoted
		n += promoted
		if n == 0 {
			break
		}
		p.stats.RefineRewrites += n
	}
	final := p.bodies()
	par.For(len(final), p.workers, func(i int) {
		refine.CleanupFunc(final[i])
	})
}

func (p *pipeline) rollbackAll(stage diag.Stage, cause error) {
	for _, f := range p.m.Funcs {
		s := p.snaps[f.Name]
		if s == nil {
			continue
		}
		f.RestoreBody(s.blocks)
		copy(f.Sig.Params, s.sig)
		for i, ty := range s.paramTys {
			f.Params[i].Ty = ty
		}
		if !p.excluded[f.Name] {
			p.excluded[f.Name] = true
			p.rep.Degrade(f.Name, stage, cause)
		}
	}
}

// fenceOut is the per-function outcome of the fence+opt suffix, produced on
// a worker and merged serially.
type fenceOut struct {
	placed, merged int
	stage          diag.Stage
	pass           string // culprit opt pass, when a validate checkpoint fired there
	gerr           error
	bundle         *validate.Bundle // repro bundle to write at merge time
	probed         bool             // the cache was consulted
	hit            bool
	key            cache.Key // suffix content address (valid when keyed)
	keyed          bool
	body           []byte // canonical post-suffix body, for FuncDone events
	skipped        bool   // never ran: a FuncDone hook aborted the stage
}

// fenceOptStage runs optimized fence placement, merging and the opt
// pipeline, one function per worker. A failure in any of them rolls the
// function back to its snapshot and re-fences it conservatively — all
// function-local, so recovery happens right on the worker; only the
// bookkeeping (diagnostics, degraded set, statistics) is merged afterwards
// in module order. When a cache is configured the whole suffix is skipped
// for functions whose key hits, and filled for functions that complete
// cleanly.
func (p *pipeline) fenceOptStage() error {
	var fs []*ir.Func
	for _, f := range p.m.Funcs {
		if f.External || len(f.Blocks) == 0 {
			continue
		}
		fs = append(fs, f)
	}
	fp := p.fingerprint()
	popts := fences.Options{SkipStackAccesses: true}
	if p.weakFences() {
		popts.UseEscape = true
		popts.LocalGlobals = p.localSet
	}
	outs := par.Collect(len(fs), p.workers, func(i int) fenceOut {
		f := fs[i]
		if p.hookAborted.Load() {
			// A FuncDone hook already cancelled the translation; the module
			// will be discarded, so skip the remaining work entirely.
			return fenceOut{skipped: true}
		}
		o := p.suffixFunc(f, fp, popts)
		p.emitFuncDone(f, &o)
		return o
	})
	for i, o := range outs {
		f := fs[i]
		if o.skipped {
			continue
		}
		if o.gerr != nil {
			p.excluded[f.Name] = true
			p.rep.DegradePass(f.Name, o.stage, o.pass, o.gerr)
			if o.bundle != nil {
				if path, werr := o.bundle.Write(p.cfg.ReproDir); werr == nil {
					p.rep.Add(diag.Diagnostic{Stage: diag.StageValidate, Func: f.Name,
						Severity: diag.Info, Msg: "repro bundle written to " + path})
				} else {
					p.rep.Add(diag.Diagnostic{Stage: diag.StageValidate, Func: f.Name,
						Severity: diag.Warning, Msg: "cannot write repro bundle", Cause: werr})
				}
			}
		}
		p.stats.FencesPlaced += o.placed
		p.stats.FencesMerged += o.merged
		if p.record {
			p.events = append(p.events, p.funcEvent(f, &o))
		}
		if o.probed {
			if o.hit {
				p.stats.CacheHits++
			} else {
				p.stats.CacheMisses++
			}
		}
	}
	if p.hookAborted.Load() {
		return hookAbort(p.rep, p.hookErr)
	}
	return nil
}

// hookAbort records a FuncDone hook's cancellation and returns the error the
// translation fails with.
func hookAbort(rep *diag.Report, cause error) error {
	return fail(rep, diag.StageServe, "", "translation cancelled by its consumer",
		fmt.Errorf("%w: %v", ErrHookAborted, cause))
}

// emitFuncDone delivers one FuncEvent to the Config.FuncDone hook. It runs
// on the worker that just finished f, so a blocking hook pauses exactly
// that worker — the backpressure path. A hook error aborts the stage.
func (p *pipeline) emitFuncDone(f *ir.Func, o *fenceOut) {
	if p.cfg.FuncDone == nil || p.hookAborted.Load() {
		return
	}
	if o.body == nil {
		o.body = cache.EncodeBody(f)
	}
	if err := p.cfg.FuncDone(p.funcEvent(f, o)); err != nil {
		p.abortWith(err)
	}
}

// funcEvent describes f's suffix outcome o.
func (p *pipeline) funcEvent(f *ir.Func, o *fenceOut) FuncEvent {
	return FuncEvent{
		Func:     f.Name,
		Key:      o.key,
		Keyed:    o.keyed && o.gerr == nil,
		Body:     o.body,
		Placed:   o.placed,
		Merged:   o.merged,
		Degraded: o.gerr != nil || p.excluded[f.Name],
		CacheHit: o.hit,
	}
}

// suffixFunc runs the fence/merge/strengthen/opt suffix for one function —
// cache probe and fill included — and returns its outcome. It is
// function-local: recovery (snapshot rollback + conservative re-fencing)
// happens right here on the worker; only bookkeeping merges later.
func (p *pipeline) suffixFunc(f *ir.Func, fp string, popts fences.Options) fenceOut {
	if p.excluded[f.Name] {
		return fenceOut{placed: p.conservative(f)}
	}

	var key cache.Key
	keyed := false
	if p.cfg.Cache != nil || p.cfg.FuncDone != nil {
		// The key is also the resume token of a streamed translation, so it
		// is computed whenever a FuncDone consumer is listening, cache or no
		// cache.
		key = cache.KeyFor(PipelineVersion, fp, f)
		keyed = true
	}
	var fl *cache.Flight
	if p.cfg.Cache != nil {
		// Single-flight: concurrent misses on the same key (the daemon
		// translating the same module for N clients at once) elect one
		// leader to run the suffix; everyone else waits for its entry
		// and replays it like a hit. A nil flight on a miss means either
		// we lead, or waiting was cut short (context expiry / leader
		// failure) and we compute without publishing.
		e, ok, lead := p.cfg.Cache.GetOrBegin(p.ctx, key)
		fl = lead
		if fl != nil {
			// Released on every exit path; a no-op once Complete ran.
			defer fl.Cancel()
		}
		if ok {
			if blocks, derr := cache.DecodeBody(f, e.Body); derr == nil {
				if !p.cfg.Validate {
					f.RestoreBody(blocks)
					return fenceOut{placed: e.FencesPlaced, merged: e.FencesMerged,
						probed: true, hit: true, key: key, keyed: keyed, body: e.Body}
				}
				// Validation never trusts a memoized body blindly: the
				// decoded body must pass the same checkpoint a fresh run
				// would have. A failing entry (e.g. a poisoned cache file)
				// is discarded and the suffix recomputed from the live
				// body, which is restored first.
				save := f.CloneBody()
				f.RestoreBody(blocks)
				if validate.CheckFunc(f, p.checkOpts(f.Name)) == nil {
					return fenceOut{placed: e.FencesPlaced, merged: e.FencesMerged,
						probed: true, hit: true, key: key, keyed: keyed, body: e.Body}
				}
				f.RestoreBody(save)
			}
			// An undecodable entry (corrupt disk file, mismatched module
			// shape) falls through to recomputation.
		}
	}

	var o fenceOut
	o.key, o.keyed = key, keyed
	o.probed = p.cfg.Cache != nil
	o.stage = diag.StageFences
	o.gerr = p.guardWithBudget(diag.StageFences, f.Name, func(fctx context.Context) error {
		if err := inject.HitContext(fctx, "fences:"+f.Name); err != nil {
			return err
		}
		// One escape-analysis fixpoint serves placement, merging,
		// strengthening and the post-placement checkpoint: the fence
		// passes never change points-to facts. The opt passes do, so
		// their per-pass checkpoints re-derive classifiers below.
		local := popts.Classifier(f)
		if p.place {
			o.placed = fences.PlaceFuncWith(f, local)
		}
		if p.cfg.MergeFences {
			o.merged = fences.MergeFuncWith(f, local)
		}
		if p.weakFences() {
			// After merging, so §7.2's Frm·Fww→Fsc wins where it
			// applies and only single-access fences weaken to
			// acquire/release accesses.
			fences.StrengthenFuncWith(f, local)
		}
		if p.cfg.VerifyIR {
			if err := ir.VerifyFunc(f); err != nil {
				return err
			}
		}
		if p.cfg.Validate {
			// Post-placement checkpoint: the body must be verifier-clean,
			// fence-covered and within its cast baseline before the opt
			// pipeline is allowed to touch it.
			o.stage = diag.StageValidate
			if err := inject.HitContext(fctx, "validate:"+f.Name); err != nil {
				return err
			}
			if err := validate.CheckFuncWith(f, p.checkOpts(f.Name), local); err != nil {
				return err
			}
			o.stage = diag.StageFences
		}
		if err := fctx.Err(); err != nil {
			return err
		}
		if p.cfg.Optimize {
			o.stage = diag.StageOpt
			if err := inject.HitContext(fctx, "opt:"+f.Name); err != nil {
				return err
			}
			names := p.cfg.passes()
			if !p.cfg.Validate {
				if err := opt.RunFuncPipeline(fctx, f, names, p.cfg.VerifyIR); err != nil {
					return err
				}
				return nil
			}
			// Per-pass checkpoints: snapshot the pre-pass body (for repro
			// bundles), run the pass, re-check the semantic invariants. A
			// violation surfaces as *opt.PassError naming the culprit.
			var preBody []byte
			pc := &opt.PassCheck{
				After: func(f *ir.Func, pass string) error {
					return validate.CheckFunc(f, p.checkOpts(f.Name))
				},
			}
			if p.cfg.ReproDir != "" {
				pc.Before = func(f *ir.Func, pass string) {
					preBody = cache.EncodeBody(f)
				}
			}
			if err := opt.RunFuncPipelineWithCheck(fctx, f, names, pc); err != nil {
				var pe *opt.PassError
				if errors.As(err, &pe) {
					o.pass = pe.Pass
					o.stage = diag.StageValidate
					if p.cfg.ReproDir != "" && preBody != nil {
						o.bundle = p.passBundle(f.Name, pe.Pass, err.Error(), preBody)
					}
				}
				return err
			}
		}
		return nil
	})
	if o.gerr != nil {
		// Roll back to the lifted snapshot and re-fence conservatively,
		// both function-local. The report/excluded updates happen at
		// merge time.
		if s := p.snaps[f.Name]; s != nil {
			f.RestoreBody(s.blocks)
		}
		o.placed, o.merged = p.conservative(f), 0
		return o
	}
	if p.cfg.Cache != nil || p.cfg.FuncDone != nil {
		o.body = cache.EncodeBody(f)
	}
	if p.cfg.Cache != nil {
		// Only clean completions are memoized: degraded functions must
		// re-run (and re-diagnose) on every translation. Completing the
		// flight publishes to the cache and to any waiting followers in
		// one step; without a flight (we recomputed past a corrupt or
		// stale entry) a plain Put suffices. The publish is synchronous —
		// disk write included — so a FuncDone event (emitted after this
		// returns) never acknowledges work the cache has not yet seen.
		e := &cache.Entry{
			Body:         o.body,
			FencesPlaced: o.placed,
			FencesMerged: o.merged,
		}
		if fl != nil {
			fl.Complete(e)
		} else {
			p.cfg.Cache.Put(key, e)
		}
	}
	return o
}

// conservative applies the always-sound Fig. 8a full-fence mapping to a
// function sitting at its lifted snapshot: every shared load and store gets
// its fence, stack accesses included, and nothing is merged or optimized.
// It returns the number of fences placed.
func (p *pipeline) conservative(f *ir.Func) int {
	if !p.place {
		return 0 // weak→strong: the lifted body is already conservative
	}
	return fences.PlaceFunc(f, fences.Options{})
}

// guardWithBudget is diag.Guard plus the per-function deadline: the closure
// receives a context that expires after Config.FuncBudget, and a deadline
// error is rewritten to wrap diag.ErrBudgetExceeded.
func (p *pipeline) guardWithBudget(stage diag.Stage, fn string, body func(context.Context) error) error {
	fctx := p.ctx
	cancel := func() {}
	if p.cfg.FuncBudget > 0 {
		fctx, cancel = context.WithTimeout(p.ctx, p.cfg.FuncBudget)
	}
	defer cancel()
	err := diag.Guard(stage, fn, func() error { return body(fctx) })
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w: %v", diag.ErrBudgetExceeded, err)
	}
	return err
}

// fail records an Error diagnostic and returns the matching error, keeping
// the invariant that every failed Translate call carries at least one Error
// in its Report.
func fail(rep *diag.Report, stage diag.Stage, fn, msg string, cause error) error {
	rep.Add(diag.Diagnostic{Stage: stage, Func: fn, Addr: diag.AddrOf(cause),
		Severity: diag.Error, Msg: msg, Cause: cause})
	if cause != nil {
		return fmt.Errorf("lasagne: %s: %w", msg, cause)
	}
	return fmt.Errorf("lasagne: %s", msg)
}
