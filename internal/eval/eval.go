// Package eval implements the paper's evaluation pipeline (§9): it builds
// the five variants of each Phoenix kernel —
//
//	Native — minic → IR → O2 → Arm64
//	Lifted — minic → IR → O2 → x86-64 bytes → lift → fence placement → Arm64
//	Opt    — Lifted + IR re-optimization
//	POpt   — Opt + fence merging
//	PPOpt  — POpt + IR refinement before fence placement (full Lasagne)
//
// and measures the metrics behind Table 1 and Figures 12–17: simulated
// cycles, static fence counts, pointer-cast counts and IR code size.
package eval

import (
	"context"
	"fmt"

	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/par"
	"lasagne/internal/phoenix"
	"lasagne/internal/refine"
)

// TranslationCache, when non-nil, memoizes the function-local pipeline
// suffix across every translation BuildAll performs (all benchmarks, all
// variants). Drivers set it from -cache-dir; nil leaves caching off.
var TranslationCache *cache.Cache

// Variant identifies one build configuration of §9.1.
type Variant int

const (
	Native Variant = iota
	Lifted
	Opt
	POpt
	PPOpt
	NumVariants
)

var variantNames = [NumVariants]string{"Native", "Lifted", "Opt", "POpt", "PPOpt"}

func (v Variant) String() string { return variantNames[v] }

// Build is one compiled variant plus its static metrics.
type Build struct {
	Variant  Variant
	Module   *ir.Module
	Obj      *obj.File
	Fences   int // static fences after placement (+merging)
	IRInstrs int // code size after all IR processing
}

// Result holds everything measured for one benchmark.
type Result struct {
	Bench    phoenix.Benchmark
	Builds   [NumVariants]*Build
	Cycles   [NumVariants]int64
	Output   [NumVariants]string
	XBinary  *obj.File
	CastsRaw int // pointer casts in the raw lifted module
	CastsRef int // pointer casts after refinement

	// liftedBase is the pristine lifted module, before any fence placement
	// or optimization. BuildAll lifts XBinary exactly once; every consumer
	// (the four lifted variants, FenceOnlyCycles, PassIsolation) works on a
	// deep copy of this module instead of re-lifting.
	liftedBase *ir.Module
}

// lifted returns a fresh mutable copy of the benchmark's raw lifted module,
// falling back to lifting XBinary for Results not built via BuildAll.
func (r *Result) lifted() (*ir.Module, error) {
	if r.liftedBase != nil {
		return r.liftedBase.Clone(), nil
	}
	return lifter.Lift(r.XBinary)
}

// placement is the fence placement used by every variant (it is part of
// correctness, §8 step 1).
var placement = fences.Options{SkipStackAccesses: true}

// compileSource builds a fresh optimized IR module from minic source.
func compileSource(b phoenix.Benchmark) (*ir.Module, error) {
	m, err := minic.Compile(b.Name, b.Source)
	if err != nil {
		return nil, err
	}
	if err := opt.Optimize(m); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildAll produces all five variants of a benchmark.
//
// The pipeline prefix shared by every variant runs once: the source is
// compiled a single time (the x86 input binary starts from a deep copy of
// the native module) and the x86 binary is lifted a single time. Each
// variant then applies its pass recipe to its own ir.Module copy, and the
// five builds run concurrently on up to Parallelism workers.
func BuildAll(b phoenix.Benchmark) (*Result, error) {
	res := &Result{Bench: b}

	// Shared prefix: one compile, one x86 codegen, one lift.
	nat, err := compileSource(b)
	if err != nil {
		return nil, fmt.Errorf("%s native: %w", b.Name, err)
	}
	xbin, err := backend.Compile(nat.Clone(), "x86-64")
	if err != nil {
		return nil, fmt.Errorf("%s x86: %w", b.Name, err)
	}
	res.XBinary = xbin
	base, err := lifter.Lift(xbin)
	if err != nil {
		return nil, fmt.Errorf("%s lift: %w", b.Name, err)
	}
	res.liftedBase = base
	res.CastsRaw = refine.CountPtrCasts(base)

	// The five builds are independent given nat/xbin; each writes only its
	// own Builds slot (plus CastsRef, owned by the PPOpt job). The four
	// lifted variants run the core translation pipeline with their variant's
	// Config, so they share the function-parallel workers and, when
	// TranslationCache is set, warm cache entries across repeated sweeps.
	jobs := [NumVariants]func() error{
		Native: func() error {
			natObj, err := backend.Compile(nat, "arm64")
			if err != nil {
				return fmt.Errorf("%s native arm64: %w", b.Name, err)
			}
			res.Builds[Native] = &Build{Variant: Native, Module: nat, Obj: natObj, IRInstrs: nat.NumInstrs()}
			return nil
		},
		Lifted: res.liftedVariant(b, xbin, Lifted),
		Opt:    res.liftedVariant(b, xbin, Opt),
		POpt:   res.liftedVariant(b, xbin, POpt),
		PPOpt:  res.liftedVariant(b, xbin, PPOpt),
	}
	if err := par.FirstErr(len(jobs), Parallelism, func(i int) error { return jobs[i]() }); err != nil {
		return nil, err
	}
	return res, nil
}

// VariantConfig returns the core pipeline configuration reproducing variant
// v of §9.1: Lifted is the bare translation, Opt re-optimizes, POpt merges
// fences, PPOpt adds refinement (the full Lasagne Default).
func VariantConfig(v Variant) core.Config {
	cfg := core.Config{Jobs: Parallelism, Cache: TranslationCache}
	switch v {
	case Opt:
		cfg.Optimize = true
	case POpt:
		cfg.Optimize, cfg.MergeFences = true, true
	case PPOpt:
		cfg.Refine, cfg.MergeFences, cfg.Optimize = true, true, true
	}
	return cfg
}

// liftedVariant builds one x86→Arm64 variant through the core pipeline.
func (r *Result) liftedVariant(b phoenix.Benchmark, xbin *obj.File, v Variant) func() error {
	return func() error {
		m, st, _, err := core.TranslateToIR(xbin, VariantConfig(v))
		if err != nil {
			return fmt.Errorf("%s %s: %w", b.Name, v, err)
		}
		bl := &Build{Variant: v, Module: m, Fences: st.FencesFinal, IRInstrs: m.NumInstrs()}
		if v == PPOpt {
			r.CastsRef = st.PtrCastsAfter
		}
		if bl.Obj, err = backend.Compile(m, "arm64"); err != nil {
			return fmt.Errorf("%s %s arm64: %w", b.Name, v, err)
		}
		r.Builds[v] = bl
		return nil
	}
}

// RunVariantContext simulates one build and records cycles and output,
// bounded by ctx and MaxSimSteps: an expired deadline or exhausted step cap
// fails the variant with an error wrapping diag.ErrBudgetExceeded.
func (r *Result) RunVariantContext(ctx context.Context, v Variant) error {
	mach, err := newMachine(r.Builds[v].Obj)
	if err != nil {
		return err
	}
	cycles, err := mach.RunContext(ctx)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", r.Bench.Name, v, err)
	}
	r.Cycles[v] = cycles
	r.Output[v] = mach.Out.String()
	return nil
}

// RunAllContext simulates every variant, each simulation bounded by ctx,
// and verifies they all produce the Native output. Variants run
// concurrently: each simulation owns a private Machine and writes only its
// own Cycles/Output slots.
func (r *Result) RunAllContext(ctx context.Context) error {
	if err := par.FirstErr(int(NumVariants), Parallelism, func(i int) error {
		return r.RunVariantContext(ctx, Variant(i))
	}); err != nil {
		return err
	}
	for v := Lifted; v < NumVariants; v++ {
		if r.Output[v] != r.Output[Native] {
			return fmt.Errorf("%s/%s output %q differs from native %q",
				r.Bench.Name, v, r.Output[v], r.Output[Native])
		}
	}
	return nil
}

// FenceOnlyCycles measures Fig. 15: the runtime of the *unoptimized* lifted
// code with (a) naive fences, (b) merged fences, (c) refinement-informed
// placement — isolating the effect of fence reduction from the other
// optimizations.
func FenceOnlyCycles(r *Result) (naive, merged, refined int64, err error) {
	run := func(m *ir.Module) (int64, error) {
		o, err := backend.Compile(m, "arm64")
		if err != nil {
			return 0, err
		}
		mach, err := newMachine(o)
		if err != nil {
			return 0, err
		}
		return mach.Run()
	}
	recipes := []func(m *ir.Module){
		func(m *ir.Module) { fences.Place(m, placement) },
		func(m *ir.Module) { fences.Place(m, placement); fences.Merge(m, placement) },
		func(m *ir.Module) { refine.Run(m); fences.Place(m, placement); fences.Merge(m, placement) },
	}
	var cycles [3]int64
	if err := par.FirstErr(len(recipes), Parallelism, func(i int) error {
		m, err := r.lifted()
		if err != nil {
			return err
		}
		recipes[i](m)
		cycles[i], err = run(m)
		return err
	}); err != nil {
		return 0, 0, 0, err
	}
	return cycles[0], cycles[1], cycles[2], nil
}

// PassIsolation measures Fig. 17: the code-size reduction of each pass run
// in isolation on the benchmark's refined, fence-placed lifted bitcode. The
// per-pass measurements are independent and run across the worker pool; the
// shared refined prefix is prepared once and cloned per pass.
func PassIsolation(r *Result, passes []string) (map[string]float64, error) {
	pre, err := r.lifted()
	if err != nil {
		return nil, err
	}
	refine.Run(pre)
	fences.Place(pre, placement)
	fences.Merge(pre, placement)
	before := pre.NumInstrs()

	red := make([]float64, len(passes))
	if err := par.FirstErr(len(passes), Parallelism, func(i int) error {
		m := pre.Clone()
		if _, err := opt.Run(m, passes[i]); err != nil {
			return err
		}
		red[i] = 100 * float64(before-m.NumInstrs()) / float64(before)
		return nil
	}); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, p := range passes {
		out[p] = red[i]
	}
	return out, nil
}

// Fig17Passes is the pass list of Fig. 17.
var Fig17Passes = []string{
	"instcombine", "dce", "adce", "licm", "reassociate", "gvn",
	"mem2reg", "sroa", "sccp", "ipsccp", "dse",
}

// GeoMean computes the geometric mean of positive values.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vals {
		prod *= v
	}
	if prod <= 0 {
		return 0
	}
	return mathPow(prod, 1/float64(len(vals)))
}
