// Benchmarks regenerating each table/figure of the paper's evaluation
// (§9). Each benchmark runs the full machinery behind its figure on the
// histogram kernel (the suite's cheapest member); `cmd/lasagne-bench -all`
// prints the complete multi-kernel rows the paper reports.
package lasagne

import (
	"context"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/eval"
	"lasagne/internal/fences"
	"lasagne/internal/lifter"
	"lasagne/internal/memmodel"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/refine"
	"lasagne/internal/sim"
)

// buildHTBinary compiles the histogram kernel to an x86-64 object once.
func buildHTBinary(b *testing.B) *obj.File {
	b.Helper()
	bench := phoenix.Get("HT")
	m, err := minic.Compile(bench.Name, bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		b.Fatal(err)
	}
	bin, err := backend.Compile(m, "x86-64")
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

// BenchmarkTable1Inventory regenerates the Table 1 rows.
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range phoenix.All() {
			_ = bench.Functions()
			_ = bench.LoC()
		}
	}
}

// BenchmarkFig11aCell model-checks one cell of the reordering table.
func BenchmarkFig11aCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v, _ := memmodel.CheckReorder(memmodel.CatRna, memmodel.CatWna); v != memmodel.Safe {
			b.Fatal("Rna·Wna should be safe")
		}
	}
}

// BenchmarkFig12NativeRuntime measures the Native data point of Fig. 12.
func BenchmarkFig12NativeRuntime(b *testing.B) {
	bench := phoenix.Get("HT")
	m, err := minic.Compile(bench.Name, bench.Source)
	if err != nil {
		b.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		b.Fatal(err)
	}
	o, err := backend.Compile(m, "arm64")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach, err := sim.NewMachine(o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mach.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12TranslatedRuntime measures the PPOpt data point of Fig. 12
// (full translation included).
func BenchmarkFig12TranslatedRuntime(b *testing.B) {
	bin := buildHTBinary(b)
	armObj, _, _, err := core.Translate(bin, core.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach, err := sim.NewMachine(armObj)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mach.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPhoenix times the two interpreter engines over the whole
// Phoenix suite: one iteration simulates every kernel's x86-64 input
// binary and its Lasagne Arm64 translation end to end. Compare the
// reference and threaded sub-benchmarks for the engine speedup
// (`make bench-sim` renders the per-kernel split into BENCH_sim.json).
func BenchmarkSimPhoenix(b *testing.B) {
	var bins []*obj.File
	for _, bench := range phoenix.All() {
		m, err := minic.Compile(bench.Name, bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.Optimize(m); err != nil {
			b.Fatal(err)
		}
		xbin, err := backend.Compile(m, "x86-64")
		if err != nil {
			b.Fatal(err)
		}
		abin, _, _, err := core.Translate(xbin, core.Default())
		if err != nil {
			b.Fatal(err)
		}
		bins = append(bins, xbin, abin)
	}
	for _, eng := range sim.Engines {
		eng := eng
		b.Run(eng.String(), func(b *testing.B) {
			var instrs int64
			for i := 0; i < b.N; i++ {
				instrs = 0
				for _, bin := range bins {
					mach, err := sim.NewMachine(bin)
					if err != nil {
						b.Fatal(err)
					}
					mach.Engine = eng
					if _, err := mach.Run(); err != nil {
						b.Fatal(err)
					}
					instrs += mach.InstrCount()
				}
			}
			b.ReportMetric(float64(instrs)/float64(b.Elapsed().Seconds())*float64(b.N)/1e6, "Minstr/s")
		})
	}
}

// BenchmarkFig13Refinement measures the lift+refine pipeline behind the
// pointer-cast reduction figure.
func BenchmarkFig13Refinement(b *testing.B) {
	bin := buildHTBinary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := lifter.Lift(bin)
		if err != nil {
			b.Fatal(err)
		}
		before := refine.CountPtrCasts(m)
		refine.Run(m)
		after := refine.CountPtrCasts(m)
		if after >= before {
			b.Fatal("refinement did not reduce casts")
		}
	}
}

// BenchmarkFig14FencePlacement measures fence placement + merging.
func BenchmarkFig14FencePlacement(b *testing.B) {
	bin := buildHTBinary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := lifter.Lift(bin)
		if err != nil {
			b.Fatal(err)
		}
		refine.Run(m)
		placed := fences.Place(m, fences.Options{SkipStackAccesses: true})
		fences.Merge(m, fences.Options{SkipStackAccesses: true})
		if placed == 0 {
			b.Fatal("no fences placed")
		}
	}
}

// BenchmarkFig15FenceOnlyRuntime measures the fence-cost isolation runs.
func BenchmarkFig15FenceOnlyRuntime(b *testing.B) {
	bin := buildHTBinary(b)
	m, err := lifter.Lift(bin)
	if err != nil {
		b.Fatal(err)
	}
	refine.Run(m)
	fences.Place(m, fences.Options{SkipStackAccesses: true})
	fences.Merge(m, fences.Options{SkipStackAccesses: true})
	o, err := backend.Compile(m, "arm64")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach, err := sim.NewMachine(o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mach.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16CodeSize measures the code-size metric computation across
// pipeline configurations.
func BenchmarkFig16CodeSize(b *testing.B) {
	bin := buildHTBinary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range []core.Config{{}, {Optimize: true}, core.Default()} {
			m, _, _, err := core.TranslateToIR(bin, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if m.NumInstrs() == 0 {
				b.Fatal("empty module")
			}
		}
	}
}

// BenchmarkFig17PassIsolation measures one isolated-pass data point.
func BenchmarkFig17PassIsolation(b *testing.B) {
	bin := buildHTBinary(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := lifter.Lift(bin)
		if err != nil {
			b.Fatal(err)
		}
		refine.Run(m)
		fences.Place(m, fences.Options{SkipStackAccesses: true})
		if _, err := opt.Run(m, "instcombine"); err != nil {
			b.Fatal(err)
		}
	}
}

// buildPhoenixBinaries compiles every Phoenix kernel to an x86-64 object.
func buildPhoenixBinaries(b *testing.B) []*obj.File {
	b.Helper()
	var bins []*obj.File
	for _, bench := range phoenix.All() {
		m, err := minic.Compile(bench.Name, bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.Optimize(m); err != nil {
			b.Fatal(err)
		}
		bin, err := backend.Compile(m, "x86-64")
		if err != nil {
			b.Fatal(err)
		}
		bins = append(bins, bin)
	}
	return bins
}

// BenchmarkTranslatePhoenix measures the staged translation pipeline
// (lift -> refine -> fences -> opt, Fig. 3) over the whole Phoenix suite.
// "cold" starts every iteration with an empty translation cache, so each
// function runs the full per-function suffix and pays the cache Put; "warm"
// pre-populates the cache once, so every function replays its memoized body
// — the difference is the cost the suffix tier removes from an unchanged
// rebuild. Both stop at the IR. "warm-object" is the end-to-end
// object-to-object translation against a warm cache: every module replays
// from the module tier without lifting.
func BenchmarkTranslatePhoenix(b *testing.B) {
	bins := buildPhoenixBinaries(b)
	translateAll := func(b *testing.B, c *cache.Cache) {
		b.Helper()
		for _, bin := range bins {
			cfg := core.Default()
			cfg.Cache = c
			m, _, rep, err := core.TranslateToIR(bin, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Len() != 0 {
				b.Fatalf("diagnostics:\n%s", rep)
			}
			if m.NumInstrs() == 0 {
				b.Fatal("empty module")
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			translateAll(b, cache.New(0))
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		c := cache.New(0)
		translateAll(b, c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			translateAll(b, c)
		}
	})
	b.Run("warm-object", func(b *testing.B) {
		b.ReportAllocs()
		cfg := core.Default()
		cfg.Cache = cache.New(0)
		translate := func() (misses int) {
			for _, bin := range bins {
				_, st, rep, err := core.Translate(bin, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Len() != 0 {
					b.Fatalf("diagnostics:\n%s", rep)
				}
				misses += st.CacheMisses
			}
			return misses
		}
		translate()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if translate() != 0 {
				b.Fatal("warm translation missed the cache")
			}
		}
	})
}

// BenchmarkEvalSuiteMetrics regenerates all static metrics (no simulation)
// for one kernel — the build half of Figs. 12-16.
func BenchmarkEvalSuiteMetrics(b *testing.B) {
	bench := phoenix.Get("HT")
	for i := 0; i < b.N; i++ {
		if _, err := eval.BuildAll(*bench); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutionsEnumeration measures the streaming candidate-execution
// enumerator on the SB+RMW shape — the inner loop of every bounded
// model-checking result (Fig. 11, Thm 7.1). The visitor reuses one scratch
// Execution, so steady-state allocation stays flat regardless of how many
// candidates the program has.
func BenchmarkExecutionsEnumeration(b *testing.B) {
	p := &memmodel.Program{Name: "bench", Threads: [][]memmodel.Op{
		{memmodel.St("X", 1), memmodel.RMW("Y", 2), memmodel.Ld("Y")},
		{memmodel.St("Y", 1), memmodel.RMW("X", 2), memmodel.Ld("X")},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		memmodel.VisitExecutions(p, func(x *memmodel.Execution) { n++ })
		if n == 0 {
			b.Fatal("no executions enumerated")
		}
	}
}

// BenchmarkEvalPipelineParallel measures the full build+simulate pipeline
// for one kernel with the worker pool enabled (GOMAXPROCS workers), i.e.
// one kernel row of Figs. 12-16 end to end.
func BenchmarkEvalPipelineParallel(b *testing.B) {
	bench := phoenix.Get("HT")
	for i := 0; i < b.N; i++ {
		r, err := eval.BuildAll(*bench)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.RunAllContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateSuite is the cold object-to-object translation of the
// six suite kernels (the five Phoenix kernels plus the lock-free
// spsc_ring) with core.Default() and no cache: x86-arm translates each
// kernel's x86-64 build to Arm64, arm-x86 each native Arm64 build to x86-64.
// It is the path the translate-cold workload of perfbench times.
func BenchmarkTranslateSuite(b *testing.B) {
	var x86s, arms []*obj.File
	var suite []phoenix.Benchmark
	suite = append(suite, phoenix.All()...)
	suite = append(suite, phoenix.LockFree()...)
	for _, bench := range suite {
		m, err := minic.Compile(bench.Name, bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.Optimize(m); err != nil {
			b.Fatal(err)
		}
		x, err := backend.Compile(m.Clone(), "x86-64")
		if err != nil {
			b.Fatal(err)
		}
		a, err := backend.Compile(m, "arm64")
		if err != nil {
			b.Fatal(err)
		}
		x86s, arms = append(x86s, x), append(arms, a)
	}
	ctx := context.Background()
	b.Run("x86-arm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bin := range x86s {
				if _, _, _, err := core.TranslateContext(ctx, bin, core.Default()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("arm-x86", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bin := range arms {
				if _, _, _, err := core.TranslateArmToX86Context(ctx, bin, core.Default()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
