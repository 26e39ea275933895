// lasagne is the end-to-end static binary translator: it lifts an x86-64
// object produced by minicc, refines the IR, places and merges the LIMM
// fences, re-optimizes, and emits an Arm64 object.
//
// Usage:
//
//	lasagne [-refine=false] [-merge=false] [-weak-fences=false] [-opt=false] [-emit-ir]
//	        [-run] [-stats] [-func-budget 1s] [-allow-partial]
//	        [-jobs N] [-cache-dir DIR] [-validate] [-diff-seeds N]
//	        [-seed S] [-repro-dir DIR] [-sim-engine E] [-o out.obj] prog.x86.obj
//	lasagne -replay bundle.json
package main

import (
	"flag"
	"fmt"
	"os"

	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/diag"
	"lasagne/internal/obj"
	"lasagne/internal/sim"
	"lasagne/internal/validate"
)

func main() {
	refineF := flag.Bool("refine", true, "run IR refinement (§5)")
	merge := flag.Bool("merge", true, "merge fences (§7.2)")
	weak := flag.Bool("weak-fences", true,
		"lower fences below DMB where provably sound: escape-analysis elision of thread-private accesses, acquire/release (LDAR/STLR) strengthening of single-access fences (-weak-fences=false keeps the pure §8 DMB lowering for ablation)")
	optimize := flag.Bool("opt", true, "re-optimize the lifted IR")
	emitIR := flag.Bool("emit-ir", false, "print the final IR instead of compiling")
	run := flag.Bool("run", false, "simulate the translated Arm64 binary")
	stats := flag.Bool("stats", false, "print pipeline statistics")
	reverse := flag.Bool("reverse", false, "translate arm64 -> x86-64 (Appendix B direction)")
	funcBudget := flag.Duration("func-budget", 0,
		"per-function time budget for refine/fences/opt; on expiry the function degrades to conservative fences (0 = unbounded)")
	allowPartial := flag.Bool("allow-partial", false,
		"keep translating when a function cannot be lifted, in either direction (it is dropped or becomes a flagged stub)")
	jobs := flag.Int("jobs", 0,
		"worker count for the function-parallel pipeline stages (0 = one per CPU; output is byte-identical for any value)")
	cacheDir := flag.String("cache-dir", "",
		"persistent translation cache directory; repeated translations of unchanged functions replay memoized results")
	validateF := flag.Bool("validate", false,
		"self-check the translation: stage checkpoints (verifier + fence/cast invariants) during the pipeline, then the differential oracle comparing x86 input and Arm64 output on seeded data; mismatches are bisected to the responsible opt pass")
	diffSeeds := flag.Int("diff-seeds", 32,
		"number of seeded data images the differential oracle must compare (with -validate)")
	seed := flag.Int64("seed", 0,
		"first data seed for the differential oracle; every failure message names the seed that produced it")
	reproDir := flag.String("repro-dir", "",
		"directory for self-contained repro bundles when a checkpoint or the oracle fails (with -validate)")
	replay := flag.String("replay", "",
		"replay a repro bundle JSON written by -repro-dir and report whether it still reproduces")
	simEngine := flag.String("sim-engine", "threaded",
		"interpreter engine for -run and the -validate oracle: threaded (fused superblocks) or reference (one compiled instruction per scheduler step); the two are observationally identical")
	out := flag.String("o", "", "output object file")
	flag.Parse()

	eng, err := sim.ParseEngine(*simEngine)
	if err != nil {
		fatal(err)
	}
	sim.Engine = eng

	if *replay != "" {
		replayBundle(*replay)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lasagne [flags] prog.x86.obj")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	bin, err := obj.Unmarshal(data)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{Refine: *refineF, MergeFences: *merge, WeakFences: *weak,
		Optimize:   *optimize,
		FuncBudget: *funcBudget, AllowPartial: *allowPartial, Jobs: *jobs,
		Validate: *validateF, ReproDir: *reproDir}
	if *cacheDir != "" {
		c, err := cache.Open(*cacheDir, 0)
		if err != nil {
			fatal(err)
		}
		cfg.Cache = c
	}

	if *reverse {
		x86Obj, st, rep, err := core.TranslateArmToX86(bin, cfg)
		printReport(rep)
		if err != nil {
			fatal(err)
		}
		printStats(*stats, st)
		if *run {
			mach, err := sim.NewMachine(x86Obj)
			if err != nil {
				fatal(err)
			}
			cycles, err := mach.Run()
			if err != nil {
				fatal(err)
			}
			fmt.Print(mach.Out.String())
			fmt.Fprintf(os.Stderr, "[x86-64: %d cycles]\n", cycles)
		}
		if *out != "" {
			if err := os.WriteFile(*out, x86Obj.Marshal(), 0o644); err != nil {
				fatal(err)
			}
		}
		return
	}

	if *emitIR {
		m, st, rep, err := core.TranslateToIR(bin, cfg)
		printReport(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Print(m.String())
		printStats(*stats, st)
		return
	}
	var (
		armObj *obj.File
		st     *core.Stats
		rep    *diag.Report
	)
	if *validateF {
		var res *validate.DiffResult
		armObj, st, rep, res, err = core.SelfCheckTranslate(bin, cfg,
			validate.DiffOptions{Seeds: *diffSeeds, StartSeed: *seed})
		printReport(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[validate: %d seeds compared, %d skipped, all matched]\n",
			res.Compared, res.Skipped)
	} else {
		armObj, st, rep, err = core.Translate(bin, cfg)
		printReport(rep)
		if err != nil {
			fatal(err)
		}
	}
	printStats(*stats, st)
	if *run {
		mach, err := sim.NewMachine(armObj)
		if err != nil {
			fatal(err)
		}
		cycles, err := mach.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Print(mach.Out.String())
		fmt.Fprintf(os.Stderr, "[arm64: %d cycles]\n", cycles)
	}
	if *out != "" {
		if err := os.WriteFile(*out, armObj.Marshal(), 0o644); err != nil {
			fatal(err)
		}
	}
}

// printReport surfaces pipeline diagnostics — degraded functions, stubs,
// budget expiries — on stderr.
func printReport(rep *diag.Report) {
	if rep.Len() == 0 {
		return
	}
	fmt.Fprint(os.Stderr, rep.String())
}

func printStats(show bool, st *core.Stats) {
	if !show {
		return
	}
	fmt.Fprintf(os.Stderr, "lifted IR instructions:   %d\n", st.LiftedInstrs)
	fmt.Fprintf(os.Stderr, "final IR instructions:    %d\n", st.FinalInstrs)
	fmt.Fprintf(os.Stderr, "pointer casts:            %d -> %d\n", st.PtrCastsBefore, st.PtrCastsAfter)
	fmt.Fprintf(os.Stderr, "fences placed/merged:     %d / %d (final %d)\n",
		st.FencesPlaced, st.FencesMerged, st.FencesFinal)
	fmt.Fprintf(os.Stderr, "acquire/release accesses: %d / %d\n",
		st.AcquireLoads, st.ReleaseStores)
	fmt.Fprintf(os.Stderr, "refinement rewrites:      %d\n", st.RefineRewrites)
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(os.Stderr, "translation cache:        %d hits / %d misses\n",
			st.CacheHits, st.CacheMisses)
	}
}

// replayBundle replays a repro bundle and exits 0 when it no longer
// reproduces (the bug is fixed), 1 when it still does.
func replayBundle(path string) {
	b, err := validate.Load(path)
	if err != nil {
		fatal(err)
	}
	failure, err := core.ReplayBundle(b)
	if err != nil {
		fatal(err)
	}
	if failure != nil {
		fmt.Fprintf(os.Stderr, "lasagne: bundle still reproduces: %v\n", failure)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "lasagne: bundle no longer reproduces")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lasagne:", err)
	os.Exit(1)
}
