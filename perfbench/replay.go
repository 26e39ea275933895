package main

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"lasagne/internal/armlifter"
	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/refine"
)

// The serial replay of core's pipeline. It calls the same public stage
// functions core.TranslateContext calls, in core's order, with
// core.Default()'s configuration and one worker — so its output must be
// byte-identical to core.TranslateContext with Jobs: 1 (the trace-fidelity
// gate checks this) — and opens one span around each call. Core's
// fault-tolerance wrappers (recover guards, budgets, snapshots for
// rollback) are the only work it leaves out besides the snapshot copy,
// which it replays as its own span.

// counts is the work the replay observed, summed over every module it
// translated.
type counts struct {
	Funcs         int // functions lifted
	LiftedInstrs  int // IR instructions out of the lifter
	Rewrites      int // refinement rewrites (peephole + promoted params)
	CastsRemoved  int // ptrtoint/inttoptr removed by refinement
	Placed        int // fences placed
	Merged        int // fences removed by merging
	AcqRel        int // accesses strengthened to acquire/release
	PassesRun     int // opt passes executed
	PassesSkipped int // opt passes the worklist proved no-ops
	FinalInstrs   int // IR instructions handed to the backend
	FencesFinal   int // fences left in the final IR
}

// defined lists the functions with bodies, in module order.
func defined(m *ir.Module) []*ir.Func {
	var fs []*ir.Func
	for _, f := range m.Funcs {
		if !f.External && len(f.Blocks) > 0 {
			fs = append(fs, f)
		}
	}
	return fs
}

// snapshot replays core's post-lift snapshot: one body copy per function.
func snapshot(tr *Tracer, m *ir.Module) {
	tr.Begin("pipeline.snapshot")
	for _, f := range defined(m) {
		_ = f.CloneBody()
	}
	tr.End()
}

// refineFixpoint is core's refinement stage: peephole + dead-cast cleanup on
// every function, then parameter promotion, until nothing changes; then a
// final cleanup.
func refineFixpoint(tr *Tracer, span string, m *ir.Module, c *counts) {
	tr.Begin(span)
	before := refine.CountPtrCasts(m)
	for {
		n := 0
		for _, f := range defined(m) {
			n += refine.PeepholeFunc(f)
			refine.CleanupFunc(f)
		}
		n += refine.PromoteParamsFiltered(m, nil)
		if n == 0 {
			break
		}
		c.Rewrites += n
	}
	for _, f := range defined(m) {
		refine.CleanupFunc(f)
	}
	c.CastsRemoved += before - refine.CountPtrCasts(m)
	tr.End()
}

// passTimer is the timing-only opt.PassCheck: a span per executed pass.
// Skipped passes trigger neither hook, so the count of After calls is the
// number of passes run.
func passTimer(tr *Tracer, c *counts) *opt.PassCheck {
	return &opt.PassCheck{
		Before: func(f *ir.Func, pass string) { tr.Begin("opt." + pass) },
		After: func(f *ir.Func, pass string) error {
			tr.End()
			c.PassesRun++
			return nil
		},
	}
}

// suffixFingerprint is core's cache fingerprint for core.Default() in the
// x86→Arm direction (Config.fingerprint plus the thread-local globals).
func suffixFingerprint(localGlobals []string) string {
	return "merge=true;opt=true;verify=false;place=true;weak=true;locals=" + strings.Join(localGlobals, ",")
}

// replayX86ToArm translates one x86-64 object to Arm64. With a non-nil
// cache it also replays core's cache probe and fill around the suffix: key,
// get and decode on a hit; encode and put after a miss.
func replayX86ToArm(tr *Tracer, bin *obj.File, c *cache.Cache, n *counts) (*obj.File, error) {
	tr.Begin("x86_arm")
	defer tr.End()

	var ml *lifter.ModuleLifter
	var err error
	tr.Do("lifter", func() { ml, err = liftAll(bin, n) })
	if err != nil {
		return nil, err
	}
	m := ml.Module()
	snapshot(tr, m)
	refineFixpoint(tr, "refine", m, n)

	var locals []string
	var popts fences.Options
	tr.Do("fences.prepass", func() {
		locals = fences.ThreadLocalGlobals(m)
		popts = fences.Options{SkipStackAccesses: true, UseEscape: true,
			LocalGlobals: fences.LocalGlobalSet(locals)}
	})
	fp := suffixFingerprint(locals)
	pc := passTimer(tr, n)
	for _, f := range defined(m) {
		var key cache.Key
		if c != nil {
			tr.Do("cache.key", func() { key = cache.KeyFor(core.PipelineVersion, fp, f) })
			var e *cache.Entry
			var hit bool
			tr.Do("cache.get", func() { e, hit = c.Get(key) })
			if hit {
				var blocks []*ir.Block
				tr.Do("cache.decode", func() { blocks, err = cache.DecodeBody(f, e.Body) })
				if err != nil {
					return nil, fmt.Errorf("%s: decode cached body: %w", f.Name, err)
				}
				f.RestoreBody(blocks)
				n.Placed += e.FencesPlaced
				n.Merged += e.FencesMerged
				continue
			}
		}
		var local func(ir.Value) bool
		placed, merged := 0, 0
		tr.Do("fences.classify", func() { local = popts.Classifier(f) })
		tr.Do("fences.place", func() { placed = fences.PlaceFuncWith(f, local) })
		tr.Do("fences.merge", func() { merged = fences.MergeFuncWith(f, local) })
		tr.Do("fences.strengthen", func() { fences.StrengthenFuncWith(f, local) })
		n.Placed += placed
		n.Merged += merged
		before := n.PassesRun
		if err := opt.RunFuncPipelineWithCheck(context.Background(), f, opt.StandardPipeline, pc); err != nil {
			return nil, err
		}
		n.PassesSkipped += len(opt.StandardPipeline) - (n.PassesRun - before)
		if c != nil {
			var body []byte
			tr.Do("cache.encode", func() { body = cache.EncodeBody(f) })
			tr.Do("cache.put", func() {
				c.Put(key, &cache.Entry{Body: body, FencesPlaced: placed, FencesMerged: merged})
			})
		}
	}
	tr.Do("fences.count", func() {
		n.FencesFinal += fences.Count(m)
		acq, rel := fences.CountOrdered(m)
		n.AcqRel += acq + rel
		n.FinalInstrs += m.NumInstrs()
	})
	var out *obj.File
	tr.Do("backend.arm64", func() { out, err = backend.Compile(m, "arm64") })
	return out, err
}

// liftAll is core's lift stage run serially: disassemble (per-function
// recoverable, as core does), declare every function, then lift and verify
// each body.
func liftAll(bin *obj.File, n *counts) (*lifter.ModuleLifter, error) {
	var bad error
	ml, err := lifter.BeginTolerant(bin, func(sym obj.Symbol, derr error) {
		bad = errors.Join(bad, fmt.Errorf("disassemble %s: %w", sym.Name, derr))
	})
	if err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, bad
	}
	var names []string
	for _, s := range ml.Streams() {
		if err := ml.DeclareFunc(s); err != nil {
			return nil, fmt.Errorf("declare %s: %w", s.Sym.Name, err)
		}
		names = append(names, s.Sym.Name)
	}
	for _, name := range names {
		if err := ml.LiftFunc(name); err != nil {
			return nil, fmt.Errorf("lift %s: %w", name, err)
		}
		if f := ml.Module().Func(name); f != nil {
			if err := ir.VerifyFunc(f); err != nil {
				return nil, fmt.Errorf("verify %s: %w", name, err)
			}
		}
	}
	n.Funcs += len(names)
	n.LiftedInstrs += ml.Module().NumInstrs()
	return ml, nil
}

// replayArmToX86 is core.TranslateArmToX86Context's pipeline, serially: the
// Arm lifter, refinement, fence merging (no placement: the weak→strong
// direction needs none) and the opt pipeline, then the x86-64 backend.
func replayArmToX86(tr *Tracer, bin *obj.File) (*obj.File, error) {
	tr.Begin("arm_x86")
	defer tr.End()

	var m *ir.Module
	var err error
	tr.Do("armlifter", func() { m, err = armlifter.Lift(bin) })
	if err != nil {
		return nil, err
	}
	snapshot(tr, m)
	var n counts
	refineFixpoint(tr, "rev.refine", m, &n)
	popts := fences.Options{SkipStackAccesses: true}
	for _, f := range defined(m) {
		tr.Do("rev.fences", func() { fences.MergeFuncWith(f, popts.Classifier(f)) })
		tr.Do("rev.opt", func() {
			err = opt.RunFuncPipeline(context.Background(), f, opt.StandardPipeline, false)
		})
		if err != nil {
			return nil, err
		}
	}
	var out *obj.File
	tr.Do("backend.x86_64", func() { out, err = backend.Compile(m, "x86-64") })
	return out, err
}
