package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/obj"
)

// translate-cold: the offline lasagne CLI case. Each iteration translates
// every suite kernel x86→Arm with core.Default() (no cache, default Jobs),
// then every kernel's native Arm build Arm→x86.

// translateSetups is how many times set-up (compiling the suite from
// source) is repeated; it is cheap, so many repetitions steady its median.
const translateSetups = 9

func runTranslateCold(ctx context.Context, env *Env) (*Outcome, error) {
	ks, teardown, setupS, err := repeatSetup(translateSetups, func() ([]Kernel, func(), error) {
		ks, err := buildSuite(env.Seed)
		return ks, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	if env.Trace {
		return traceTranslate(ctx, env, ks)
	}

	out := newOutcome()
	var x86Lat, armLat, x86Raw, armRaw Samples
	var allocs []float64
	var firstArm, firstX86 [][]byte
	textBytes, staticFences := 0, 0

	err = measureUntil(ctx, env.Seconds, func() error {
		runtime.GC() // every operation starts from a collected heap
		arms := make([]*obj.File, len(ks))
		var stats []*core.Stats
		var terr error
		raw, d, mb := timed(func() {
			for i, k := range ks {
				var st *core.Stats
				arms[i], st, _, terr = core.TranslateContext(ctx, k.X86, core.Default())
				if terr != nil {
					terr = fmt.Errorf("%s x86→arm: %w", k.Name, terr)
					break
				}
				stats = append(stats, st)
			}
		})
		if terr != nil {
			out.Tally.Fail(FailError, "%v", terr)
		} else {
			x86Lat = append(x86Lat, d)
			x86Raw = append(x86Raw, raw)
			allocs = append(allocs, mb)
			enc := marshalAll(arms)
			if firstArm == nil {
				firstArm = enc
				for i, a := range arms {
					textBytes += len(a.Section(".text").Data)
					staticFences += stats[i].FencesFinal
				}
			}
			out.Tally.Gate(equalAll(enc, firstArm), "x86→arm output differs from the first iteration")
		}

		runtime.GC()
		x86s := make([]*obj.File, len(ks))
		raw, d, _ = timed(func() {
			for i, k := range ks {
				if x86s[i], _, _, terr = core.TranslateArmToX86Context(ctx, k.Arm, core.Default()); terr != nil {
					terr = fmt.Errorf("%s arm→x86: %w", k.Name, terr)
					break
				}
			}
		})
		if terr != nil {
			out.Tally.Fail(FailError, "%v", terr)
			return nil
		}
		armLat = append(armLat, d)
		armRaw = append(armRaw, raw)
		enc := marshalAll(x86s)
		if firstX86 == nil {
			firstX86 = enc
		}
		out.Tally.Gate(equalAll(enc, firstX86), "arm→x86 output differs from the first iteration")
		return nil
	})
	if err != nil {
		return nil, err
	}
	if firstArm != nil {
		validateGate(ctx, &out.Tally, ks, firstArm)
	}

	funcs := 0
	for _, k := range ks {
		funcs += len(k.X86.FuncSymbols()) + len(k.Arm.FuncSymbols())
	}
	busy := x86Lat.Sum() + armLat.Sum()
	out.E2E["setup_s"] = setupS
	out.E2E["latency_ms_p50"] = x86Lat.MedianMs()
	out.E2E["latency2_ms_p50"] = armLat.MedianMs()
	out.E2E["alloc_mb_per_op"] = median(allocs)
	if busy > 0 {
		// Both directions count: functions translated per second of
		// translation time.
		out.E2E["work_per_s"] = float64(funcs) * float64(len(armLat)) / busy.Seconds()
	}
	out.Report["iterations"] = len(x86Lat)
	out.Report["x86_arm_ms_p50"] = x86Lat.MedianMs()
	out.Report["x86_arm_ms_p90"] = x86Lat.TailMs(0.90)
	out.Report["arm_x86_ms_p50"] = armLat.MedianMs()
	out.Report["raw_x86_arm_ms_p50"] = x86Raw.MedianMs()
	out.Report["raw_arm_x86_ms_p50"] = armRaw.MedianMs()
	out.Report["x86_arm_alloc_mb"] = median(allocs)
	out.Report["arm_text_bytes"] = textBytes
	out.Report["static_fences"] = staticFences
	out.Report["setup_s"] = setupS
	return out, nil
}

// validateGate translates every kernel once more with the self-checking
// checkpoints on: the report must carry no diagnostic, and validation being
// observation-only, the bytes must equal the unvalidated output.
func validateGate(ctx context.Context, t *Tally, ks []Kernel, want [][]byte) {
	for i, k := range ks {
		cfg := core.Default()
		cfg.Validate = true
		o, _, rep, err := core.TranslateContext(ctx, k.X86, cfg)
		switch {
		case err != nil:
			t.Fail(FailError, "%s validated translation: %v", k.Name, err)
		case len(rep.Diagnostics()) != 0:
			t.Fail(FailIncorrect, "%s validated translation: %d diagnostics", k.Name, len(rep.Diagnostics()))
		default:
			t.Gate(bytes.Equal(o.Marshal(), want[i]), "%s validated output differs", k.Name)
		}
	}
}

func marshalAll(fs []*obj.File) [][]byte {
	out := make([][]byte, len(fs))
	for i, f := range fs {
		out[i] = f.Marshal()
	}
	return out
}

func equalAll(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// traceTranslate is the traced run: each iteration translates the suite
// untraced with Jobs: 1 (the reference bytes and the overhead baseline),
// then replays the same translations serially through the public stage
// functions with a span around each call. Every replayed object must be
// byte-identical to its reference, or the trace measured a different
// program.
func traceTranslate(ctx context.Context, env *Env, ks []Kernel) (*Outcome, error) {
	out := newOutcome()
	tr := NewTracer()
	out.Tracer = tr
	one := core.Default()
	one.Jobs = 1
	var n counts
	var untraced, traced time.Duration
	iters, textBytes := 0, 0

	err := measureUntil(ctx, env.Seconds, func() error {
		runtime.GC()
		refArm := make([]*obj.File, len(ks))
		refX86 := make([]*obj.File, len(ks))
		start := time.Now()
		for i, k := range ks {
			var err error
			if refArm[i], _, _, err = core.TranslateContext(ctx, k.X86, one); err != nil {
				return fmt.Errorf("%s reference x86→arm: %w", k.Name, err)
			}
			if refX86[i], _, _, err = core.TranslateArmToX86Context(ctx, k.Arm, one); err != nil {
				return fmt.Errorf("%s reference arm→x86: %w", k.Name, err)
			}
		}
		untraced += time.Since(start)

		runtime.GC()
		gotArm := make([]*obj.File, len(ks))
		gotX86 := make([]*obj.File, len(ks))
		var errs []error
		start = time.Now()
		for i, k := range ks {
			var err error
			if gotArm[i], err = replayX86ToArm(tr, k.X86, nil, &n); err != nil {
				errs = append(errs, fmt.Errorf("%s replay x86→arm: %w", k.Name, err))
			}
			if gotX86[i], err = replayArmToX86(tr, k.Arm); err != nil {
				errs = append(errs, fmt.Errorf("%s replay arm→x86: %w", k.Name, err))
			}
		}
		traced += time.Since(start)
		iters++
		for _, err := range errs {
			out.Tally.Fail(FailError, "%v", err)
		}
		if len(errs) > 0 {
			return nil
		}
		for i, k := range ks {
			out.Tally.Gate(bytes.Equal(gotArm[i].Marshal(), refArm[i].Marshal()),
				"trace fidelity: %s x86→arm replay differs from core.TranslateContext (Jobs: 1)", k.Name)
			out.Tally.Gate(bytes.Equal(gotX86[i].Marshal(), refX86[i].Marshal()),
				"trace fidelity: %s arm→x86 replay differs from core.TranslateArmToX86Context (Jobs: 1)", k.Name)
			if iters == 1 {
				textBytes += len(gotArm[i].Section(".text").Data)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	attributed := addLayerTimes(out.Layers, tr.Layers(), iters)
	addCounts(out.Layers, n, iters)
	out.Layers["translate.arm_text_bytes"] = float64(textBytes)
	coverage := addTraceCoverage(out.Layers, traced, attributed, iters)
	out.Layers["trace.overhead"] = float64(traced) / float64(untraced)
	out.Tally.Gate(coverage >= 0.9, "layer self times cover %.1f%% of the traced wall time (< 90%%)", 100*coverage)
	out.Report["iterations"] = iters
	out.Report["traced_ms_per_iteration"] = ms(traced) / float64(iters)
	out.Report["untraced_jobs1_ms_per_iteration"] = ms(untraced) / float64(iters)
	return out, nil
}
