package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lasagne/internal/diag"
	"lasagne/internal/diag/inject"
	"lasagne/internal/fences"
	"lasagne/internal/obj"
	"lasagne/internal/sim"
)

// cleanFuncIR runs the fault-free PPOpt pipeline and returns every defined
// function's printed IR, the reference for the "untouched functions are
// byte-identical" assertions below.
func cleanFuncIR(t *testing.T, cfg Config) map[string]string {
	t.Helper()
	bin, _ := buildX86(t)
	m, _, rep, err := TranslateToIR(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("clean run produced diagnostics:\n%s", rep)
	}
	out := map[string]string{}
	for _, f := range m.Funcs {
		if f.External || len(f.Blocks) == 0 {
			continue
		}
		out[f.Name] = f.String()
	}
	return out
}

// TestInjectedStageFailuresDegrade forces a failure in each optimizing stage
// of one function and asserts the contract of §7: the affected function is
// re-emitted with the conservative full-fence translation, every other
// function is untouched, and the translated binary still runs correctly.
func TestInjectedStageFailuresDegrade(t *testing.T) {
	// The stall cases' budget: far above what any clean function needs,
	// even under the race detector, so only the stalled function degrades.
	const stallBudget = time.Second
	bin, want := buildX86(t)
	clean := cleanFuncIR(t, Default())
	if _, ok := clean["worker"]; !ok {
		t.Fatal("test binary has no function 'worker'")
	}

	cases := []struct {
		name   string
		point  string
		mode   inject.Mode
		stage  diag.Stage
		budget time.Duration
	}{
		{"refine-fail", "refine:worker", inject.Fail, diag.StageRefine, 0},
		{"refine-panic", "refine:worker", inject.Panic, diag.StageRefine, 0},
		{"refine-stall", "refine:worker", inject.Stall, diag.StageRefine, stallBudget},
		{"fences-fail", "fences:worker", inject.Fail, diag.StageFences, 0},
		{"fences-panic", "fences:worker", inject.Panic, diag.StageFences, 0},
		{"fences-stall", "fences:worker", inject.Stall, diag.StageFences, stallBudget},
		{"opt-fail", "opt:worker", inject.Fail, diag.StageOpt, 0},
		{"opt-panic", "opt:worker", inject.Panic, diag.StageOpt, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.mode == inject.Stall {
				// The armed stall lasts until the function's budget runs out.
				old := inject.StallDuration
				inject.StallDuration = time.Hour
				defer func() { inject.StallDuration = old }()
			}
			inject.Arm(tc.point, tc.mode)
			defer inject.Reset()
			cfg := Default()
			cfg.FuncBudget = tc.budget

			m, _, rep, err := TranslateToIR(bin, cfg)
			if err != nil {
				t.Fatalf("degradation must not fail the translation: %v", err)
			}
			if got := rep.Degraded(); len(got) != 1 || got[0] != "worker" {
				t.Fatalf("degraded functions %v, want [worker]", got)
			}
			if st := rep.DegradedStage("worker"); st != tc.stage {
				t.Errorf("degraded stage %s, want %s", st, tc.stage)
			}
			if tc.mode == inject.Stall {
				d := rep.Diagnostics()
				found := false
				for _, dg := range d {
					if dg.Func == "worker" && errors.Is(dg.Cause, diag.ErrBudgetExceeded) {
						found = true
					}
				}
				if !found {
					t.Errorf("stall degradation cause does not wrap ErrBudgetExceeded:\n%s", rep)
				}
			}
			for _, f := range m.Funcs {
				if f.External || len(f.Blocks) == 0 {
					continue
				}
				if f.Name == "worker" {
					if fences.CountFunc(f) == 0 {
						t.Error("degraded worker carries no conservative fences")
					}
					continue
				}
				if f.String() != clean[f.Name] {
					t.Errorf("untouched function %s changed under injected fault:\n--- clean ---\n%s--- faulty ---\n%s",
						f.Name, clean[f.Name], f.String())
				}
			}

			// The degraded module must still translate and run correctly:
			// conservative fences are sound, not just present.
			armObj, _, _, err := Translate(bin, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mach, err := sim.NewMachine(armObj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mach.Run(); err != nil {
				t.Fatal(err)
			}
			if mach.Out.String() != want {
				t.Fatalf("degraded output %q, want %q", mach.Out.String(), want)
			}
		})
	}
}

// TestPromotionFailureRollsBackModule kills parameter promotion mid-module:
// signatures and call sites could be inconsistent, so every function must
// roll back to its lifted snapshot and the module still runs correctly.
func TestPromotionFailureRollsBackModule(t *testing.T) {
	bin, want := buildX86(t)
	for _, mode := range []inject.Mode{inject.Fail, inject.Panic} {
		inject.Arm("refine:promote", mode)
		armObj, _, rep, err := Translate(bin, Default())
		inject.Reset()
		if err != nil {
			t.Fatalf("%s: rollback must not fail the translation: %v", mode, err)
		}
		if len(rep.Degraded()) == 0 {
			t.Fatalf("%s: promotion failure degraded no functions", mode)
		}
		mach, err := sim.NewMachine(armObj)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run(); err != nil {
			t.Fatal(err)
		}
		if mach.Out.String() != want {
			t.Fatalf("%s: rolled-back output %q, want %q", mode, mach.Out.String(), want)
		}
	}
}

// directions pairs each translation direction's object-to-object entry
// point with a build of concurrentSrc for its input architecture, and a
// word its decoder rejects.
var directions = []struct {
	name      string
	build     func(t *testing.T) *obj.File
	translate func(*obj.File, Config) (*obj.File, *Stats, *diag.Report, error)
	badWord   []byte
}{
	{"x86-to-arm", func(t *testing.T) *obj.File { bin, _ := buildX86(t); return bin }, Translate, []byte{0x06}},
	{"arm-to-x86", buildArm64, TranslateArmToX86, []byte{0, 0, 0, 0}},
}

// corruptFunc returns a copy of bin with the first bytes of function fn
// overwritten by word.
func corruptFunc(t *testing.T, bin *obj.File, fn string, word []byte) *obj.File {
	t.Helper()
	out, err := obj.Unmarshal(bin.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	text := out.Section(".text")
	for _, sym := range out.FuncSymbols() {
		if sym.Name == fn {
			copy(text.Data[sym.Addr-text.Addr:], word)
			return out
		}
	}
	t.Fatalf("no function %q", fn)
	return nil
}

// TestLiftFailureStubsOrAborts: in both directions, a function that cannot
// be decoded or lifted is unrecoverable; without AllowPartial the
// translation fails (with a diagnostic), with it the function is dropped or
// becomes a stub, flagged with an Error diagnostic, and the rest translates.
func TestLiftFailureStubsOrAborts(t *testing.T) {
	for _, d := range directions {
		for _, fault := range []struct {
			name  string
			stage diag.Stage
		}{{"lift-panic", diag.StageLift}, {"corrupt", diag.StageDisasm}} {
			t.Run(d.name+"/"+fault.name, func(t *testing.T) {
				bin := d.build(t)
				if fault.name == "corrupt" {
					bin = corruptFunc(t, bin, "worker", d.badWord)
				} else {
					inject.Arm("lift:worker", inject.Panic)
					defer inject.Reset()
				}

				_, _, rep, err := d.translate(bin, Default())
				if err == nil {
					t.Fatal("lift failure without AllowPartial must fail the translation")
				}
				if !strings.Contains(err.Error(), "AllowPartial") {
					t.Errorf("error does not mention the AllowPartial escape hatch: %v", err)
				}
				if !rep.HasErrors() {
					t.Error("failed translation left no Error diagnostic")
				}

				cfg := Default()
				cfg.AllowPartial = true
				out, _, rep, err := d.translate(bin, cfg)
				if err != nil {
					t.Fatalf("AllowPartial translation failed: %v", err)
				}
				if out == nil {
					t.Fatal("AllowPartial produced no object")
				}
				if fe := rep.FirstError(); fe == nil || fe.Func != "worker" || fe.Stage != fault.stage {
					t.Errorf("want a %s Error diagnostic for @worker, got:\n%s", fault.stage, rep)
				}
				if out.Symbol("main") == nil {
					t.Error("AllowPartial dropped main along with worker")
				}
			})
		}
	}
}

// TestBackendFailureIsTyped: a backend panic surfaces as a typed error plus
// an Error diagnostic, never an escaped panic.
func TestBackendFailureIsTyped(t *testing.T) {
	bin, _ := buildX86(t)
	inject.Arm("backend:module", inject.Panic)
	defer inject.Reset()
	_, _, rep, err := Translate(bin, Default())
	if err == nil {
		t.Fatal("backend failure must fail the translation")
	}
	if !strings.Contains(err.Error(), "backend") {
		t.Errorf("error %v does not name the backend stage", err)
	}
	if !rep.HasErrors() {
		t.Error("failed translation left no Error diagnostic")
	}
	var pe *diag.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("backend panic not surfaced as *diag.PanicError: %v", err)
	}
}

// TestTranslateContextExpired: a dead caller context aborts between stages
// with a partial-result error wrapping diag.ErrBudgetExceeded.
func TestTranslateContextExpired(t *testing.T) {
	bin, _ := buildX86(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, rep, err := TranslateContext(ctx, bin, Default())
	if !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !rep.HasErrors() {
		t.Error("interrupted translation left no Error diagnostic")
	}
}

// TestSimInterruptedByContext: a translated binary's simulation polls the
// caller context and aborts with a budget error instead of running on.
func TestSimInterruptedByContext(t *testing.T) {
	bin, _ := buildX86(t)
	armObj, _, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.NewMachine(armObj)
	if err != nil {
		t.Fatal(err)
	}
	// A context cancelled before the run starts: deterministic, unlike a
	// short deadline whose timer goroutine races a fast simulation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mach.RunContext(ctx); !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
