package core

import (
	"testing"
	"time"

	"lasagne/internal/backend"
	"lasagne/internal/diag/inject"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
)

// buildArm64 compiles the shared concurrent program for the reverse
// (Arm -> x86) direction.
func buildArm64(t *testing.T) *obj.File {
	t.Helper()
	m, err := minic.Compile("t", concurrentSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	bin, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestSerialParallelDeterminism pins the central claim of the staged
// pipeline: for any worker count, any cache state, and any injected fault,
// Translate produces byte-identical IR and byte-identical diagnostics.
// Jobs=1 is the reference (the serial pipeline IS the parallel one with a
// single worker), Jobs=4 oversubscribes the pool relative to the function
// count so every interleaving-order hazard is exercised.
func TestSerialParallelDeterminism(t *testing.T) {
	bin, _ := buildX86(t)
	// The stall cases' budget: far above what any unstalled function
	// needs, even under the race detector on busy CPUs, so only the stalled
	// function degrades, in the serial and the parallel run alike. The
	// stall itself outlasts the budget and ends when it runs out.
	const stallBudget = time.Second

	cases := []struct {
		name         string
		point        string
		mode         inject.Mode
		budget       time.Duration
		allowPartial bool
	}{
		{name: "clean"},
		{name: "refine-fail", point: "refine:worker", mode: inject.Fail},
		{name: "refine-panic", point: "refine:worker", mode: inject.Panic},
		{name: "refine-stall", point: "refine:worker", mode: inject.Stall, budget: stallBudget},
		{name: "fences-fail", point: "fences:worker", mode: inject.Fail},
		{name: "fences-panic", point: "fences:worker", mode: inject.Panic},
		{name: "fences-stall", point: "fences:worker", mode: inject.Stall, budget: stallBudget},
		{name: "opt-fail", point: "opt:worker", mode: inject.Fail},
		{name: "opt-panic", point: "opt:worker", mode: inject.Panic},
		{name: "promote-fail", point: "refine:promote", mode: inject.Fail},
		{name: "promote-panic", point: "refine:promote", mode: inject.Panic},
		{name: "lift-panic", point: "lift:worker", mode: inject.Panic, allowPartial: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.mode == inject.Stall {
				old := inject.StallDuration
				inject.StallDuration = 30 * time.Second
				defer func() { inject.StallDuration = old }()
			}
			translate := func(jobs int) (string, string) {
				if tc.point != "" {
					inject.Arm(tc.point, tc.mode)
					defer inject.Reset()
				}
				cfg := Default()
				cfg.Jobs = jobs
				cfg.FuncBudget = tc.budget
				cfg.AllowPartial = tc.allowPartial
				m, _, rep, err := TranslateToIR(bin, cfg)
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				return m.String(), rep.String()
			}

			serialIR, serialRep := translate(1)
			parallelIR, parallelRep := translate(4)
			if parallelIR != serialIR {
				t.Errorf("parallel IR differs from serial IR")
			}
			if parallelRep != serialRep {
				t.Errorf("parallel diagnostics differ from serial:\n--- serial ---\n%s--- parallel ---\n%s",
					serialRep, parallelRep)
			}
		})
	}
}

// TestParallelReverseDeterminism covers the Arm->x86 direction (place=false):
// the shared fan-out machinery must be order-independent there too.
func TestParallelReverseDeterminism(t *testing.T) {
	bin := buildArm64(t)
	translate := func(jobs int) string {
		cfg := Default()
		cfg.Jobs = jobs
		o, _, rep, err := TranslateArmToX86(bin, cfg)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if rep.Len() != 0 {
			t.Fatalf("jobs=%d: diagnostics:\n%s", jobs, rep)
		}
		return string(o.Marshal())
	}
	if translate(4) != translate(1) {
		t.Error("reverse translation is not byte-identical across worker counts")
	}
}
