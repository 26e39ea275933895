package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/sim"
	"lasagne/internal/validate"
)

// engineRun simulates bin under one engine and returns every observable:
// program output, simulated cycles, and executed instructions. The
// threaded engine's contract is that all three are bit-identical to the
// reference engine on every program.
type engineObs struct {
	out    string
	cycles int64
	instrs int64
	err    string
}

func runEngine(t *testing.T, bin *obj.File, k sim.EngineKind) engineObs {
	t.Helper()
	m, err := sim.NewMachine(bin)
	if err != nil {
		t.Fatal(err)
	}
	m.Engine = k
	cycles, err := m.Run()
	o := engineObs{out: m.Out.String(), cycles: cycles, instrs: m.InstrCount()}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// compareEngines runs bin under both engines, reports any divergence, and
// returns the reference observation.
func compareEngines(t *testing.T, name string, bin *obj.File) engineObs {
	t.Helper()
	ref := runEngine(t, bin, sim.Reference)
	thr := runEngine(t, bin, sim.Threaded)
	if thr != ref {
		t.Errorf("%s (%s): engines diverge:\nreference: %+v\nthreaded:  %+v",
			name, bin.Arch, ref, thr)
	}
	return ref
}

func buildPair(t *testing.T, name, src string) (*obj.File, *obj.File) {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	xbin, err := backend.Compile(m, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	abin, _, _, err := core.Translate(xbin, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	return xbin, abin
}

// Digests of every (output, cycles, instrs, error) observation
// TestThreadedMatchesReference makes, in its fixed order, recorded before
// the two engines came to share one instruction semantics. They pin the
// programs' observable behavior across commits, which the engine
// differential alone cannot.
const (
	programsDigest      = "7970eb4767fbad4b8966857ddfe9ad7f78de61d8b31c93945e9d8fdcb64a71ab"
	programsDigestShort = "82b9877acc9eb787fc950e152fbcbf5b802c6163a995690c1609f542078501c7"
)

// TestThreadedMatchesReference is the engine differential: the threaded
// interpreter must be observationally bit-identical to the reference
// interpreter — same output, same cycle counts, same instruction counts —
// on the fuzz corpus (the generator the validation oracle uses) and on
// every Phoenix and lock-free kernel, on both architectures.
func TestThreadedMatchesReference(t *testing.T) {
	seeds := int64(20)
	kernels := append(phoenix.All(), phoenix.LockFree()...)
	want := programsDigest
	if testing.Short() {
		seeds = 5
		kernels = []phoenix.Benchmark{*phoenix.Get("HT"), *phoenix.Get("SR")}
		want = programsDigestShort
	}
	h := sha256.New()
	runs := 0
	record := func(o engineObs) {
		fmt.Fprintf(h, "%q %d %d %q\n", o.out, o.cycles, o.instrs, o.err)
		runs++
	}

	t.Run("fuzz", func(t *testing.T) {
		for seed := int64(1); seed <= seeds; seed++ {
			src := validate.GenProgram(seed)
			xbin, abin := buildPair(t, "fuzz", src)
			record(compareEngines(t, "fuzz", xbin))
			record(compareEngines(t, "fuzz", abin))
			if t.Failed() {
				t.Fatalf("diverging program is GenProgram(%d):\n%s", seed, src)
			}
		}
	})

	for _, b := range kernels {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			xbin, abin := buildPair(t, b.Name, b.Source)
			record(compareEngines(t, b.Name, xbin))
			record(compareEngines(t, b.Name, abin))
		})
	}

	// A -run filter that skips subtests changes the set, so only a
	// complete run is compared.
	if runs != 2*(int(seeds)+len(kernels)) {
		t.Logf("%d of %d programs ran; digest not compared", runs, 2*(int(seeds)+len(kernels)))
		return
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("program observations digest %s, recorded %s", got, want)
	}
}

// TestThreadedSteadyStateAllocFree pins the allocation behavior of the
// threaded hot loop. One machine run allocates the machine image and the
// compiled uop program up front (tens of thousands of allocations at
// worst), so any per-step allocation in the dispatch loop would add the
// program's millions of executed instructions on top of the bound.
func TestThreadedSteadyStateAllocFree(t *testing.T) {
	for _, b := range []string{"linear_regression", "spsc_ring"} {
		bench := phoenix.Get(b)
		m, err := minic.Compile(bench.Name, bench.Source)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Optimize(m); err != nil {
			t.Fatal(err)
		}
		for _, arch := range []string{"x86-64", "arm64"} {
			bin, err := backend.Compile(m.Clone(), arch)
			if err != nil {
				t.Fatal(err)
			}
			var instrs int64
			allocs := testing.AllocsPerRun(1, func() {
				mach, err := sim.NewMachine(bin)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := mach.Run(); err != nil {
					t.Fatal(err)
				}
				instrs = mach.InstrCount()
			})
			// The setup floor (image + predecode + uop closures) is well
			// under 100k allocations; a single allocation per executed
			// instruction would blow through this by >10x.
			if allocs > 100_000 {
				t.Errorf("%s/%s: %v allocations for %d instructions — the steady-state loop is allocating",
					b, arch, allocs, instrs)
			}
			if instrs < 300_000 {
				t.Fatalf("%s/%s: only %d instructions — workload too small to pin the hot loop", b, arch, instrs)
			}
		}
	}
}

func TestEngineParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.EngineKind
	}{
		{"threaded", sim.Threaded},
		{"reference", sim.Reference},
		{"ref", sim.Reference},
	} {
		got, err := sim.ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := sim.ParseEngine("turbo"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
	if sim.Threaded.String() != "threaded" || sim.Reference.String() != "reference" {
		t.Error("EngineKind.String round-trip broken")
	}
	if len(sim.Engines) != 2 {
		t.Errorf("Engines lists %d engines, want 2", len(sim.Engines))
	}
}

// TestEngineDefaultIsThreaded pins the package default: NewMachine copies
// sim.Engine (Threaded unless a caller overrides the package variable).
func TestEngineDefaultIsThreaded(t *testing.T) {
	if sim.Engine != sim.Threaded {
		t.Fatalf("package default engine = %v, want threaded", sim.Engine)
	}
	if sim.EngineKind(0) != sim.Threaded {
		t.Fatal("the EngineKind zero value must be Threaded (DiffOptions relies on it)")
	}
}
