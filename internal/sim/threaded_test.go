package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/diag"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/race"
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
	return runConfigured(t, bin, k, nil)
}

// runConfigured is runEngine with setup applied to the machine before Run.
func runConfigured(t *testing.T, bin *obj.File, k sim.EngineKind, setup func(*sim.Machine)) engineObs {
	t.Helper()
	m, err := sim.NewMachine(bin)
	if err != nil {
		t.Fatal(err)
	}
	m.Engine = k
	if setup != nil {
		setup(m)
	}
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
	programsDigest      = "2b7e1b944bb35bf0aa02ecadedfa0df9dd9ac188a692af47fc046b884599ee41"
	programsDigestShort = "d9d0948c9376e4c9695e17d947695c74423298a9b42a2464f84de603202c78b6"
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

// buildNative compiles src straight to Arm64, as sim-suite's native Arm
// build: the same optimized IR the x86 input comes from, through the Arm64
// backend instead of the translator.
func buildNative(t *testing.T, name, src string) *obj.File {
	t.Helper()
	m, err := minic.Compile(name, src)
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

// Digests of TestThreadedMatchesReferenceNative's observations, recorded
// with the scheduler that rescanned every thread at every step.
const (
	nativeDigest      = "36f642b583e15667af4f74a2656ff75af3d7996ccef13c4ece45e9075853cd55"
	nativeDigestShort = "a6278ea54a77bf5f796189efd40f5ed74e8b3402966fe6b99e7b7362582c3f61"
)

// TestThreadedMatchesReferenceNative is the engine differential on native
// Arm64 builds, the third build sim-suite simulates: the backend's own Arm
// code, whose instruction mix and fence placement differ from the
// translator's.
func TestThreadedMatchesReferenceNative(t *testing.T) {
	seeds := int64(20)
	kernels := append(phoenix.All(), phoenix.LockFree()...)
	want := nativeDigest
	if testing.Short() {
		seeds = 5
		kernels = []phoenix.Benchmark{*phoenix.Get("HT"), *phoenix.Get("SR")}
		want = nativeDigestShort
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
			record(compareEngines(t, "fuzz", buildNative(t, "fuzz", src)))
			if t.Failed() {
				t.Fatalf("diverging program is GenProgram(%d):\n%s", seed, src)
			}
		}
	})
	for _, b := range kernels {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			record(compareEngines(t, b.Name, buildNative(t, b.Name, b.Source)))
		})
	}
	if runs != int(seeds)+len(kernels) {
		t.Logf("%d of %d programs ran; digest not compared", runs, int(seeds)+len(kernels))
		return
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("native program observations digest %s, recorded %s", got, want)
	}
}

// TestThreadedThreadCounts runs the engine differential with every
// __nthreads value from one worker to half the machine's thread limit, on
// both architectures: a different worker count changes how many threads
// are ready at once and how often their clocks tie.
func TestThreadedThreadCounts(t *testing.T) {
	counts := []int{1, 2, 3, 8, 16}
	kernels := []string{"spsc_ring", "histogram"}
	seeds := []int64{1, 2, 3, 4, 5}
	// The full sweep takes minutes under the race detector, which sees no
	// concurrency here: the simulator runs every thread on one goroutine.
	if testing.Short() || race.Enabled {
		counts = []int{1, 3, 16}
		kernels = kernels[:1]
		seeds = seeds[:1]
	}
	type prog struct{ name, src string }
	var progs []prog
	for _, k := range kernels {
		b := phoenix.Get(k)
		progs = append(progs, prog{b.Name, b.Source})
	}
	for _, s := range seeds {
		progs = append(progs, prog{fmt.Sprintf("GenProgram(%d)", s), validate.GenProgram(s)})
	}
	for _, p := range progs {
		xbin, abin := buildPair(t, "prog", p.src)
		for _, n := range counts {
			for _, bin := range []*obj.File{xbin, abin} {
				setup := func(m *sim.Machine) { m.NThreads = n }
				ref := runConfigured(t, bin, sim.Reference, setup)
				thr := runConfigured(t, bin, sim.Threaded, setup)
				if ref != thr {
					t.Errorf("%s (%s, %d threads): engines diverge:\nreference: %+v\nthreaded:  %+v",
						p.name, bin.Arch, n, ref, thr)
				}
				if ref.err != "" {
					t.Errorf("%s (%s, %d threads): %s", p.name, bin.Arch, n, ref.err)
				}
			}
		}
	}
}

// TestThreadedBudgetEdges sweeps Machine.MaxSteps across a multi-threaded
// kernel's whole run, up to and just past its end. The threaded engine
// checks the budget after a fused unit rather than after each instruction,
// so where it stops may differ, but both engines must agree on whether the
// budget was exceeded, and an unexceeded run must be identical.
func TestThreadedBudgetEdges(t *testing.T) {
	b := phoenix.Get("spsc_ring")
	xbin, abin := buildPair(t, b.Name, b.Source)
	for _, bin := range []*obj.File{xbin, abin} {
		full := runEngine(t, bin, sim.Reference)
		if full.err != "" {
			t.Fatalf("%s: %s", bin.Arch, full.err)
		}
		n := full.instrs
		for _, limit := range []int64{1, 1000, n / 2, n - 1, n, 2 * n} {
			var errs [2]error
			var obs [2]engineObs
			for i, k := range sim.Engines {
				m, err := sim.NewMachine(bin)
				if err != nil {
					t.Fatal(err)
				}
				m.Engine = k
				m.MaxSteps = limit
				cycles, err := m.Run()
				errs[i] = err
				obs[i] = engineObs{out: m.Out.String(), cycles: cycles, instrs: m.InstrCount()}
			}
			over := [2]bool{errors.Is(errs[0], diag.ErrBudgetExceeded), errors.Is(errs[1], diag.ErrBudgetExceeded)}
			if over[0] != over[1] {
				t.Errorf("%s MaxSteps=%d: budget exceeded %v under %v, %v under %v (errors %v; %v)",
					bin.Arch, limit, over[0], sim.Engines[0], over[1], sim.Engines[1], errs[0], errs[1])
			}
			if errs[0] == nil && errs[1] == nil && obs[0] != obs[1] {
				t.Errorf("%s MaxSteps=%d: engines diverge:\n%v: %+v\n%v: %+v",
					bin.Arch, limit, sim.Engines[0], obs[0], sim.Engines[1], obs[1])
			}
			if (errs[0] != nil && !over[0]) || (errs[1] != nil && !over[1]) {
				t.Errorf("%s MaxSteps=%d: non-budget error: %v; %v", bin.Arch, limit, errs[0], errs[1])
			}
		}
	}
}

// TestThreadedSteadyStateAllocFree pins the allocation behavior of the
// threaded hot loop. One machine run allocates the machine image and the
// compiled uop program up front (under 2k allocations for these kernels),
// so any per-step allocation in the dispatch loop would add the
// program's hundreds of thousands of executed instructions on top of
// the bound.
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
			// The setup floor (image + predecode + uop closures) is under
			// 2k allocations; a single allocation per executed instruction
			// would blow through this bound by >7x.
			if allocs > 20_000 {
				t.Errorf("%s/%s: %v allocations for %d instructions — the steady-state loop is allocating",
					b, arch, allocs, instrs)
			}
			if instrs < 150_000 {
				t.Fatalf("%s/%s: only %d instructions — workload too small to pin the hot loop", b, arch, instrs)
			}
		}
	}
}

// TestMachineAllocBound pins what a machine costs: NewMachine plus Run of
// each suite kernel's three sim-suite builds (x86 input, Lasagne
// translation, native Arm) allocates under 2 MB, where a flat image alone
// was 64 MB. Memory is paged and a page is allocated on its first store,
// so the bytes are the compiled program plus the pages the kernel writes.
func TestMachineAllocBound(t *testing.T) {
	const bound = 2 << 20
	kernels := append(phoenix.All(), phoenix.LockFree()...)
	if testing.Short() {
		kernels = []phoenix.Benchmark{*phoenix.Get("HT"), *phoenix.Get("SR")}
	}
	for _, b := range kernels {
		xbin, abin := buildPair(t, b.Name, b.Source)
		builds := []*obj.File{xbin, abin, buildNative(t, b.Name, b.Source)}
		for i, build := range []string{"x86", "translated", "native"} {
			bin := builds[i]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mach, err := sim.NewMachine(bin)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mach.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n >= bound {
				t.Errorf("%s (%s): NewMachine+Run allocated %d bytes, bound %d", b.Name, build, n, bound)
			} else {
				t.Logf("%s (%s): %d KiB, %d pages", b.Name, build, n>>10, mach.Mem.Pages())
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
