package opt_test

import (
	"fmt"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/minic"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/refine"
	"lasagne/internal/sim"
	"lasagne/internal/validate"
)

// fullPipeline compiles src, lowers to x86, lifts, optionally refines,
// places fences, optionally optimizes, then checks the result in both the
// IR interpreter and the Arm64 simulator against the original program.
func fullPipeline(t *testing.T, src string, doRefine, doOpt bool) *ir.Module {
	t.Helper()
	orig, err := minic.Compile("test", src)
	if err != nil {
		t.Fatalf("minic: %v", err)
	}
	ip := ir.NewInterp(orig)
	if _, err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	want := ip.Out.String()

	bin, err := backend.Compile(orig, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := lifter.Lift(bin)
	if err != nil {
		t.Fatal(err)
	}
	if doRefine {
		refine.Run(lifted)
		if err := ir.Verify(lifted); err != nil {
			t.Fatalf("invalid after refine: %v", err)
		}
	}
	fences.Place(lifted, fences.Options{SkipStackAccesses: true})
	if err := ir.Verify(lifted); err != nil {
		t.Fatalf("invalid after fence placement: %v", err)
	}
	if doOpt {
		if err := opt.RunPipeline(lifted, opt.StandardPipeline, true); err != nil {
			t.Fatalf("opt: %v", err)
		}
	}

	// Reference interpreter on the transformed module.
	lip := ir.NewInterp(lifted)
	if _, err := lip.Run("main"); err != nil {
		t.Fatalf("transformed IR run: %v\n%s", err, lifted)
	}
	if got := lip.Out.String(); got != want {
		t.Fatalf("transformed IR output %q, want %q", got, want)
	}

	// Arm64 codegen + simulation.
	armBin, err := backend.Compile(lifted, "arm64")
	if err != nil {
		t.Fatalf("arm64 compile: %v", err)
	}
	mach, err := sim.NewMachine(armBin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatalf("arm64 run: %v", err)
	}
	if got := mach.Out.String(); got != want {
		t.Fatalf("arm64 output %q, want %q", got, want)
	}
	return lifted
}

const workloadSrc = `
int histo[8];
int total;
double weights[64];

int classify(int v) { return (v * 7 + 3) % 8; }

void worker(int tid) {
  int i;
  for (i = tid; i < 64; i = i + 4) {
    int bucket = classify(i);
    atomic_add(&histo[bucket], 1);
    weights[i] = (double)i * 0.5;
  }
}

int main() {
  int t;
  for (t = 0; t < 4; t = t + 1) spawn(worker, t);
  join();
  int i;
  int sum = 0;
  for (i = 0; i < 8; i = i + 1) sum = sum + histo[i] * (i + 1);
  print_int(sum);
  double acc = 0.0;
  for (i = 0; i < 64; i = i + 1) acc = acc + weights[i];
  print_float(acc);
  return 0;
}`

func TestPipelineLiftedOnly(t *testing.T) {
	fullPipeline(t, workloadSrc, false, false)
}

func TestPipelineOptimized(t *testing.T) {
	fullPipeline(t, workloadSrc, false, true)
}

func TestPipelineRefinedOptimized(t *testing.T) {
	fullPipeline(t, workloadSrc, true, true)
}

func TestRefinementReducesCastsAndFences(t *testing.T) {
	src := workloadSrc
	orig, err := minic.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := backend.Compile(orig, "x86-64")
	if err != nil {
		t.Fatal(err)
	}

	plain, err := lifter.Lift(bin)
	if err != nil {
		t.Fatal(err)
	}
	castsBefore := refine.CountPtrCasts(plain)
	fences.Place(plain, fences.Options{SkipStackAccesses: true})
	fencesPlain := fences.Count(plain)

	refined, err := lifter.Lift(bin)
	if err != nil {
		t.Fatal(err)
	}
	refine.Run(refined)
	castsAfter := refine.CountPtrCasts(refined)
	fences.Place(refined, fences.Options{SkipStackAccesses: true})
	fencesRefined := fences.Count(refined)

	if castsAfter >= castsBefore {
		t.Errorf("refinement did not reduce pointer casts: %d -> %d", castsBefore, castsAfter)
	}
	if fencesRefined >= fencesPlain {
		t.Errorf("refinement did not reduce fences: %d -> %d", fencesPlain, fencesRefined)
	}
	t.Logf("casts %d -> %d (%.1f%%), fences %d -> %d (%.1f%%)",
		castsBefore, castsAfter, 100*float64(castsBefore-castsAfter)/float64(castsBefore),
		fencesPlain, fencesRefined, 100*float64(fencesPlain-fencesRefined)/float64(fencesPlain))
}

func TestFenceMergingReducesFences(t *testing.T) {
	orig, err := minic.Compile("t", workloadSrc)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := backend.Compile(orig, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	m, err := lifter.Lift(bin)
	if err != nil {
		t.Fatal(err)
	}
	fences.Place(m, fences.Options{SkipStackAccesses: true})
	before := fences.Count(m)
	removed := fences.Merge(m, fences.Options{SkipStackAccesses: true})
	after := fences.Count(m)
	if removed == 0 || after >= before {
		t.Fatalf("merging removed %d fences (%d -> %d)", removed, before, after)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestOptReducesCodeSize(t *testing.T) {
	orig, err := minic.Compile("t", workloadSrc)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := backend.Compile(orig, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	m, err := lifter.Lift(bin)
	if err != nil {
		t.Fatal(err)
	}
	fences.Place(m, fences.Options{SkipStackAccesses: true})
	before := m.NumInstrs()
	if err := opt.RunPipeline(m, opt.StandardPipeline, true); err != nil {
		t.Fatal(err)
	}
	after := m.NumInstrs()
	if after >= before {
		t.Fatalf("optimization grew code: %d -> %d", before, after)
	}
	ratio := float64(after) / float64(before)
	t.Logf("code size %d -> %d (%.1f%% of lifted)", before, after, 100*ratio)
	if ratio > 0.8 {
		t.Errorf("expected substantial reduction on lifted code, got %.1f%%", 100*ratio)
	}
}

// TestStandardPipelineVerifiesOnMinic runs the optimizer the way the native
// builds run it, on each suite kernel's minic IR and on generated programs,
// verifying the module after every pass. Reassociate once reused an inner
// instruction ahead of its new operand's definition; only a verifier
// between passes sees such a module.
func TestStandardPipelineVerifiesOnMinic(t *testing.T) {
	check := func(name, src string) {
		t.Helper()
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: minic: %v", name, err)
		}
		if err := opt.RunPipeline(m, opt.StandardPipeline, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, b := range append(phoenix.All(), phoenix.LockFree()...) {
		check(b.Name, b.Source)
	}
	for seed := int64(0); seed < 100; seed++ {
		check(fmt.Sprintf("gen%d", seed), validate.GenProgram(seed))
	}
}
