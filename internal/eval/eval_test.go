package eval

import (
	"context"
	"strings"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/par"
	"lasagne/internal/phoenix"
)

// TestHistogramVariants runs the cheapest kernel through all five variants
// and validates the paper's qualitative claims on it.
func TestHistogramVariants(t *testing.T) {
	r, err := BuildAll(*phoenix.Get("HT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkResult(t, r)
}

func TestStringMatchVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := BuildAll(*phoenix.Get("SM"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkResult(t, r)
}

func TestKmeansVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := BuildAll(*phoenix.Get("KM"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkResult(t, r)
}

// checkResult validates the qualitative shape the paper reports.
func checkResult(t *testing.T, r *Result) {
	t.Helper()
	// All variants agree functionally (checked by RunAllContext) — now the
	// shape: Native is fastest; Lifted is slowest; PPOpt beats Lifted.
	if r.Cycles[Native] >= r.Cycles[Lifted] {
		t.Errorf("native (%d) should be faster than lifted (%d)", r.Cycles[Native], r.Cycles[Lifted])
	}
	if r.Cycles[PPOpt] >= r.Cycles[Lifted] {
		t.Errorf("PPOpt (%d) should be faster than Lifted (%d)", r.Cycles[PPOpt], r.Cycles[Lifted])
	}
	if r.Cycles[Opt] >= r.Cycles[Lifted] {
		t.Errorf("Opt (%d) should be faster than Lifted (%d)", r.Cycles[Opt], r.Cycles[Lifted])
	}
	// Fence counts: refinement reduces fences; merging never increases them.
	if r.Builds[PPOpt].Fences >= r.Builds[Lifted].Fences {
		t.Errorf("PPOpt fences (%d) should be below Lifted (%d)",
			r.Builds[PPOpt].Fences, r.Builds[Lifted].Fences)
	}
	if r.Builds[POpt].Fences > r.Builds[Lifted].Fences {
		t.Errorf("POpt fences (%d) exceed Lifted (%d)", r.Builds[POpt].Fences, r.Builds[Lifted].Fences)
	}
	// Refinement removes pointer casts.
	if r.CastsRef >= r.CastsRaw {
		t.Errorf("refinement did not reduce casts: %d -> %d", r.CastsRaw, r.CastsRef)
	}
	// Code size: every lifted variant is larger than native; optimization
	// shrinks the lifted code substantially.
	nat := r.Builds[Native].IRInstrs
	if r.Builds[Lifted].IRInstrs <= nat {
		t.Errorf("lifted (%d) should exceed native (%d)", r.Builds[Lifted].IRInstrs, nat)
	}
	if r.Builds[Opt].IRInstrs >= r.Builds[Lifted].IRInstrs {
		t.Errorf("opt (%d) should shrink lifted (%d)", r.Builds[Opt].IRInstrs, r.Builds[Lifted].IRInstrs)
	}
	t.Logf("%s: cycles N/L/O/P/PP = %d/%d/%d/%d/%d; fences L/P/PP = %d/%d/%d; casts %d->%d; size N/L/O/PP = %d/%d/%d/%d",
		r.Bench.Abbrev,
		r.Cycles[Native], r.Cycles[Lifted], r.Cycles[Opt], r.Cycles[POpt], r.Cycles[PPOpt],
		r.Builds[Lifted].Fences, r.Builds[POpt].Fences, r.Builds[PPOpt].Fences,
		r.CastsRaw, r.CastsRef,
		nat, r.Builds[Lifted].IRInstrs, r.Builds[Opt].IRInstrs, r.Builds[PPOpt].IRInstrs)
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"histogram", "kmeans", "linear_regression", "matrix_multiply", "string_match"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %s:\n%s", want, out)
		}
	}
	for _, b := range phoenix.All() {
		if b.Functions() < 2 {
			t.Errorf("%s has %d functions; expected a multi-function kernel", b.Name, b.Functions())
		}
		if b.LoC() < 40 {
			t.Errorf("%s has only %d LoC", b.Name, b.LoC())
		}
	}
}

func TestPassIsolationOnHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many module variants")
	}
	r, err := BuildAll(*phoenix.Get("HT"))
	if err != nil {
		t.Fatal(err)
	}
	red, err := PassIsolation(r, []string{"instcombine", "dce", "mem2reg"})
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range red {
		if v < 0 {
			t.Errorf("pass %s grew the code (%.1f%%)", p, v)
		}
	}
	if red["instcombine"] == 0 && red["dce"] == 0 && red["mem2reg"] == 0 {
		t.Error("expected at least one pass to shrink the lifted code")
	}
}

// ablationFences quantifies the stack-access analysis of §8 step 1: the
// number of fences placed (and the simulated cycles) with and without the
// use-def stack filter on the raw lifted module.
func ablationFences(b phoenix.Benchmark) (withSkip, withoutSkip int, cyclesSkip, cyclesNo int64, err error) {
	src, err := compileSource(b)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	xbin, err := backend.Compile(src, "x86-64")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	base, err := lifter.Lift(xbin)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	run := func(m *ir.Module, opts fences.Options) (int, int64, error) {
		fences.Place(m, opts)
		n := fences.Count(m)
		o, err := backend.Compile(m, "arm64")
		if err != nil {
			return 0, 0, err
		}
		mach, err := newMachine(o)
		if err != nil {
			return 0, 0, err
		}
		c, err := mach.Run()
		return n, c, err
	}
	opts := []fences.Options{{SkipStackAccesses: true}, {}}
	mods := [2]*ir.Module{base, base.Clone()} // cloned before the fan-out
	var ns [2]int
	var cs [2]int64
	if err = par.FirstErr(len(opts), Parallelism, func(i int) error {
		var e error
		ns[i], cs[i], e = run(mods[i], opts[i])
		return e
	}); err != nil {
		return 0, 0, 0, 0, err
	}
	return ns[0], ns[1], cs[0], cs[1], nil
}

// TestAblationStackAnalysis validates the DESIGN.md ablation: disabling the
// §8 stack-access analysis (fencing *every* access) must cost both more
// fences and more cycles.
func TestAblationStackAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	withSkip, withoutSkip, cSkip, cNo, err := ablationFences(*phoenix.Get("HT"))
	if err != nil {
		t.Fatal(err)
	}
	if withSkip >= withoutSkip {
		t.Errorf("stack analysis did not reduce fences: %d vs %d", withSkip, withoutSkip)
	}
	if cSkip >= cNo {
		t.Errorf("stack analysis did not reduce cycles: %d vs %d", cSkip, cNo)
	}
	t.Logf("fences %d vs %d (%.1fx), cycles %d vs %d (%.2fx)",
		withSkip, withoutSkip, float64(withoutSkip)/float64(withSkip),
		cSkip, cNo, float64(cNo)/float64(cSkip))
}
