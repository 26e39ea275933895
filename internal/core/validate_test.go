package core

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/core/cache"
	"lasagne/internal/diag"
	"lasagne/internal/diag/inject"
	"lasagne/internal/fences"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/race"
	"lasagne/internal/sim"
	"lasagne/internal/validate"
)

func buildPhoenixX86(t *testing.T, name, src string) *obj.File {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	bin, err := backend.Compile(m, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestValidatePhoenixCleanAndIdentical runs the whole Phoenix suite with
// the self-checking checkpoints on: every function must be checkpoint-clean
// at every stage (zero diagnostics), the translated module must be
// byte-identical to the non-validated run, and — because validation is
// observation-only — both runs must share cache entries.
func TestValidatePhoenixCleanAndIdentical(t *testing.T) {
	for _, b := range phoenix.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			bin := buildPhoenixX86(t, b.Name, b.Source)

			cfg := Default()
			plain, _, rep, err := TranslateToIR(bin, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Len() != 0 {
				t.Fatalf("plain run produced diagnostics:\n%s", rep)
			}

			cfg.Validate = true
			checked, _, vrep, err := TranslateToIR(bin, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if vrep.Len() != 0 {
				t.Fatalf("validated run not checkpoint-clean:\n%s", vrep)
			}
			if checked.String() != plain.String() {
				t.Fatal("validation changed the translated module")
			}

			// Cache sharing: a cache filled without validation must serve (and
			// satisfy) the validated run.
			c := cache.New(0)
			cfg = Default()
			cfg.Cache = c
			if _, st, _, err := TranslateToIR(bin, cfg); err != nil {
				t.Fatal(err)
			} else if st.CacheMisses == 0 {
				t.Fatal("cold run filled no cache entries")
			}
			cfg.Validate = true
			warm, st, wrep, err := TranslateToIR(bin, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.CacheMisses != 0 {
				t.Fatalf("validated warm run missed %d entries filled by the non-validated run", st.CacheMisses)
			}
			if wrep.Len() != 0 {
				t.Fatalf("validated warm run not checkpoint-clean:\n%s", wrep)
			}
			if warm.String() != plain.String() {
				t.Fatal("validated cache hits changed the translated module")
			}
		})
	}
}

// TestEveryPassPreservesInvariants is the per-pass property test: every
// registered function-local pass, applied alone to every fenced Phoenix
// function, must leave it verifier-clean, fence-covered and within its
// pointer-cast baseline — the invariants the per-pass checkpoints enforce
// during a validated translation.
// TestPhoenixDifferentialWeakFences is the acceptance bar for the weak
// lowering: every Phoenix kernel, translated with acquire/release
// strengthening and escape-based fence elimination on, must agree with the
// source x86 binary on 32 seeded data images — and the lowering must have
// actually fired (otherwise the test would vacuously pass a disabled pass).
func TestPhoenixDifferentialWeakFences(t *testing.T) {
	seeds := 32
	if testing.Short() || race.Enabled {
		// The race detector slows the simulator ~20x: 32 seeds per kernel
		// would take ~22 minutes, past go test's default timeout. The
		// non-race run keeps the full 32.
		seeds = 4
	}
	for _, bench := range phoenix.All() {
		b := bench
		t.Run(b.Name, func(t *testing.T) {
			bin := buildPhoenixX86(t, b.Name, b.Source)
			cfg := Default()
			cfg.Validate = true
			out, stats, rep, err := Translate(bin, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Len() != 0 {
				t.Fatalf("weak translation produced diagnostics:\n%s", rep)
			}
			if stats.AcquireLoads+stats.ReleaseStores == 0 {
				t.Fatalf("weak lowering did not strengthen any access (stats %+v)", stats)
			}
			res := validate.Differential(bin, out, validate.DiffOptions{Seeds: seeds})
			if derr := res.Err(); derr != nil {
				t.Fatal(derr)
			}
			if res.Compared < seeds {
				t.Fatalf("compared %d seeds, want >= %d (skipped %d)", res.Compared, seeds, res.Skipped)
			}
		})
	}
}

func TestEveryPassPreservesInvariants(t *testing.T) {
	names := make([]string, 0, len(opt.Registry))
	for n := range opt.Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, b := range phoenix.All() {
		bin := buildPhoenixX86(t, b.Name, b.Source)
		cfg := Default()
		cfg.Optimize = false // stop right after fence placement + merging
		m, _, rep, err := TranslateToIR(bin, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Len() != 0 {
			t.Fatalf("%s: fenced translation not clean:\n%s", b.Name, rep)
		}
		// Default() lowers with the weak classifier, so the checkpoints must
		// classify with it too — recomputing the thread-local-globals set the
		// pipeline's prepass produced.
		locals := fences.ThreadLocalGlobals(m)
		for _, f := range m.Funcs {
			if f.External || len(f.Blocks) == 0 {
				continue
			}
			opts := validate.Opts{FencesPlaced: true, MaxPtrCasts: validate.CountPtrCastsFunc(f),
				UseEscape: true, LocalGlobals: locals}
			if err := validate.CheckFunc(f, opts); err != nil {
				t.Fatalf("%s @%s not checkpoint-clean before opt: %v", b.Name, f.Name, err)
			}
			for _, pass := range names {
				save := f.CloneBody()
				if _, err := opt.ApplyPass(f, pass); err != nil {
					t.Fatalf("%s @%s: %s: %v", b.Name, f.Name, pass, err)
				}
				if err := validate.CheckFunc(f, opts); err != nil {
					t.Errorf("%s @%s: pass %s broke an invariant: %v", b.Name, f.Name, pass, err)
				}
				f.RestoreBody(save)
			}
		}
	}
}

// passOf returns the Pass recorded on the first diagnostic at stage for fn.
func passOf(rep *diag.Report, stage diag.Stage, fn string) string {
	for _, d := range rep.Diagnostics() {
		if d.Stage == stage && d.Func == fn && d.Pass != "" {
			return d.Pass
		}
	}
	return ""
}

// TestValidateCatchesInjectedPassCorruption arms the fence-dropping
// corruption inside one opt pass and checks the full loop: the per-pass
// checkpoint fires, the failure is attributed to that exact pass, the
// function degrades to the conservative translation (the module stays
// sound), a repro bundle lands in -repro-dir, and the bundle replays
// standalone — reproducing while the bug exists and passing once "fixed".
func TestValidateCatchesInjectedPassCorruption(t *testing.T) {
	defer inject.Reset()
	bin, want := buildX86(t)
	dir := t.TempDir()
	cfg := Default()
	cfg.Validate = true
	cfg.ReproDir = dir

	inject.Arm("corrupt-fence:gvn", inject.Corrupt)
	out, _, rep, err := Translate(bin, cfg)
	inject.Reset()
	if err != nil {
		t.Fatalf("corruption must degrade functions, not fail the module: %v", err)
	}
	degraded := rep.Degraded()
	if len(degraded) == 0 {
		t.Fatalf("checkpoints missed the injected corruption:\n%s", rep)
	}
	for _, fn := range degraded {
		if got := rep.DegradedStage(fn); got != diag.StageValidate {
			t.Errorf("@%s degraded at stage %s, want validate", fn, got)
		}
		if got := passOf(rep, diag.StageValidate, fn); got != "gvn" {
			t.Errorf("@%s attributed to pass %q, want gvn", fn, got)
		}
	}

	// The degraded output must still behave like the original program.
	mach, err := sim.NewMachine(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if mach.Out.String() != want {
		t.Fatalf("degraded output %q, want %q", mach.Out.String(), want)
	}

	// Exactly the bundle loop: find a written bundle, replay it with the bug
	// still present, then with the bug fixed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bundlePath string
	for _, e := range entries {
		if strings.Contains(e.Name(), "gvn") && strings.HasSuffix(e.Name(), ".json") {
			bundlePath = filepath.Join(dir, e.Name())
			break
		}
	}
	if bundlePath == "" {
		t.Fatalf("no gvn repro bundle in %s (found %v)", dir, entries)
	}
	b, err := validate.Load(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != validate.KindPass || b.Pass != "gvn" {
		t.Fatalf("bundle kind=%s pass=%s, want pass/gvn", b.Kind, b.Pass)
	}
	inject.Arm("corrupt-fence:gvn", inject.Corrupt)
	failure, rerr := ReplayBundle(b)
	inject.Reset()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if failure == nil || !strings.Contains(failure.Error(), "fence") {
		t.Fatalf("replay failure = %v, want the fence-coverage violation", failure)
	}
	failure, rerr = ReplayBundle(b)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if failure != nil {
		t.Fatalf("replay of the fixed pass still fails: %v", failure)
	}
}

// diffSrc is crafted so the first integer add in main is a value
// computation on seeded global data, not address arithmetic: flipping it to
// a sub changes observable output on any seed where b != 0. (Flipping an
// address add can be self-consistent — every reader and writer relocates the
// same way — and invisible to the oracle.)
const diffSrc = `
int a;
int b;
int main() {
  print_int(a + b);
  return 0;
}
`

// TestSelfCheckBisectsComputeCorruption injects a semantics-changing (but
// checkpoint-invisible) corruption into one pass and checks that the
// differential oracle catches it and the bisection driver pins it on the
// right pass, writing a differential bundle that replays.
func TestSelfCheckBisectsComputeCorruption(t *testing.T) {
	defer inject.Reset()
	bin := buildX86From(t, diffSrc)
	dir := t.TempDir()
	cfg := Default()
	cfg.ReproDir = dir

	inject.Arm("corrupt-compute:reassociate", inject.Corrupt)
	_, _, rep, _, err := SelfCheckTranslate(bin, cfg, validate.DiffOptions{Seeds: 2})
	if err == nil {
		t.Fatal("differential oracle missed the compute corruption")
	}
	if !strings.Contains(err.Error(), `"reassociate"`) {
		t.Fatalf("mismatch attributed to %v, want reassociate", err)
	}
	var attributed string
	for _, d := range rep.Diagnostics() {
		if d.Stage == diag.StageValidate && d.Severity == diag.Error {
			attributed = d.Pass
		}
	}
	if attributed != "reassociate" {
		t.Fatalf("report attributes pass %q, want reassociate:\n%s", attributed, rep)
	}

	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var bundlePath string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "differential-") {
			bundlePath = filepath.Join(dir, e.Name())
		}
	}
	if bundlePath == "" {
		t.Fatalf("no differential bundle in %s", dir)
	}
	b, lerr := validate.Load(bundlePath)
	if lerr != nil {
		t.Fatal(lerr)
	}
	failure, rerr2 := ReplayBundle(b)
	if rerr2 != nil {
		t.Fatal(rerr2)
	}
	if failure == nil || !strings.Contains(failure.Error(), "mismatch") {
		t.Fatalf("bundle replay = %v, want the mismatch to reproduce", failure)
	}
	// With the bug fixed the same bundle reports nothing.
	inject.Reset()
	failure, rerr2 = ReplayBundle(b)
	if rerr2 != nil {
		t.Fatal(rerr2)
	}
	if failure != nil {
		t.Fatalf("replay after the fix still fails: %v", failure)
	}
}

// TestSelfCheckCleanTranslation is the happy path: no corruption, the
// oracle compares its seeds and SelfCheckTranslate returns the translation
// unchanged.
func TestSelfCheckCleanTranslation(t *testing.T) {
	bin, _ := buildX86(t)
	out, _, rep, res, err := SelfCheckTranslate(bin, Default(), validate.DiffOptions{Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || rep.Len() != 0 {
		t.Fatalf("clean self-check produced diagnostics:\n%s", rep)
	}
	if !res.Ok() || res.Compared < 4 {
		t.Fatalf("oracle compared %d seeds (ok=%t), want >= 4 clean", res.Compared, res.Ok())
	}
}

// TestValidateCheckpointFailureDegradesFunction injects a hard failure at
// one function's validate checkpoint and checks the blast radius: that
// function falls back to the conservative translation, every other function
// is translated normally, and the module still runs correctly.
func TestValidateCheckpointFailureDegradesFunction(t *testing.T) {
	defer inject.Reset()
	bin, want := buildX86(t)
	cfg := Default()
	cfg.Validate = true

	inject.Arm("validate:worker", inject.Fail)
	out, _, rep, err := Translate(bin, cfg)
	inject.Reset()
	if err != nil {
		t.Fatalf("checkpoint failure must degrade the function, not the module: %v", err)
	}
	if got := rep.Degraded(); len(got) != 1 || got[0] != "worker" {
		t.Fatalf("degraded = %v, want [worker]", got)
	}
	if got := rep.DegradedStage("worker"); got != diag.StageValidate {
		t.Fatalf("worker degraded at %s, want validate", got)
	}
	mach, err := sim.NewMachine(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if mach.Out.String() != want {
		t.Fatalf("output %q, want %q", mach.Out.String(), want)
	}
}
