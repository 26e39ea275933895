package core

import (
	"bytes"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/core/cache"
	"lasagne/internal/diag"
	"lasagne/internal/diag/inject"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
)

// buildX86From compiles src to an x86-64 object the way buildX86 does, for
// cache tests that need a second, slightly different binary.
func buildX86From(t *testing.T, src string) *obj.File {
	t.Helper()
	x86, _ := buildBoth(t, "t", src)
	return x86
}

// buildBoth compiles src through the -O2-like pipeline to an x86-64 object
// and a native Arm64 object.
func buildBoth(t *testing.T, name, src string) (x86, arm *obj.File) {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	if x86, err = backend.Compile(m.Clone(), "x86-64"); err != nil {
		t.Fatal(err)
	}
	if arm, err = backend.Compile(m, "arm64"); err != nil {
		t.Fatal(err)
	}
	return x86, arm
}

func TestCacheWarmMatchesCold(t *testing.T) {
	bin, _ := buildX86(t)
	cfg := Default()

	mNone, stNone, rep, err := TranslateToIR(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("uncached run produced diagnostics:\n%s", rep)
	}

	cfg.Cache = cache.New(0)
	mCold, stCold, _, err := TranslateToIR(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stCold.CacheHits != 0 || stCold.CacheMisses == 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0 hits and >0 misses",
			stCold.CacheHits, stCold.CacheMisses)
	}
	mWarm, stWarm, repWarm, err := TranslateToIR(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stWarm.CacheMisses != 0 || stWarm.CacheHits != stCold.CacheMisses {
		t.Fatalf("warm run: hits=%d misses=%d, want %d hits and 0 misses",
			stWarm.CacheHits, stWarm.CacheMisses, stCold.CacheMisses)
	}
	if repWarm.Len() != 0 {
		t.Fatalf("warm run produced diagnostics:\n%s", repWarm)
	}

	if mCold.String() != mNone.String() {
		t.Error("cold cached translation differs from uncached")
	}
	if mWarm.String() != mNone.String() {
		t.Error("warm cached translation differs from uncached")
	}
	if stWarm.FencesPlaced != stNone.FencesPlaced || stWarm.FencesMerged != stNone.FencesMerged ||
		stWarm.FencesFinal != stNone.FencesFinal {
		t.Errorf("warm stats (placed %d merged %d final %d) differ from uncached (placed %d merged %d final %d)",
			stWarm.FencesPlaced, stWarm.FencesMerged, stWarm.FencesFinal,
			stNone.FencesPlaced, stNone.FencesMerged, stNone.FencesFinal)
	}

	// Object to object, where the module tier applies: for the Phoenix suite
	// plus spsc_ring, in both directions, the warm run replays the whole
	// translation (no misses) with output bytes and statistics identical
	// to the cold run's and to an uncached run's.
	names, x86s, arms := kernelSuite(t)
	c := cache.New(0)
	dirs := []struct {
		name      string
		bins      []*obj.File
		translate func(*obj.File, Config) (*obj.File, *Stats, *diag.Report, error)
	}{{"x86>arm", x86s, Translate}, {"arm>x86", arms, TranslateArmToX86}}
	for _, d := range dirs {
		for i, bin := range d.bins {
			what := d.name + " " + names[i]
			ref, stRef, _, err := d.translate(bin, Default())
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			cfg := Default()
			cfg.Cache = c
			cold, stCold, _, err := d.translate(bin, cfg)
			if err != nil {
				t.Fatalf("%s cold: %v", what, err)
			}
			warm, stWarm, repWarm, err := d.translate(bin, cfg)
			if err != nil {
				t.Fatalf("%s warm: %v", what, err)
			}
			if repWarm.Len() != 0 {
				t.Errorf("%s: warm run produced diagnostics:\n%s", what, repWarm)
			}
			if !bytes.Equal(cold.Marshal(), ref.Marshal()) || !bytes.Equal(warm.Marshal(), ref.Marshal()) {
				t.Errorf("%s: cached output differs from uncached", what)
			}
			nfuncs := stCold.CacheHits + stCold.CacheMisses
			if stWarm.CacheMisses != 0 || stWarm.CacheHits != nfuncs {
				t.Errorf("%s: warm hits=%d misses=%d, want %d hits and 0 misses",
					what, stWarm.CacheHits, stWarm.CacheMisses, nfuncs)
			}
			stWarm.CacheHits, stWarm.CacheMisses = 0, 0
			if *stWarm != *stRef {
				t.Errorf("%s: warm stats %+v differ from uncached %+v", what, *stWarm, *stRef)
			}
		}
	}
}

func TestCacheMissOnFingerprintVersionAndBytes(t *testing.T) {
	bin, _ := buildX86(t)
	c := cache.New(0)

	cfg := Default()
	cfg.Cache = c
	_, stCold, _, err := TranslateToIR(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nfuncs := stCold.CacheMisses

	// A different Config fingerprint must miss every entry.
	cfg2 := cfg
	cfg2.MergeFences = false
	_, st2, _, err := TranslateToIR(bin, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits != 0 {
		t.Errorf("changed fingerprint hit %d entries", st2.CacheHits)
	}

	// A bumped pipeline version must miss every entry.
	saved := PipelineVersion
	PipelineVersion = saved + ";test-bump"
	_, st3, _, err := TranslateToIR(bin, cfg)
	PipelineVersion = saved
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHits != 0 {
		t.Errorf("bumped pipeline version hit %d entries", st3.CacheHits)
	}

	// Changed function bytes must miss for the changed function, and the
	// warm translation of the new binary must match its own uncached one.
	const modifiedSrc = `
int shared[64];
int total;
void worker(int tid) {
  int i;
  for (i = tid; i < 64; i = i + 4) {
    shared[i] = i * i + 1;
    atomic_add(&total, shared[i]);
  }
}
int main() {
  int t;
  for (t = 0; t < 4; t = t + 1) spawn(worker, t);
  join();
  print_int(total);
  print_int(shared[10]);
  return 0;
}
`
	bin2 := buildX86From(t, modifiedSrc)
	m4, st4, _, err := TranslateToIR(bin2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st4.CacheMisses == 0 {
		t.Error("changed function bytes produced no cache misses")
	}
	if st4.CacheHits+st4.CacheMisses != nfuncs {
		t.Errorf("modified binary probed %d functions, original has %d",
			st4.CacheHits+st4.CacheMisses, nfuncs)
	}
	mRef, _, _, err := TranslateToIR(bin2, Default())
	if err != nil {
		t.Fatal(err)
	}
	if m4.String() != mRef.String() {
		t.Error("warm translation of the modified binary differs from its uncached translation")
	}
}

func TestCacheNeverStoresDegradedFunctions(t *testing.T) {
	bin, _ := buildX86(t)
	cfg := Default()
	cfg.Cache = cache.New(0)

	// Degrade worker in the opt stage with the cache armed.
	inject.Arm("opt:worker", inject.Fail)
	_, _, repBad, err := TranslateToIR(bin, cfg)
	inject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if got := repBad.Degraded(); len(got) != 1 || got[0] != "worker" {
		t.Fatalf("degraded %v, want [worker]", got)
	}

	// A clean run against the same cache must produce the clean translation
	// — if the degraded body had been cached, worker would replay degraded
	// (and diagnostics-free, masking the fault).
	mClean, stClean, repClean, err := TranslateToIR(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repClean.Len() != 0 {
		t.Fatalf("clean warm run produced diagnostics:\n%s", repClean)
	}
	if stClean.CacheMisses == 0 {
		t.Error("worker's suffix replayed from cache after a degraded run")
	}

	mRef, _, _, err := TranslateToIR(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	if mClean.String() != mRef.String() {
		t.Error("translation after a degraded cached run differs from the clean reference")
	}

	// The module tier never records a degraded translation either: after a
	// degraded object-level run, the next run recomputes and returns clean
	// bytes, and only that clean run fills the module record.
	want, _, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []string{"opt:worker", "fences:worker"} {
		cfg := Default()
		cfg.Cache = cache.New(0)
		inject.Arm(point, inject.Fail)
		_, _, repBad, err := Translate(bin, cfg)
		inject.Reset()
		if err != nil {
			t.Fatal(err)
		}
		if got := repBad.Degraded(); len(got) != 1 || got[0] != "worker" {
			t.Fatalf("%s: degraded %v, want [worker]", point, got)
		}
		out, st, rep, err := Translate(bin, cfg)
		if err != nil || rep.Len() != 0 {
			t.Fatalf("%s: clean run after a degraded one: %v\n%s", point, err, rep)
		}
		if st.CacheMisses != 1 {
			t.Errorf("%s: clean run missed %d functions, want worker's suffix only", point, st.CacheMisses)
		}
		if !bytes.Equal(out.Marshal(), want.Marshal()) {
			t.Errorf("%s: translation after a degraded run differs from the clean reference", point)
		}
		if _, st, _, _ := Translate(bin, cfg); st.CacheMisses != 0 {
			t.Errorf("%s: the clean run did not fill the module record", point)
		}
	}
}
