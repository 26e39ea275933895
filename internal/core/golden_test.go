package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"lasagne/internal/armlifter"
	"lasagne/internal/backend"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/validate"
)

// goldenSHA256 pins the bytes of every translation TestTranslationGolden
// produces. Any change to it is an output change: the optimizer, refinement,
// fence placement or a backend now emits different code. A change that is
// meant to alter output updates this value in the same commit and says why;
// a pure performance change must leave it alone.
const goldenSHA256 = "9a684cf025600a6dba5385f5cbefcc7152722fc91a184f340000b9e43d18fcbf"

// goldenModuleKeyVersion is the moduleKeyVersion goldenSHA256 was recorded
// under. Module records replay whole objects, backend output included, so
// an output change that keeps moduleKeyVersion would let a daemon with an
// existing disk cache serve stale objects: re-recording the hash means
// bumping both.
const goldenModuleKeyVersion = "core-module-v5"

// goldenSeeds is how many GenProgram programs the golden hash covers.
const goldenSeeds = 300

// TestTranslationGolden hashes, in a fixed order, the x86-64 input and
// native Arm64 build of every suite kernel (the five Phoenix kernels plus
// spsc_ring), their x86→Arm and Arm→x86 translations with the weak fence
// lowering on and off, and the x86→Arm translation of GenProgram seeds
// 0..goldenSeeds-1 under the default configuration. Unlike the other
// byte-identity tests, which compare two paths of the same build, this one
// compares against output recorded at an earlier commit.
func TestTranslationGolden(t *testing.T) {
	h := sha256.New()
	names, x86, arm := kernelSuite(t)
	for i, name := range names {
		hashObj(h, "input "+name+" x86-64", x86[i])
		hashObj(h, "native "+name+" arm64", arm[i])
		for _, weak := range []bool{true, false} {
			cfg := Default()
			cfg.WeakFences = weak
			out, _, _, err := Translate(x86[i], cfg)
			if err != nil {
				t.Fatalf("%s x86→Arm (weak=%v): %v", name, weak, err)
			}
			hashObj(h, name+" x86→Arm", out)
			out, _, _, err = TranslateArmToX86(arm[i], cfg)
			if err != nil {
				t.Fatalf("%s Arm→x86 (weak=%v): %v", name, weak, err)
			}
			hashObj(h, name+" Arm→x86", out)
		}
	}
	for seed := int64(0); seed < goldenSeeds; seed++ {
		bin := buildX86From(t, validate.GenProgram(seed))
		out, _, _, err := Translate(bin, Default())
		if err != nil {
			t.Fatalf("GenProgram(%d): %v", seed, err)
		}
		hashObj(h, "GenProgram input", bin)
		hashObj(h, "GenProgram x86→Arm", out)
	}
	if moduleKeyVersion != goldenModuleKeyVersion {
		t.Fatalf("moduleKeyVersion %q, but the golden hash was recorded under %q", moduleKeyVersion, goldenModuleKeyVersion)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSHA256 {
		t.Fatalf("translation output changed:\n got  %s\n want %s\n"+
			"an intended change re-records goldenSHA256 and bumps both moduleKeyVersion and goldenModuleKeyVersion",
			got, goldenSHA256)
	}
}

// reverseSHA256 pins the Arm→x86 translations of GenProgram seeds
// 0..goldenSeeds-1 under the default configuration. TestTranslationGolden
// covers the reverse direction only on the suite kernels, whose functions
// all home their parameters in the prologue; the generated programs reach
// far more of the Arm lifter's CFG and type-discovery cases.
const reverseSHA256 = "d26d246a691a8b8f969c3fd336b10d60c231c84a6ac85141d5d1f18079d34da6"

// TestReverseTranslationGolden hashes TranslateArmToX86 of the Arm64 build
// of every GenProgram seed the x86→Arm golden covers.
func TestReverseTranslationGolden(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < goldenSeeds; seed++ {
		_, bin := buildBoth(t, "t", validate.GenProgram(seed))
		out, _, _, err := TranslateArmToX86(bin, Default())
		if err != nil {
			t.Fatalf("GenProgram(%d): %v", seed, err)
		}
		hashObj(h, "GenProgram Arm→x86", out)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != reverseSHA256 {
		t.Fatalf("Arm→x86 translation output changed:\n got  %s\n want %s", got, reverseSHA256)
	}
}

// liftedIRSHA256 pins the IR both lifters emit before any refinement or
// optimization: slot names and their order, the flag slots, block names and
// every lifted instruction. The translation goldens hash only optimized
// output, which hides all of these.
const liftedIRSHA256 = "c001facf79e5804b46419cf0ed58d4cf5cd7522d8f80014c68f9631d7968a569"

// TestLiftedIRGolden hashes lifter.Lift of the x86-64 build and
// armlifter.Lift of the Arm64 build of every suite kernel and of GenProgram
// seeds 0..goldenSeeds-1.
func TestLiftedIRGolden(t *testing.T) {
	h := sha256.New()
	hashLifts := func(name string, x86, arm *obj.File) {
		t.Helper()
		for _, l := range []struct {
			label string
			lift  func(*obj.File) (*ir.Module, error)
			bin   *obj.File
		}{{" x86-64", lifter.Lift, x86}, {" arm64", armlifter.Lift, arm}} {
			m, err := l.lift(l.bin)
			if err != nil {
				t.Fatalf("lift %s%s: %v", name, l.label, err)
			}
			hashBytes(h, "lifted "+name+l.label, []byte(m.String()))
		}
	}
	names, x86, arm := kernelSuite(t)
	for i, name := range names {
		hashLifts(name, x86[i], arm[i])
	}
	for seed := int64(0); seed < goldenSeeds; seed++ {
		x, a := buildBoth(t, "t", validate.GenProgram(seed))
		hashLifts("GenProgram", x, a)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != liftedIRSHA256 {
		t.Fatalf("lifted IR changed:\n got  %s\n want %s", got, liftedIRSHA256)
	}
}

// hashObj feeds a length-prefixed label and object encoding into h, so no
// two different sequences of objects can hash alike by concatenation.
func hashObj(h hash.Hash, label string, f *obj.File) {
	hashBytes(h, label, f.Marshal())
}

// hashBytes feeds a length-prefixed label and byte string into h.
func hashBytes(h hash.Hash, label string, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(label)))
	h.Write(n[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// x86InputSHA256 pins the x86-64 backend's output, the translator's input:
// the build of every suite kernel and of GenProgram seeds 0..299. Figs.
// 13, 14 and 16 measure translations of exactly these bytes, so a change
// to the Arm64 backend must leave this hash alone.
const x86InputSHA256 = "b0b7b79af9934dc19e5422388eb8d953000cffa1b8c9a9bb3cd0d88ccf664217"

// arm64OutputSHA256 pins the Arm64 backend's output on the same programs:
// the native reference of Fig. 12 and the input of the Arm→x86 direction.
// The register allocator is shared with the x86-64 backend, so a change
// made for x86-64 must leave this hash alone.
const arm64OutputSHA256 = "5040f6a05c66fcb18665b380349263e9f6e61339be0c863194fdc18b9297ccd0"

// TestX86InputGolden hashes the x86-64 builds the translator consumes.
func TestX86InputGolden(t *testing.T) {
	if got := backendBuildsSHA256(t, "x86-64"); got != x86InputSHA256 {
		t.Fatalf("x86-64 backend output changed:\n got  %s\n want %s", got, x86InputSHA256)
	}
}

// TestArm64OutputGolden hashes the Arm64 builds of the same programs.
func TestArm64OutputGolden(t *testing.T) {
	if got := backendBuildsSHA256(t, "arm64"); got != arm64OutputSHA256 {
		t.Fatalf("arm64 backend output changed:\n got  %s\n want %s", got, arm64OutputSHA256)
	}
}

// backendBuildsSHA256 hashes arch's builds of every suite kernel and of
// GenProgram seeds 0..299, each compiled by minic and optimized first.
func backendBuildsSHA256(t *testing.T, arch string) string {
	t.Helper()
	h := sha256.New()
	build := func(name, src string) {
		t.Helper()
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Optimize(m); err != nil {
			t.Fatal(err)
		}
		bin, err := backend.Compile(m, arch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hashObj(h, name, bin)
	}
	for _, b := range append(phoenix.All(), phoenix.LockFree()...) {
		build(b.Name, b.Source)
	}
	for seed := int64(0); seed < 300; seed++ {
		build("t", validate.GenProgram(seed))
	}
	return hex.EncodeToString(h.Sum(nil))
}
