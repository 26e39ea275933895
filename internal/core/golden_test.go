package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"lasagne/internal/obj"
	"lasagne/internal/validate"
)

// goldenSHA256 pins the bytes of every translation TestTranslationGolden
// produces. Any change to it is an output change: the optimizer, refinement,
// fence placement or a backend now emits different code. A change that is
// meant to alter output updates this value in the same commit and says why;
// a pure performance change must leave it alone.
const goldenSHA256 = "5d50531c621aa7941c7735ad4dab92f3fbd2b727f797701a052b110e920ef766"

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
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSHA256 {
		t.Fatalf("translation output changed:\n got  %s\n want %s", got, goldenSHA256)
	}
}

// hashObj feeds a length-prefixed label and object encoding into h, so no
// two different sequences of objects can hash alike by concatenation.
func hashObj(h hash.Hash, label string, f *obj.File) {
	b := f.Marshal()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(label)))
	h.Write(n[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}
