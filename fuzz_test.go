package lasagne

import (
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/diag"
	"lasagne/internal/ir"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/sim"
	"lasagne/internal/validate"
)

// TestPipelineFuzz generates random programs (validate.GenProgram, the same
// generator the differential oracle uses) and checks every execution world
// agrees: IR interpreter, optimized IR, x86 simulation, and all translation
// configurations on the Arm64 simulator. Every failure message carries the
// program seed, so any failure replays with a one-line test.
func TestPipelineFuzz(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		src := validate.GenProgram(seed)
		m, err := minic.Compile("fuzz", src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		ip := ir.NewInterp(m)
		if _, err := ip.Run("main"); err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		want := ip.Out.String()

		// Optimized IR agrees; verify=true re-checks the module after every
		// pass, so a verifier regression is attributed to the pass that
		// introduced it (via *opt.PassError), not discovered at the end.
		m2, _ := minic.Compile("fuzz", src)
		if err := opt.RunPipeline(m2, opt.StandardPipeline, true); err != nil {
			t.Fatalf("seed %d: opt: %v\n%s", seed, err, src)
		}
		if err := ir.Verify(m2); err != nil {
			t.Fatalf("seed %d: invalid after opt: %v\n%s", seed, err, src)
		}
		ip2 := ir.NewInterp(m2)
		if _, err := ip2.Run("main"); err != nil {
			t.Fatalf("seed %d: optimized interp: %v\n%s", seed, err, src)
		}
		if ip2.Out.String() != want {
			t.Fatalf("seed %d: optimizer changed output %q -> %q\n%s", seed, want, ip2.Out.String(), src)
		}

		// x86 binary agrees.
		bin, err := backend.Compile(m2, "x86-64")
		if err != nil {
			t.Fatalf("seed %d: x86: %v", seed, err)
		}
		mach, err := sim.NewMachine(bin)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run(); err != nil {
			t.Fatalf("seed %d: x86 run: %v\n%s", seed, err, src)
		}
		if mach.Out.String() != want {
			t.Fatalf("seed %d: x86 output %q, want %q\n%s", seed, mach.Out.String(), want, src)
		}

		// Every translation configuration agrees.
		for _, cfg := range []core.Config{{}, {Optimize: true}, core.Default()} {
			armObj, _, _, err := core.Translate(bin, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %+v: translate: %v\n%s", seed, cfg, err, src)
			}
			am, err := sim.NewMachine(armObj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := am.Run(); err != nil {
				t.Fatalf("seed %d cfg %+v: arm run: %v\n%s", seed, cfg, err, src)
			}
			if am.Out.String() != want {
				t.Fatalf("seed %d cfg %+v: arm output %q, want %q\n%s",
					seed, cfg, am.Out.String(), want, src)
			}
		}
	}
}

// FuzzTranslate feeds arbitrary bytes to the pipeline as the .text section
// of an x86-64 object and of an Arm64 object, and asserts the
// fault-tolerance contract in both directions: no panic ever escapes the
// translation, and every failed translation carries at least one Error
// diagnostic explaining why. With AllowPartial the pipeline additionally
// must survive by stubbing whatever it cannot lift, and whatever it accepts
// must stay verifier-clean and compile for the target.
func FuzzTranslate(f *testing.F) {
	// Seed with real machine code of both architectures, truncated copies
	// of it (cut an instruction mid-encoding), and plain garbage.
	m, err := minic.Compile("seed", "int g; int main() { g = 41; print_int(g + 1); return 0; }")
	if err != nil {
		f.Fatal(err)
	}
	for _, arch := range []string{"x86-64", "arm64"} {
		bin, err := backend.Compile(m, arch)
		if err != nil {
			f.Fatal(err)
		}
		text := bin.Section(".text").Data
		f.Add(text)
		f.Add(text[:len(text)/2])
		f.Add(text[:1])
	}
	f.Add([]byte{0x90, 0xcc, 0xff, 0x00, 0x41, 0xf4, 0x0f, 0x05})
	f.Add([]byte{0x1f, 0x20, 0x03, 0xd5, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzed := &obj.File{
			Arch:  "x86-64",
			Entry: "main",
			Sections: []obj.Section{
				{Name: ".text", Addr: obj.TextBase, Data: data},
				{Name: ".data", Addr: obj.DataBase, Data: make([]byte, 64)},
			},
			Symbols: []obj.Symbol{
				{Name: "main", Kind: obj.SymFunc, Addr: obj.TextBase, Size: uint64(len(data))},
				{Name: "g", Kind: obj.SymData, Addr: obj.DataBase, Size: 8},
			},
		}
		for _, cfg := range []core.Config{
			core.Default(),
			{Refine: true, MergeFences: true, Optimize: true, AllowPartial: true},
			{Refine: true, MergeFences: true, Optimize: true, Validate: true, AllowPartial: true},
		} {
			m, _, rep, err := core.TranslateToIR(fuzzed, cfg)
			if err != nil {
				if rep == nil || !rep.HasErrors() {
					t.Fatalf("cfg %+v: failure carries no Error diagnostic: %v", cfg, err)
				}
				continue
			}
			// Whatever the pipeline accepts it must leave verifier-clean, and
			// the backend must be able to lower it.
			if verr := ir.Verify(m); verr != nil {
				t.Fatalf("cfg %+v: translation succeeded with invalid IR: %v", cfg, verr)
			}
			if _, cerr := backend.Compile(m, "arm64"); cerr != nil {
				t.Fatalf("cfg %+v: arm64 backend rejected verified IR: %v", cfg, cerr)
			}
		}

		// The same bytes as Arm64 code. The object-to-object entry point
		// hides the IR, so the final-module verifier runs inside the
		// pipeline (VerifyIR, Validate): the pipeline may refuse what it
		// cannot lift, but neither that verifier nor the backend may refuse
		// what it accepted.
		fuzzed.Arch = "arm64"
		for _, cfg := range []core.Config{
			{Refine: true, MergeFences: true, Optimize: true, VerifyIR: true},
			{Refine: true, MergeFences: true, Optimize: true, VerifyIR: true, AllowPartial: true},
			{Refine: true, MergeFences: true, Optimize: true, Validate: true, AllowPartial: true},
		} {
			out, _, rep, err := core.TranslateArmToX86(fuzzed, cfg)
			if err != nil {
				if rep == nil || !rep.HasErrors() {
					t.Fatalf("arm64 cfg %+v: failure carries no Error diagnostic: %v", cfg, err)
				}
			}
			for _, d := range rep.Diagnostics() {
				if d.Severity == diag.Error && (d.Stage == diag.StageBackend || d.Stage == diag.StageVerify && d.Func == "") {
					t.Fatalf("arm64 cfg %+v: accepted input failed at %s: %v", cfg, d.Stage, d.Cause)
				}
			}
			if err == nil && out.Arch != "x86-64" {
				t.Fatalf("arm64 cfg %+v: translation produced a %q object", cfg, out.Arch)
			}
		}
	})
}
