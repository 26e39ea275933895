package core

import (
	"strings"
	"testing"

	"lasagne/internal/backend"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/sim"
)

const concurrentSrc = `
int shared[64];
int total;
void worker(int tid) {
  int i;
  for (i = tid; i < 64; i = i + 4) {
    shared[i] = i * i;
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

func buildX86(t *testing.T) (*obj.File, string) {
	t.Helper()
	m, err := minic.Compile("t", concurrentSrc)
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
	mach, err := sim.NewMachine(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	return bin, mach.Out.String()
}

func TestTranslateAllConfigs(t *testing.T) {
	bin, want := buildX86(t)
	configs := map[string]Config{
		"lifted": {},
		"opt":    {Optimize: true},
		"popt":   {Optimize: true, MergeFences: true},
		"ppopt":  Default(),
		"verify": {Refine: true, MergeFences: true, Optimize: true, VerifyIR: true},
	}
	var cycles = map[string]int64{}
	for name, cfg := range configs {
		armObj, stats, rep, err := Translate(bin, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Len() != 0 {
			t.Fatalf("%s: clean translation produced diagnostics:\n%s", name, rep)
		}
		if armObj.Arch != "arm64" {
			t.Fatalf("%s: wrong arch %s", name, armObj.Arch)
		}
		if stats.FencesPlaced == 0 {
			t.Fatalf("%s: no fences placed on a concurrent program", name)
		}
		mach, err := sim.NewMachine(armObj)
		if err != nil {
			t.Fatal(err)
		}
		c, err := mach.Run()
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if mach.Out.String() != want {
			t.Fatalf("%s output %q, want %q", name, mach.Out.String(), want)
		}
		cycles[name] = c
	}
	if cycles["ppopt"] >= cycles["lifted"] {
		t.Fatalf("ppopt (%d) not faster than lifted (%d)", cycles["ppopt"], cycles["lifted"])
	}
}

// TestTranslateRejectsWrongArch: each direction refuses the other
// direction's input with an error and an Error diagnostic.
func TestTranslateRejectsWrongArch(t *testing.T) {
	for i, d := range directions {
		wrong := directions[1-i].build(t)
		t.Run(d.name, func(t *testing.T) {
			_, _, rep, err := d.translate(wrong, Default())
			if err == nil || !strings.Contains(err.Error(), "expected an") {
				t.Fatalf("err = %v, want a wrong-architecture error", err)
			}
			if !rep.HasErrors() {
				t.Fatal("failed translation left no Error diagnostic")
			}
		})
	}
}

func TestStatsAreConsistent(t *testing.T) {
	bin, _ := buildX86(t)
	_, stats, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	if stats.PtrCastsAfter >= stats.PtrCastsBefore {
		t.Errorf("refinement did not reduce casts: %d -> %d", stats.PtrCastsBefore, stats.PtrCastsAfter)
	}
	if stats.FencesFinal > stats.FencesPlaced {
		t.Errorf("fences grew: placed %d, final %d", stats.FencesPlaced, stats.FencesFinal)
	}
	if stats.FinalInstrs >= stats.LiftedInstrs {
		t.Errorf("optimization did not shrink code: %d -> %d", stats.LiftedInstrs, stats.FinalInstrs)
	}
}

func TestTranslateArmToX86(t *testing.T) {
	m, err := minic.Compile("t", concurrentSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	armBin, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.NewMachine(armBin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	want := mach.Out.String()

	x86Obj, stats, _, err := TranslateArmToX86(armBin, Default())
	if err != nil {
		t.Fatal(err)
	}
	if x86Obj.Arch != "x86-64" {
		t.Fatalf("arch %s", x86Obj.Arch)
	}
	if stats.FencesFinal == 0 {
		t.Error("expected lifted DMB fences in the IR")
	}
	xm, err := sim.NewMachine(x86Obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xm.Run(); err != nil {
		t.Fatal(err)
	}
	if xm.Out.String() != want {
		t.Fatalf("x86 output %q, want %q", xm.Out.String(), want)
	}
}
