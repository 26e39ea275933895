package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/phoenix"
)

// The traced replay of one kernel must produce the bytes core produces with
// one worker, in both directions, or the trace measures another program.
func TestTraceFidelity(t *testing.T) {
	b := phoenix.Get("spsc_ring")
	x86, arm, err := compileMinic(b.Name, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	one := core.Default()
	one.Jobs = 1
	want, _, _, err := core.TranslateContext(context.Background(), x86, one)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	var n counts
	got, err := replayX86ToArm(tr, x86, nil, &n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Error("x86→arm replay differs from core.TranslateContext (Jobs: 1)")
	}
	wantX86, _, _, err := core.TranslateArmToX86Context(context.Background(), arm, one)
	if err != nil {
		t.Fatal(err)
	}
	gotX86, err := replayArmToX86(tr, arm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotX86.Marshal(), wantX86.Marshal()) {
		t.Error("arm→x86 replay differs from core.TranslateArmToX86Context (Jobs: 1)")
	}
	layers := map[string]float64{}
	addLayerTimes(layers, tr.Layers(), 1)
	for _, m := range []string{"lifter.ms", "refine.ms", "fences.classify_ms", "opt.gvn.ms", "backend.arm64_ms", "armlifter.ms", "backend.x86_64_ms"} {
		if layers[m] <= 0 {
			t.Errorf("layer %s has no time", m)
		}
	}
	if n.Funcs == 0 || n.PassesRun == 0 || n.Placed == 0 {
		t.Errorf("replay counts %+v", n)
	}
}

// Same seed, same schedule; another seed, another order; every seed the
// same 80/10/10 mix over a balanced set of modules.
func TestScheduleSeeded(t *testing.T) {
	a, fa := schedule(7, 1000, 6)
	b, fb := schedule(7, 1000, 6)
	c, _ := schedule(8, 1000, 6)
	if !reflect.DeepEqual(a, b) || fa != fb {
		t.Error("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	kinds := map[int]int{}
	mods := map[int]int{}
	for _, s := range a {
		kinds[s.kind]++
		if s.kind == kindHit {
			mods[s.mod]++
		}
	}
	if kinds[kindHit] != 800 || kinds[kindFresh] != 100 || kinds[kindStream] != 100 || fa != 100 {
		t.Errorf("mix %v, fresh %d", kinds, fa)
	}
	for m := 0; m < 6; m++ {
		if mods[m] < 133 || mods[m] > 134 {
			t.Errorf("module %d requested %d times of 800", m, mods[m])
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []Metric) {
		units := map[string]string{}
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		if len(units) != len(got) || len(got) != len(want) {
			t.Errorf("%s: %d metrics (%d distinct), program reports %d", kind, len(got), len(units), len(want))
		}
		for _, m := range want {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) missing or has unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

// A short run of every workload, untraced and traced: every gate passes and
// every metric the mode reports is present.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			env := &Env{Seed: 3, Seconds: 500 * time.Millisecond, Trace: traced, Dir: t.TempDir()}
			out, err := w.run(context.Background(), env)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if out.Tally.Failed != 0 || out.Tally.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d failed: %v", w.name, traced, out.Tally.Failed, out.Tally.Attempted, out.Tally.Notes)
			}
			if !traced {
				for _, m := range endToEnd {
					if out.E2E[m.Name] <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, out.E2E[m.Name])
					}
				}
			}
		}
	}
}
