package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/obj"
	"lasagne/internal/sim"
)

// sim-suite: Fig. 12's measurement. Each pass simulates, with the default
// (threaded) engine, every kernel's x86 input, its native Arm build and its
// Lasagne translation, one machine at a time.

// simBuilds names the three builds of a kernel, in simulation order.
var simBuilds = []string{"x86", "arm_native", "arm_translated"}

// simKernel is one kernel's three builds plus the reference output and
// cycle counts of its first pass.
type simKernel struct {
	name   string
	builds [3]*obj.File
	out    string   // the x86 input's output: the reference
	cycles [3]int64 // first pass, for the determinism gate
}

const simSetups = 5

func runSimSuite(ctx context.Context, env *Env) (*Outcome, error) {
	ks, teardown, setupS, err := repeatSetup(simSetups, func() ([]*simKernel, func(), error) {
		suite, err := buildSuite(env.Seed)
		if err != nil {
			return nil, nil, err
		}
		var ks []*simKernel
		for _, k := range suite {
			tr, _, _, err := core.TranslateContext(ctx, k.X86, core.Default())
			if err != nil {
				return nil, nil, fmt.Errorf("%s: translate: %w", k.Name, err)
			}
			ks = append(ks, &simKernel{name: k.Name, builds: [3]*obj.File{k.X86, k.Arm, tr}})
		}
		return ks, func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	out := newOutcome()
	var tr *Tracer
	if env.Trace {
		tr = NewTracer()
		out.Tracer = tr
	}
	var passLat, transLat, passRaw Samples
	var allocs []float64
	var instrs int64
	var loads time.Duration
	runs := map[string]time.Duration{} // by build and by kernel
	passes := 0

	err = measureUntil(ctx, env.Seconds, func() error {
		runtime.GC()
		var pass, trans, raw time.Duration
		var mb float64
		var perr error
		for _, k := range ks {
			for b, o := range k.builds {
				cal := calibrate()
				var load, run time.Duration
				var err error
				mb += allocMB(func() { load, run, err = simulate(ctx, tr, k, b, o, &instrs, passes == 0) })
				if err != nil {
					out.Tally.Fail(FailError, "%s/%s: %v", k.name, simBuilds[b], err)
					perr = err
					continue
				}
				out.Tally.OK()
				pass += scaled(load+run, cal)
				raw += load + run
				if b == 2 {
					trans += scaled(load+run, cal)
				}
				loads += load
				runs[simBuilds[b]] += run
				runs[k.name] += run
			}
		}
		passes++
		if perr != nil {
			return nil
		}
		passLat = append(passLat, pass)
		passRaw = append(passRaw, raw)
		transLat = append(transLat, trans)
		allocs = append(allocs, mb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		if k.out == "" {
			out.Tally.Fail(FailIncorrect, "%s: no reference output", k.name)
		}
	}

	var ratios []float64
	perKernel := map[string]any{}
	for _, k := range ks {
		r := float64(k.cycles[2]) / float64(k.cycles[1])
		ratios = append(ratios, r)
		perKernel[k.name] = map[string]any{
			"cycles_x86": k.cycles[0], "cycles_arm_native": k.cycles[1], "cycles_arm_translated": k.cycles[2],
			"cycles_ratio": r, "run_ms_per_pass": ms(runs[k.name]) / float64(passes),
		}
	}
	busy := passLat.Sum()
	if env.Trace {
		// Every span is a layer call (a load or a run), so the trace has no
		// unattributed time to report.
		addLayerTimes(out.Layers, tr.Layers(), passes)
		out.Layers["sim.instrs"] = float64(instrs) / float64(passes)
		for _, b := range simBuilds {
			out.Layers["sim.run_ms."+b] = ms(runs[b]) / float64(passes)
		}
		for _, k := range ks {
			out.Layers["sim."+k.name+".run_ms"] = ms(runs[k.name]) / float64(passes)
			out.Layers["sim."+k.name+".cycles_ratio"] = float64(k.cycles[2]) / float64(k.cycles[1])
		}
	} else {
		out.E2E["setup_s"] = setupS
		out.E2E["latency_ms_p50"] = passLat.MedianMs()
		out.E2E["latency2_ms_p50"] = transLat.MedianMs()
		out.E2E["alloc_mb_per_op"] = median(allocs)
		if busy > 0 {
			out.E2E["work_per_s"] = float64(instrs) / busy.Seconds()
		}
	}
	out.Report["passes"] = passes
	out.Report["translated_cycles_ratio"] = geomean(ratios)
	if busy > 0 {
		out.Report["sim_minstr_per_s"] = float64(instrs) / busy.Seconds() / 1e6
	}
	out.Report["pass_ms_p50"] = passLat.MedianMs()
	out.Report["raw_pass_ms_p50"] = passRaw.MedianMs()
	out.Report["load_ms_per_pass"] = ms(loads) / float64(passes)
	out.Report["kernels"] = perKernel
	out.Report["setup_s"] = setupS
	return out, nil
}

// simulate loads and runs one build, checking its output against the x86
// input's and its cycle count against the first pass.
func simulate(ctx context.Context, tr *Tracer, k *simKernel, b int, o *obj.File, instrs *int64, first bool) (load, run time.Duration, err error) {
	start := time.Now()
	var m *sim.Machine
	tr.Do("sim.load", func() { m, err = sim.NewMachine(o) })
	load = time.Since(start)
	if err != nil {
		return load, 0, err
	}
	start = time.Now()
	var cycles int64
	tr.Do("sim.run/"+k.name+"/"+simBuilds[b], func() { cycles, err = m.RunContext(ctx) })
	run = time.Since(start)
	if err != nil {
		return load, run, err
	}
	*instrs += m.InstrCount()
	got := m.Out.String()
	if b == 0 && k.out == "" {
		k.out = got
	}
	if got != k.out {
		return load, run, fmt.Errorf("output %q differs from the x86 input's %q", got, k.out)
	}
	if first {
		k.cycles[b] = cycles
	} else if cycles != k.cycles[b] {
		return load, run, fmt.Errorf("cycles %d differ from the first pass's %d", cycles, k.cycles[b])
	}
	return load, run, nil
}
