// Command perfbench is the translator's benchmark: one command, four
// workloads, a correctness gate on every output, and a separate traced run
// that breaks each workload down by layer.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric; with --trace 1 it holds every per-layer metric.
// A human-readable report with the figures behind the metrics (sample
// counts, tail percentiles, Fig. 12/14/16 numbers) goes to standard error
// and to <workdir>/report-<workload>-trace<0|1>.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Metric is one named metric with its unit.
type Metric struct {
	Name, Unit string
}

// endToEnd lists the end-to-end metrics every workload reports. Each is
// defined per workload (README.md): the workload's main and second
// operation, its work rate and its allocation per main operation.
var endToEnd = []Metric{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency2_ms_p50", "ms"},
	{"work_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// Env is what a workload gets to run with.
type Env struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	Dir     string // private scratch directory, emptied before the run
}

// Outcome is what a workload measured.
type Outcome struct {
	Tally  Tally
	E2E    map[string]float64 // end-to-end metrics (untraced run)
	Layers map[string]float64 // per-layer metrics (traced run)
	Report map[string]any     // the figures behind the metrics
	Tracer *Tracer            // spans of the traced run, written to disk
}

func newOutcome() *Outcome {
	return &Outcome{E2E: map[string]float64{}, Layers: map[string]float64{}, Report: map[string]any{}}
}

type workload struct {
	name string
	run  func(ctx context.Context, env *Env) (*Outcome, error)
}

var workloads = []workload{
	{"translate-cold", runTranslateCold},
	{"serve-mixed", runServeMixed},
	{"sim-suite", runSimSuite},
	{"litmus-b3", runLitmusB3},
}

// runDeadline caps one run (the measured window plus set-up, gates and the
// traced replays); the benchmark contract allows 180 s.
const runDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: translate-cold, serve-mixed, sim-suite or litmus-b3")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench", "work"), "scratch directory")
	flag.Parse()

	// One P: on the reference machine the second vCPU comes and goes (a
	// two-thread CPU loop ran at 1× and then 2× the one-thread time within
	// one minute), which made every parallel measurement bimodal. With
	// GOMAXPROCS=1 the default Jobs, serve workers and campaign workers are
	// all 1, and the clients and the daemon share the one P.
	runtime.GOMAXPROCS(1)

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, w.name)
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	env := &Env{Seed: *seed, Seconds: time.Duration(*seconds * float64(time.Second)), Trace: *trace == 1, Dir: dir}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out, err := w.run(ctx, env)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	_ = os.RemoveAll(dir) // scratch state only; the report and trace live beside it

	out.Report["workload"] = w.name
	out.Report["seed"] = env.Seed
	out.Report["seconds"] = env.Seconds.Seconds()
	out.Report["trace"] = env.Trace
	out.Report["attempted"] = out.Tally.Attempted
	out.Report["failed"] = out.Tally.Failed
	out.Report["error_rate"] = out.Tally.ErrorRate()
	out.Report["failures_by_class"] = out.Tally.ByClass
	out.Report["failure_notes"] = out.Tally.Notes
	out.Report["environment"] = environment()
	if env.Trace {
		out.Report["layers"] = out.Layers
		if out.Tracer != nil {
			path := filepath.Join(*workdir, fmt.Sprintf("trace-%s.json", w.name))
			if err := out.Tracer.WriteChrome(path, maxWrittenSpans); err != nil {
				fatal(err)
			}
			out.Report["trace_file"] = path
			out.Report["spans"] = out.Tracer.Len()
		}
	} else {
		out.Report["end_to_end"] = out.E2E
	}
	rep, err := json.MarshalIndent(out.Report, "", "  ")
	if err != nil {
		fatal(err)
	}
	os.Stderr.Write(append(rep, '\n'))
	path := filepath.Join(*workdir, fmt.Sprintf("report-%s-trace%d.json", w.name, *trace))
	if err := os.WriteFile(path, append(rep, '\n'), 0o644); err != nil {
		fatal(err)
	}

	specs, values := endToEnd, out.E2E
	if env.Trace {
		specs, values = perLayer(), out.Layers
	}
	metrics := map[string]any{}
	for _, m := range specs {
		metrics[m.Name] = map[string]any{"value": values[m.Name], "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.Tally.Failed == 0 && out.Tally.Attempted > 0,
		"attempted": max(out.Tally.Attempted, 1),
		"failed":    out.Tally.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// maxWrittenSpans caps the trace file; the per-layer aggregates always
// cover every span.
const maxWrittenSpans = 50000

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// environment is recorded with every result.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	// run.py sets PERFBENCH_COMMIT when it runs inside a git checkout.
	env["commit"] = "unknown"
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		env["commit"] = c
	}
	return env
}

// repeatSetup runs a workload's set-up n times, keeping the last instance
// and tearing the others down, and returns it with the median set-up time
// in seconds: set-up is measured several times so that work moved into it
// shows without one slow start dominating.
func repeatSetup[T any](n int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var zero T
	var secs []float64
	for i := 0; i < n; i++ {
		var st T
		var teardown func()
		var err error
		runtime.GC()
		_, d, _ := timed(func() { st, teardown, err = setup() })
		secs = append(secs, d.Seconds())
		if err != nil {
			return zero, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if i == n-1 {
			return st, teardown, median(secs), nil
		}
		teardown()
	}
	return zero, nil, 0, fmt.Errorf("set-up: no repetitions")
}

// measureUntil calls op until the measured window has elapsed (always at
// least once) or ctx is done.
func measureUntil(ctx context.Context, window time.Duration, op func() error) error {
	end := time.Now().Add(window)
	for first := true; first || time.Now().Before(end); first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// allocMB is the heap allocated by fn, in MB.
func allocMB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}
