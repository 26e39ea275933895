package eval

import (
	"context"
	"testing"

	"lasagne/internal/phoenix"
)

// TestParallelPipelineDeterministic builds and simulates the cheapest
// kernel with the worker pool disabled and enabled and requires identical
// measurements: simulated cycles, static fences, code sizes, cast counts
// and program outputs. This is the figure-level byte-identity guarantee of
// the parallel evaluation engine.
func TestParallelPipelineDeterministic(t *testing.T) {
	old := Parallelism
	defer func() { Parallelism = old }()

	run := func(workers int) *Result {
		Parallelism = workers
		r, err := BuildAll(*phoenix.Get("HT"))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := r.RunAllContext(context.Background()); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	serial := run(1)
	parallel := run(4)

	for v := Variant(0); v < NumVariants; v++ {
		if serial.Cycles[v] != parallel.Cycles[v] {
			t.Errorf("%s: cycles %d (serial) vs %d (parallel)", v, serial.Cycles[v], parallel.Cycles[v])
		}
		if serial.Output[v] != parallel.Output[v] {
			t.Errorf("%s: outputs differ", v)
		}
		sb, pb := serial.Builds[v], parallel.Builds[v]
		if sb.Fences != pb.Fences {
			t.Errorf("%s: fences %d (serial) vs %d (parallel)", v, sb.Fences, pb.Fences)
		}
		if sb.IRInstrs != pb.IRInstrs {
			t.Errorf("%s: IR instrs %d (serial) vs %d (parallel)", v, sb.IRInstrs, pb.IRInstrs)
		}
	}
	if serial.CastsRaw != parallel.CastsRaw || serial.CastsRef != parallel.CastsRef {
		t.Errorf("cast counts differ: serial %d/%d, parallel %d/%d",
			serial.CastsRaw, serial.CastsRef, parallel.CastsRaw, parallel.CastsRef)
	}
}

// TestLiftOnceCacheMatchesRelift checks that the cached lifted base module
// used by FenceOnlyCycles/PassIsolation measures the same as a Result that
// re-lifts from the x86 binary (liftedBase == nil exercises the fallback).
func TestLiftOnceCacheMatchesRelift(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r, err := BuildAll(*phoenix.Get("HT"))
	if err != nil {
		t.Fatal(err)
	}
	n1, m1, f1, err := FenceOnlyCycles(r)
	if err != nil {
		t.Fatal(err)
	}
	uncached := &Result{Bench: r.Bench, XBinary: r.XBinary}
	n2, m2, f2, err := FenceOnlyCycles(uncached)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || m1 != m2 || f1 != f2 {
		t.Errorf("cached lift (%d,%d,%d) differs from re-lift (%d,%d,%d)", n1, m1, f1, n2, m2, f2)
	}
}
