package fences_test

import (
	"fmt"
	"slices"
	"testing"

	"lasagne/internal/armlifter"
	"lasagne/internal/backend"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/minic"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/refine"
	"lasagne/internal/validate"
)

// checkEscape requires the dense analysis of every function in m to give
// the map-based reference's answers: Local for every value a function can
// name (its parameters and results, the module's globals) and Escaped for
// every root (its allocas and the module's globals). The prepass must
// agree with the reference prepass.
func checkEscape(t *testing.T, where string, m *ir.Module) {
	t.Helper()
	got := fences.ThreadLocalGlobals(m)
	if want := fences.ReferenceThreadLocalGlobals(m); !slices.Equal(got, want) {
		t.Fatalf("%s: ThreadLocalGlobals = %v, the reference %v", where, got, want)
	}
	locals := fences.LocalGlobalSet(got)
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		values := []ir.Value{}
		for _, g := range m.Globals {
			values = append(values, g)
		}
		for _, p := range f.Params {
			values = append(values, p)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				values = append(values, in)
			}
		}
		e, ref := fences.AnalyzeFunc(f, locals), fences.ReferenceAnalyzeFunc(f, locals)
		for _, v := range values {
			if got, want := e.Local(v), ref.Local(v); got != want {
				t.Fatalf("%s: %s: Local(%s) = %v, the reference says %v:\n%s", where, f.Name, v.Ref(), got, want, f)
			}
			if in, ok := v.(*ir.Instr); ok && in.Op != ir.OpAlloca {
				continue
			}
			if got, want := e.Escaped(v), ref.Escaped(v); got != want {
				t.Fatalf("%s: %s: Escaped(%s) = %v, the reference says %v:\n%s", where, f.Name, v.Ref(), got, want, f)
			}
		}
	}
}

// walkEscape checks the analysis on a lifted module after refinement,
// after fence placement (when place is set) and after every pass of the
// standard pipeline.
func walkEscape(t *testing.T, where string, m *ir.Module, place bool) {
	t.Helper()
	refine.Run(m)
	checkEscape(t, where+", refined", m)
	if place {
		fences.Place(m, fences.Options{SkipStackAccesses: true, UseEscape: true,
			LocalGlobals: fences.LocalGlobalSet(fences.ThreadLocalGlobals(m))})
		checkEscape(t, where+", fenced", m)
	}
	for i, pass := range opt.StandardPipeline {
		if _, err := opt.Run(m, pass); err != nil {
			t.Fatal(err)
		}
		checkEscape(t, fmt.Sprintf("%s, after pass %d (%s)", where, i, pass), m)
	}
}

// TestEscapeMatchesReference checks the dense escape analysis against the
// map-based one on every suite kernel and GenProgram seeds 0..199, lifted
// from both x86-64 and Arm64, at every stage of the translation suffix.
func TestEscapeMatchesReference(t *testing.T) {
	walk := func(name, src string) {
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := opt.Optimize(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x86, err := backend.Compile(m.Clone(), "x86-64")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arm, err := backend.Compile(m, "arm64")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lx, err := lifter.Lift(x86)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		walkEscape(t, name+" (x86→Arm)", lx, true)
		la, err := armlifter.Lift(arm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		walkEscape(t, name+" (Arm→x86)", la, false)
	}
	var suite []phoenix.Benchmark
	suite = append(suite, phoenix.All()...)
	suite = append(suite, phoenix.LockFree()...)
	for _, b := range suite {
		walk(b.Name, b.Source)
	}
	for seed := int64(0); seed < 200; seed++ {
		walk(fmt.Sprintf("GenProgram(%d)", seed), validate.GenProgram(seed))
	}
}
