package memmodel

import (
	"testing"
)

// benchSerial pins the checkers to a single worker so the benchmarks measure
// the checking core itself, not the worker pool.
func benchSerial(b *testing.B) func() {
	b.Helper()
	old := DefaultParallelism
	DefaultParallelism = 1
	return func() { DefaultParallelism = old }
}

// BenchmarkCheckMappingExhaustive measures the Thm 7.1 bounded mapping
// checker on a deterministic sample of the maxOps=2 generated program family
// (the `cmd/litmus -exhaustive 2` workload). One op = one full
// x86→IR→Arm CheckMapping on one generated program.
func BenchmarkCheckMappingExhaustive(b *testing.B) {
	defer benchSerial(b)()
	progs := GenerateX86Programs(2)
	var sel []*Program
	for i := 0; i < len(progs); i += 37 {
		sel = append(sel, progs[i])
	}
	comp := func(q *Program) *Program { return MapIRToArm(MapX86ToIR(q)) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range sel {
			if err := CheckMapping(p, X86, comp, Arm); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fig11aBenchCells is a deterministic sample of Fig. 11a cells covering safe,
// unsafe and fence rows (the expensive part of each cell is identical — the
// bounded context sweep; the sample keeps one benchmark iteration tractable).
var fig11aBenchCells = []struct{ a, b Cat }{
	{CatRna, CatWna},
	{CatRna, CatRMW},
	{CatWna, CatFrm},
	{CatRsc, CatFww},
	{CatFrm, CatRMW},
	{CatFww, CatRna},
	{CatFsc, CatRna},
}

// BenchmarkFig11aTable measures the Fig. 11a reorder checker: one op is one
// serial pass over the sampled cells (each cell sweeps every generated
// observer context, exactly as ReorderTableSerial does per cell).
func BenchmarkFig11aTable(b *testing.B) {
	defer benchSerial(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range fig11aBenchCells {
			checkReorder(c.a, c.b, 1)
		}
	}
}

// BenchmarkBehaviorsOfIRIW measures the streamed behavior fold on IRIW under
// the Arm model — the per-candidate consistency-check path with its
// surrounding enumeration.
func BenchmarkBehaviorsOfIRIW(b *testing.B) {
	p := &Program{Name: "IRIW", Threads: [][]Op{
		{St("X", 1)},
		{St("Y", 1)},
		{Ld("X"), Ld("Y")},
		{Ld("Y"), Ld("X")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(BehaviorsOf(p, Arm, true)) == 0 {
			b.Fatal("no behaviors")
		}
	}
}

// BenchmarkSteadyStateVisit isolates the per-node fold path — walk,
// consistency check of each partial execution, behavior fold — with the
// per-program setup hoisted out of the loop. This is the path the walker
// arena contract promises is allocation-free; -benchmem must report 0
// allocs/op.
func BenchmarkSteadyStateVisit(b *testing.B) {
	p := &Program{Name: "IRIW", Threads: [][]Op{
		{St("X", 1)},
		{St("Y", 1)},
		{Ld("X"), Ld("Y")},
		{Ld("Y"), Ld("X")},
	}}
	s := newEnumSpace(p)
	f := &folder{w: s.newAliasWalker(), ev: newEvaluator(s, Arm), acc: newBehaviorSet(s.stat, true)}
	f.foldCo(0) // warm the interning map
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(f.acc.interned)
		f.foldCo(0)
	}
}
