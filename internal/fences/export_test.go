package fences

import "lasagne/internal/ir"

// ReferenceEscape is the map-based analysis's result, exposed to the
// external oracle test.
type ReferenceEscape = refEscape

// ReferenceAnalyzeFunc runs the map-based reference analysis.
func ReferenceAnalyzeFunc(f *ir.Func, localGlobals map[string]bool) *ReferenceEscape {
	return referenceAnalyzeFunc(f, localGlobals)
}

// ReferenceThreadLocalGlobals is ThreadLocalGlobals over the reference
// analysis.
func ReferenceThreadLocalGlobals(m *ir.Module) []string { return referenceThreadLocalGlobals(m) }
