package opt

import "lasagne/internal/ir"

// This file keeps the straightforward forms of DCE and the escape query —
// rebuild the use map and rescan until nothing changes — as reference
// implementations for the oracle tests in oracle_test.go.

// ReferenceDCE is DCE as a fixpoint of full rescans.
func ReferenceDCE(f *ir.Func) bool {
	changed := false
	for {
		uses := referenceUses(f)
		dead := writeOnlyAllocas(f, uses)
		n := 0
		for _, b := range f.Blocks {
			for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
				if in.Op == ir.OpStore && in.Order == ir.NotAtomic {
					if a, ok := in.Args[1].(*ir.Instr); ok && dead[a] {
						b.Remove(in)
						n++
					}
					continue
				}
				if in.HasSideEffects() || in.IsTerminator() {
					continue
				}
				if ir.IsVoid(in.Ty) {
					continue
				}
				if len(uses[in]) == 0 {
					b.Remove(in)
					n++
				}
			}
		}
		if n == 0 {
			return changed
		}
		changed = true
	}
}

// ReferenceEscapes answers one escape query from a use map built for it
// alone.
func ReferenceEscapes(f *ir.Func, a *ir.Instr) bool {
	return escapes(referenceUses(f), a)
}

// ObserveEscapes routes every escape answer a pass acts on to fn until the
// returned function is called.
func ObserveEscapes(fn func(f *ir.Func, alloca *ir.Instr, escapes bool)) (restore func()) {
	old := escapeObserver
	escapeObserver = fn
	return func() { escapeObserver = old }
}

// referenceUses records every operand, constants and globals included.
func referenceUses(f *ir.Func) ir.Uses {
	u := make(ir.Uses)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				u[a] = append(u[a], in)
			}
		}
	}
	return u
}
