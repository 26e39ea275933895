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
		dead := referenceWriteOnlyAllocas(f, uses)
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
	uses := referenceUses(f)
	var visit func(v ir.Value, depth int) bool
	visit = func(v ir.Value, depth int) bool {
		if depth > 16 {
			return true
		}
		for _, u := range uses[v] {
			switch u.Op {
			case ir.OpLoad:
			case ir.OpStore:
				if u.Args[0] == v {
					return true
				}
			case ir.OpBitcast, ir.OpGEP:
				if visit(u, depth+1) {
					return true
				}
			default:
				return true
			}
		}
		return false
	}
	return visit(a, 0)
}

// referenceWriteOnlyAllocas is writeOnlyAllocas over a use map.
func referenceWriteOnlyAllocas(f *ir.Func, uses map[ir.Value][]*ir.Instr) map[*ir.Instr]bool {
	out := map[*ir.Instr]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca {
				continue
			}
			ok := true
			for _, u := range uses[in] {
				if u.Op != ir.OpStore || u.Args[1] != ir.Value(in) ||
					u.Args[0] == ir.Value(in) || u.Order != ir.NotAtomic {
					ok = false
					break
				}
			}
			if ok {
				out[in] = true
			}
		}
	}
	return out
}

// ObserveEscapes routes every escape answer a pass acts on to fn until the
// returned function is called.
func ObserveEscapes(fn func(f *ir.Func, alloca *ir.Instr, escapes bool)) (restore func()) {
	old := escapeObserver
	escapeObserver = fn
	return func() { escapeObserver = old }
}

// referenceUses records every operand, constants and globals included.
func referenceUses(f *ir.Func) map[ir.Value][]*ir.Instr {
	u := make(map[ir.Value][]*ir.Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				u[a] = append(u[a], in)
			}
		}
	}
	return u
}
