package opt

import "lasagne/internal/ir"

// DSE removes stores that are overwritten by a later store to the same
// address before any possible read, following Fig. 11b's WAW rule. A fence
// between the two stores is crossed only for provably thread-private
// (non-escaping alloca) memory — strictly stronger than the paper's F-WAW
// rule, which is stated for final-value behavior (see internal/memmodel's
// strong-observation tests for the distinction).
func DSE(f *ir.Func) bool {
	esc := &escapeInfo{f: f}
	changed := false
	for _, b := range f.Blocks {
		insts := b.Instrs
		for i := 0; i < len(insts); i++ {
			st := insts[i]
			if st.Op != ir.OpStore || st.Order != ir.NotAtomic {
				continue
			}
			if killedByLaterStore(esc, b, i) {
				b.Remove(st)
				// The removed store may have held an alloca's address,
				// the use that made it escape.
				esc.reset()
				insts = b.Instrs
				i--
				changed = true
			}
		}
	}
	return changed
}

// killedByLaterStore scans forward from index i for a store to the same
// address with no intervening reader or barrier that blocks the WAW rule.
func killedByLaterStore(esc *escapeInfo, b *ir.Block, i int) bool {
	st := b.Instrs[i]
	addr := st.Args[1]
	size := st.Args[0].Type().Size()
	for k := i + 1; k < len(b.Instrs); k++ {
		in := b.Instrs[k]
		switch in.Op {
		case ir.OpFence:
			if !esc.isPrivate(addr) {
				return false
			}
		case ir.OpLoad:
			if in.Order != ir.NotAtomic || mayAlias(in.Args[0], addr) {
				return false
			}
		case ir.OpStore:
			if in.Order != ir.NotAtomic {
				return false
			}
			if in.Args[1] == addr && in.Args[0].Type().Size() >= size {
				return true // overwritten
			}
			// A different store cannot read the value; keep scanning.
		case ir.OpCall, ir.OpRMW, ir.OpCmpXchg, ir.OpRet, ir.OpBr, ir.OpCondBr, ir.OpUnreachable:
			return false
		}
	}
	return false
}
